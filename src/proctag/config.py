"""Pipeline configuration: dataclass tree read from a YAML file.

Defaults match the documented pipeline constants (overlap threshold 0.5,
clustering radius 0.015 with 2 minimum points, association thresholds of 40
support and 0.99 confidence, long-tail cutoff picked from corpus size).

The dataclasses are the one schema of the config: a field's type hint and
metadata (``choices``; the range ``min`` / ``max``, inclusive, and
``above``, exclusive; the flag's ``help``; the section a cache directory
``serves``) say what it takes, and :func:`set_key` checks every value, from
a YAML file or a flag, against them. The ranges are the ones the stages
enforce, so a value out of range fails before the first stage writes. A
bool is never a number, an int is widened for a float field, a float must
be finite, and ``None`` fits only ``X | None``.
Every key is also a CLI flag named after it, except ``paths.output_dir``
(``--out``) and ``paths.gen_cache_dir`` (``--cache-dir``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import Field, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, get_args, get_type_hints

from . import tagnorm
from .assess import MODES
from .errors import ProcTagError
from .layout import DEFAULT_NMS_IOU, DEFAULT_ROW_TOLERANCE
from .render import DOCLAYPROMPT, STYLES


class ConfigError(ProcTagError):
    pass


def _key(default: Any, **metadata: Any) -> Any:
    return field(default=default, metadata=metadata)


@dataclass
class PathsConfig:
    dataset: str = _key("data/records.jsonl", help="record file (JSONL)")
    # default: pages/ next to the record file
    pages: str | None = _key(None, help="pages directory")
    output_dir: str = _key("out", help="output directory for stage artifacts")
    gen_cache_dir: str = _key("cache/generation", serves="generation")
    embed_cache_dir: str = _key("cache/embeddings", serves="tagging")


@dataclass
class LayoutConfig:
    nms_iou_threshold: float = _key(DEFAULT_NMS_IOU, above=0, max=1)
    row_tolerance_factor: float = _key(DEFAULT_ROW_TOLERANCE, min=0)


@dataclass
class RenderConfig:
    style: str = _key(DOCLAYPROMPT, choices=STYLES)
    max_chars: int | None = _key(None, min=0)


@dataclass
class GenerationConfig:
    backend: str = _key("mock", choices=("mock", "cache", "remote"))
    max_inflight: int = _key(4, min=1)
    temperature: float = 0.0
    model: str = _key("default", help="model name sent to the remote backend")


@dataclass
class TaggingConfig:
    min_count: int | None = _key(None, min=1)  # None: pick from corpus size
    dbscan_eps: float = _key(tagnorm.DEFAULT_DBSCAN_EPS, above=0)
    dbscan_min_pts: int = _key(tagnorm.DEFAULT_DBSCAN_MIN_PTS, min=1)
    min_support: int = _key(tagnorm.DEFAULT_MIN_SUPPORT, min=1)
    min_confidence: float = _key(tagnorm.DEFAULT_MIN_CONFIDENCE, min=0, max=1)
    embedder: str = _key("hashing", choices=("hashing", "cache", "remote"))


@dataclass
class SamplingConfig:
    mode: str = _key("ratio", choices=MODES)
    budget: int | None = _key(None, min=0)
    ratio: float | None = _key(0.3, above=0, max=1)
    coverage: float | None = _key(None, min=0, max=1)
    seed: int = 0


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    tagging: TaggingConfig = field(default_factory=TaggingConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)


@cache
def schema() -> tuple[tuple[str, Field, Any], ...]:
    """(section, field, resolved type hint) of every config key, in
    declaration order."""
    return tuple((section, f, get_type_hints(cls)[f.name])
                 for section, cls in get_type_hints(PipelineConfig).items()
                 for f in fields(cls))


# range metadata key -> (how an error states it, the test a value must pass)
_BOUNDS = {"min": (">=", operator.ge), "above": (">", operator.gt), "max": ("<=", operator.le)}


def _checked(section: str, f: Field, hint: Any, value: Any) -> Any:
    """``value`` as field ``f`` stores it; ConfigError if the field refuses it."""
    types = get_args(hint) or (hint,)
    if float in types and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass  # rejected as not a float below
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join("None" if t is type(None) else t.__name__ for t in types)
        raise ConfigError(f"{section}.{f.name} must be {names}, got {value!r}")
    if value is None:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{section}.{f.name} must be finite, got {value!r}")
    choices = f.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"{section}.{f.name} must be one of {choices}, got {value!r}")
    for bound, (sign, holds) in _BOUNDS.items():
        limit = f.metadata.get(bound)
        if limit is not None and not holds(value, limit):
            raise ConfigError(f"{section}.{f.name} must be {sign} {limit}, got {value!r}")
    return value


def set_key(cfg: PipelineConfig, section: str, key: Any, value: Any) -> None:
    """Set ``section.key`` to ``value`` if the field takes it; ConfigError
    otherwise."""
    for s, f, hint in schema():
        if s == section and f.name == key:
            setattr(getattr(cfg, section), key, _checked(s, f, hint, value))
            return
    raise ConfigError(f"unknown config key {section}.{key}")


def config_from_dict(obj: dict[Any, Any]) -> PipelineConfig:
    cfg = PipelineConfig()
    unknown = set(obj) - {f.name for f in fields(cfg)}
    if unknown:
        # YAML keys may be ints, None or dates as well as strings
        raise ConfigError(f"unknown config sections: {sorted(unknown, key=str)}")
    for section, values in obj.items():
        if values is None:
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key, value in values.items():
            set_key(cfg, section, key, value)
    return cfg


def load_config(path: Path | str) -> PipelineConfig:
    import yaml

    path = Path(path)
    try:
        obj = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(obj)

