"""Pipeline configuration: dataclass tree with a YAML file representation.

Defaults match the documented pipeline constants (overlap threshold 0.5,
clustering radius 0.015 with 2 minimum points, association thresholds of 40
support and 0.99 confidence, long-tail cutoff picked from corpus size).
Every key can be overridden by the CLI flag of the same name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from . import tagnorm
from .errors import ProcTagError
from .layout import DEFAULT_NMS_IOU, DEFAULT_ROW_TOLERANCE
from .render import DOCLAYPROMPT


class ConfigError(ProcTagError):
    pass


@dataclass
class PathsConfig:
    dataset: str = "data/records.jsonl"
    pages: str | None = None            # default: pages/ next to the record file
    output_dir: str = "out"
    gen_cache_dir: str = "cache/generation"
    embed_cache_dir: str = "cache/embeddings"


@dataclass
class LayoutConfig:
    nms_iou_threshold: float = DEFAULT_NMS_IOU
    row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE


@dataclass
class RenderConfig:
    style: str = DOCLAYPROMPT
    max_chars: int | None = None


@dataclass
class GenerationConfig:
    backend: str = "mock"               # mock | cache | remote
    max_inflight: int = 4
    temperature: float = 0.0
    model: str = "default"


@dataclass
class TaggingConfig:
    min_count: int | None = None        # None: pick from corpus size
    dbscan_eps: float = tagnorm.DEFAULT_DBSCAN_EPS
    dbscan_min_pts: int = tagnorm.DEFAULT_DBSCAN_MIN_PTS
    min_support: int = tagnorm.DEFAULT_MIN_SUPPORT
    min_confidence: float = tagnorm.DEFAULT_MIN_CONFIDENCE
    embedder: str = "hashing"           # hashing | cache | remote


@dataclass
class SamplingConfig:
    mode: str = "ratio"                 # budget | ratio | coverage | random
    budget: int | None = None
    ratio: float | None = 0.3
    coverage: float | None = None
    seed: int = 0


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    tagging: TaggingConfig = field(default_factory=TaggingConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _merge_section(instance: Any, values: dict[str, Any], section: str) -> None:
    known = {f.name for f in fields(instance)}
    for key, value in values.items():
        if key not in known:
            raise ConfigError(f"unknown config key {section}.{key}")
        setattr(instance, key, value)


def config_from_dict(obj: dict[str, Any]) -> PipelineConfig:
    cfg = PipelineConfig()
    for f in fields(cfg):
        section = obj.get(f.name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"config section {f.name!r} must be a mapping")
        _merge_section(getattr(cfg, f.name), section, f.name)
    unknown = set(obj) - {f.name for f in fields(cfg)}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return cfg


def load_config(path: Path | str) -> PipelineConfig:
    import yaml

    path = Path(path)
    try:
        obj = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(obj)


def dump_config(cfg: PipelineConfig, path: Path | str) -> None:
    import yaml

    Path(path).write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True),
                          encoding="utf-8")
