"""Dataset and page persistence: line-delimited records with sidecar page files.

A dataset is a UTF-8 JSONL file with one instruction record per line, plus a
pages directory holding one JSON file per referenced page
(``<pages_dir>/<page_id>.json``). Out-of-bounds boxes are clamped on load
with a logged warning; :func:`validate_page` reports them as violations
instead of rejecting the page.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import ProcTagError

log = logging.getLogger(__name__)


class MalformedLine(ProcTagError):
    """A record line could not be parsed or is missing required fields."""

    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        msg = f"malformed record on line {line_no}"
        super().__init__(f"{msg}: {reason}" if reason else msg)


class MissingPage(ProcTagError):
    """A record references a page with no page file."""

    def __init__(self, page_id: str):
        self.page_id = page_id
        super().__init__(f"record references unknown page {page_id!r}")


class IoFailure(ProcTagError):
    """Reading or writing a dataset file failed."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in page pixels, origin at the top-left corner."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True)
class OcrToken:
    """One OCR text fragment with its box."""

    text: str
    bbox: BoundingBox
    confidence: float | None = None


@dataclass(frozen=True)
class LayoutRegion:
    """One detected layout component. Unknown kind labels are kept verbatim."""

    kind: str
    bbox: BoundingBox
    score: float | None = None


@dataclass
class DocumentPage:
    """OCR tokens and layout regions for a single page."""

    page_id: str
    width: float
    height: float
    tokens: list[OcrToken] = field(default_factory=list)
    regions: list[LayoutRegion] = field(default_factory=list)
    image_ref: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class InstructionRecord:
    """A question about one page, its gold answers, and per-stage annotations."""

    record_id: str
    page_id: str
    question: str
    answers: list[str] = field(default_factory=list)
    annotations: dict[str, Any] = field(default_factory=dict)


@dataclass
class Dataset:
    records: list[InstructionRecord] = field(default_factory=list)
    pages: dict[str, DocumentPage] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validation; data, not a failure."""

    page_id: str
    path: str
    code: str
    message: str


# ---------------------------------------------------------------------------
# validation


def _bbox_violations(page_id: str, path: str, b: BoundingBox,
                     width: float, height: float) -> list[Violation]:
    coords = (b.x0, b.y0, b.x1, b.y1)
    if not all(math.isfinite(c) for c in coords):
        return [Violation(page_id, path, "bbox_nonfinite", f"non-finite coordinates {coords}")]
    if any(c < 0 for c in coords):
        return [Violation(page_id, path, "bbox_negative", f"negative coordinates {coords}")]
    if b.x1 < b.x0 or b.y1 < b.y0:
        return [Violation(page_id, path, "bbox_inverted", f"inverted box {coords}")]
    if b.x1 > width or b.y1 > height:
        return [Violation(page_id, path, "bbox_out_of_bounds",
                          f"box {coords} exceeds page {width}x{height}")]
    return []


def validate_page(page: DocumentPage) -> list[Violation]:
    """Return one violation per breached invariant; empty iff the page conforms."""
    out: list[Violation] = []
    if not (page.width > 0 and page.height > 0):
        out.append(Violation(page.page_id, "page", "bad_page_size",
                             f"page size {page.width}x{page.height}"))
    for i, tok in enumerate(page.tokens):
        path = f"tokens[{i}]"
        if not tok.text.strip():
            out.append(Violation(page.page_id, path, "empty_text", "token text empty after trim"))
        out.extend(_bbox_violations(page.page_id, f"{path}.bbox", tok.bbox, page.width, page.height))
        if tok.confidence is not None and not 0 <= tok.confidence <= 1:
            out.append(Violation(page.page_id, path, "bad_confidence",
                                 f"confidence {tok.confidence} outside [0,1]"))
    for j, reg in enumerate(page.regions):
        path = f"regions[{j}]"
        if not reg.kind.strip():
            out.append(Violation(page.page_id, path, "empty_kind", "region kind empty"))
        out.extend(_bbox_violations(page.page_id, f"{path}.bbox", reg.bbox, page.width, page.height))
        if reg.score is not None and not 0 <= reg.score <= 1:
            out.append(Violation(page.page_id, path, "bad_score",
                                 f"score {reg.score} outside [0,1]"))
    return out


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """Page violations plus record-level referential checks."""
    out: list[Violation] = []
    for page in dataset.pages.values():
        out.extend(validate_page(page))
    seen: set[str] = set()
    for rec in dataset.records:
        if rec.record_id in seen:
            out.append(Violation(rec.page_id, f"record:{rec.record_id}",
                                 "duplicate_record_id", "record_id not unique"))
        seen.add(rec.record_id)
        if rec.page_id not in dataset.pages:
            out.append(Violation(rec.page_id, f"record:{rec.record_id}",
                                 "dangling_page_ref", "page not loaded"))
    return out


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def clamp_page(page: DocumentPage) -> tuple[DocumentPage, int]:
    """Clamp every box into [0,width]x[0,height]; returns (page, boxes changed).

    A page whose boxes all lie inside it comes back as the same object.
    """
    w, h = page.width, page.height
    if all(0 <= b.x0 <= w and 0 <= b.y0 <= h and 0 <= b.x1 <= w and 0 <= b.y1 <= h
           for b in chain((t.bbox for t in page.tokens), (r.bbox for r in page.regions))):
        return page, 0
    changed = 0

    def fix(b: BoundingBox) -> BoundingBox:
        nonlocal changed
        c = BoundingBox(_clamp(b.x0, 0, page.width), _clamp(b.y0, 0, page.height),
                        _clamp(b.x1, 0, page.width), _clamp(b.y1, 0, page.height))
        if c != b:
            changed += 1
        return c

    tokens = [replace(t, bbox=fix(t.bbox)) for t in page.tokens]
    regions = [replace(r, bbox=fix(r.bbox)) for r in page.regions]
    if changed == 0:
        return page, 0
    return replace(page, tokens=tokens, regions=regions), changed


# ---------------------------------------------------------------------------
# (de)serialization


def _bbox_from(obj: Any, line_ctx: str) -> BoundingBox:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 4
            and all(isinstance(v, (int, float)) for v in obj)):
        raise IoFailure(f"{line_ctx}: bbox must be a list of 4 numbers, got {obj!r}")
    return BoundingBox(*obj)


def _page_from_dict(obj: dict[str, Any], ctx: str) -> DocumentPage:
    try:
        tokens = [OcrToken(text=t["text"], bbox=_bbox_from(t["bbox"], ctx),
                           confidence=t.get("confidence"))
                  for t in obj.get("tokens", [])]
        regions = [LayoutRegion(kind=r["kind"], bbox=_bbox_from(r["bbox"], ctx),
                                score=r.get("score"))
                   for r in obj.get("regions", [])]
        return DocumentPage(page_id=obj["page_id"], width=obj["width"], height=obj["height"],
                            tokens=tokens, regions=regions,
                            image_ref=obj.get("image_ref"), meta=obj.get("meta", {}))
    except (KeyError, TypeError) as exc:
        raise IoFailure(f"{ctx}: bad page structure ({exc})") from exc


def _page_to_dict(page: DocumentPage) -> dict[str, Any]:
    out: dict[str, Any] = {
        "page_id": page.page_id,
        "width": page.width,
        "height": page.height,
        "tokens": [
            {"text": t.text, "bbox": t.bbox.as_list(),
             **({"confidence": t.confidence} if t.confidence is not None else {})}
            for t in page.tokens
        ],
        "regions": [
            {"kind": r.kind, "bbox": r.bbox.as_list(),
             **({"score": r.score} if r.score is not None else {})}
            for r in page.regions
        ],
    }
    if page.image_ref is not None:
        out["image_ref"] = page.image_ref
    if page.meta:
        out["meta"] = page.meta
    return out


def _record_from_dict(obj: Any, line_no: int) -> InstructionRecord:
    if not isinstance(obj, dict):
        raise MalformedLine(line_no, "record is not an object")
    for key, typ in (("record_id", str), ("page_id", str), ("question", str)):
        if not isinstance(obj.get(key), typ):
            raise MalformedLine(line_no, f"missing or invalid field {key!r}")
    answers = obj.get("answers", [])
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise MalformedLine(line_no, "answers must be a list of strings")
    annotations = obj.get("annotations", {})
    if not isinstance(annotations, dict):
        raise MalformedLine(line_no, "annotations must be an object")
    return InstructionRecord(record_id=obj["record_id"], page_id=obj["page_id"],
                             question=obj["question"], answers=list(answers),
                             annotations=annotations)


def record_to_dict(rec: InstructionRecord) -> dict[str, Any]:
    out: dict[str, Any] = {
        "record_id": rec.record_id,
        "page_id": rec.page_id,
        "question": rec.question,
        "answers": rec.answers,
    }
    if rec.annotations:
        out["annotations"] = rec.annotations
    return out


def dumps_json(obj: Any) -> str:
    """Canonical JSON used for every artifact this package writes."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


# ---------------------------------------------------------------------------
# file I/O


def load_page(path: Path | str) -> DocumentPage:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read page file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"page file {path} is not valid JSON: {exc}") from exc
    page = _page_from_dict(obj, str(path))
    page, changed = clamp_page(page)
    if changed:
        log.warning("page %s: clamped %d out-of-bounds boxes", page.page_id, changed)
    return page


def load_pages_dir(pages_dir: Path | str) -> dict[str, DocumentPage]:
    """Load every ``*.json`` page file in a directory, keyed by page_id."""
    pages_dir = Path(pages_dir)
    pages: dict[str, DocumentPage] = {}
    for path in sorted(pages_dir.glob("*.json")):
        page = load_page(path)
        pages[page.page_id] = page
    return pages


def _resolve_paths(path: Path | str, pages_dir: Path | str | None) -> tuple[Path, Path]:
    path = Path(path)
    if path.is_dir():
        return path / "records.jsonl", Path(pages_dir) if pages_dir else path / "pages"
    return path, Path(pages_dir) if pages_dir else path.parent / "pages"


def load_dataset(path: Path | str, pages_dir: Path | str | None = None) -> Dataset:
    """Load records (order preserved) and every page they reference; a
    record_id that repeats is a :class:`MalformedLine`."""
    records_path, pages_root = _resolve_paths(path, pages_dir)
    if not records_path.exists():
        raise IoFailure(f"no record file at {records_path}")
    records: list[InstructionRecord] = []
    pages: dict[str, DocumentPage] = {}
    first_line: dict[str, int] = {}
    with records_path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_no, str(exc)) from exc
            rec = _record_from_dict(obj, line_no)
            if rec.record_id in first_line:
                raise MalformedLine(line_no, f"duplicate record_id {rec.record_id!r} "
                                             f"(first on line {first_line[rec.record_id]})")
            first_line[rec.record_id] = line_no
            records.append(rec)
            if rec.page_id not in pages:
                page_path = pages_root / f"{rec.page_id}.json"
                if not page_path.exists():
                    raise MissingPage(rec.page_id)
                pages[rec.page_id] = load_page(page_path)
    return Dataset(records=records, pages=pages)


def atomic_write_text(path: Path, text: str | Iterable[str],
                      name: Callable[[str], str] | None = None) -> Path:
    """Write UTF-8 text so that readers see the old file or the whole new one;
    returns the path written.

    ``text`` may be an iterable of chunks, which are encoded and written one
    at a time, so the whole text never sits in memory. With ``name``, the
    file is written next to ``path`` under ``name(digest)``, where digest is
    the SHA-256 hex digest of its bytes. Each writer gets its own temp name
    (pid and thread id), so concurrent writers of one path never rename each
    other's temp file away; the last rename wins.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        if name is not None:
            path = path.with_name(name(digest.hexdigest()))
        tmp.replace(path)
    except BaseException as exc:
        # also when a chunk fails to encode or its producer raises
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise
    return path


_SAFE_PAGE_ID = re.compile(r"^[\w.-]+$")


def write_page(page: DocumentPage, path: Path | str) -> None:
    atomic_write_text(Path(path), dumps_json(_page_to_dict(page)) + "\n")


def write_dataset(dataset: Dataset, path: Path | str, pages_dir: Path | str | None = None) -> None:
    """Write records and page files so that a reload compares equal."""
    records_path, pages_root = _resolve_paths(path, pages_dir)
    try:
        records_path.parent.mkdir(parents=True, exist_ok=True)
        pages_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create dataset directories: {exc}") from exc
    lines = [dumps_json(record_to_dict(r)) for r in dataset.records]
    atomic_write_text(records_path, "\n".join(lines) + ("\n" if lines else ""))
    for page in dataset.pages.values():
        if not _SAFE_PAGE_ID.match(page.page_id):
            raise IoFailure(f"page_id {page.page_id!r} is not filesystem-safe")
        write_page(page, pages_root / f"{page.page_id}.json")
