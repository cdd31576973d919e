"""Reading datasets and pages: line-delimited records with sidecar page files.

A dataset is a UTF-8 JSONL file with one instruction record per line, plus a
pages directory holding one JSON file per referenced page
(``<pages_dir>/<page_id>.json``, by default ``pages/`` beside the record
file). A page id is word characters, ``.`` and ``-`` only, so it names a file
in that directory. :func:`load_page` reads a page file in one pass, and is
the only place a page is judged: it checks each value's type, clamps each box
into the page as it builds it (one logged warning per page counts the boxes
that changed), and refuses a file holding another page's id. A record's
annotations may nest at most :data:`MAX_NESTING` levels deep. Every JSON
file and line the package reads is decoded by :func:`decode`. The readers
refuse a string that no writer can encode: a lone surrogate, which only a
``\\u`` escape can produce.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import ProcTagError

log = logging.getLogger(__name__)


class IoFailure(ProcTagError):
    """Reading or writing a dataset file failed."""


class MalformedLine(IoFailure):
    """A line of a JSONL file is not JSON, or not the value its reader takes."""

    def __init__(self, path: Path | str, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}, line {line_no}: {reason}")


class MissingPage(ProcTagError):
    """A record references a page with no page file (``path``, the file
    looked for) or no representation."""

    def __init__(self, page_id: str, path: Path | str | None = None):
        self.page_id = page_id
        super().__init__(f"record references unknown page {page_id!r}"
                         + (f": no page file {path}" if path is not None else ""))


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


# ---------------------------------------------------------------------------
# (de)serialization


# the types json.loads gives a number (a bool is not one)
_NUMBER = frozenset((int, float))


def _items(values: list, at: str, label: str, extra: str, make: Callable,
           width: float, height: float) -> tuple[list, int]:
    """``make(label, bbox, extra)`` of each item of the ``tokens`` or ``regions``
    list at ``at``, its box clamped into [0, width] x [0, height], and how many
    boxes the clamp changed; the ValueError of :func:`invalid` names its first
    bad field. A NaN coordinate stays, as the same object, so a box that
    differs only by NaNs is not counted."""
    out = []
    changed = 0
    for i, item in enumerate(values):
        if type(item) is not dict:
            raise invalid(f"{at}[{i}]")
        text, bbox, number = item.get(label), item.get("bbox"), item.get(extra)
        if type(text) is not str:
            raise invalid(f"{at}[{i}].{label}")
        if type(bbox) is not list or len(bbox) != 4:
            raise invalid(f"{at}[{i}].bbox")
        x0, y0, x1, y1 = bbox
        if not (type(x0) in _NUMBER and type(y0) in _NUMBER and type(x1) in _NUMBER
                and type(y1) in _NUMBER):
            raise invalid(f"{at}[{i}].bbox")
        if number is not None and type(number) not in _NUMBER:
            raise invalid(f"{at}[{i}].{extra}")
        if not (0 <= x0 <= width and 0 <= y0 <= height and 0 <= x1 <= width
                and 0 <= y1 <= height):
            box = (min(max(x0, 0), width), min(max(y0, 0), height),
                   min(max(x1, 0), width), min(max(y1, 0), height))
            if box != (x0, y0, x1, y1):
                changed += 1
            x0, y0, x1, y1 = box
        out.append(make(text, BoundingBox(x0, y0, x1, y1), number))
    return out, changed


def _page_from_dict(obj: Any, ctx: str) -> tuple[DocumentPage, int]:
    """The page of a page file's JSON value, its boxes clamped into it, and how
    many boxes the clamp changed; else an :class:`IoFailure` naming the file,
    ``ctx``, and the first bad field: the page's own, then each token's, then each region's."""
    if type(obj) is not dict:
        raise IoFailure(f"{ctx}: page is not a JSON object")
    try:
        page_id, width, height, tokens, regions, image_ref, meta = checked(
            {"tokens": [], "regions": [], "image_ref": None, "meta": {}, **obj}, "",
            page_id=str, width=(int, float), height=(int, float), tokens=list, regions=list,
            image_ref=(str, type(None)), meta=dict)
        tokens, clamped_tokens = _items(tokens, "tokens", "text", "confidence", OcrToken,
                                        width, height)
        regions, clamped_regions = _items(regions, "regions", "kind", "score", LayoutRegion,
                                          width, height)
    except ValueError as exc:  # the ValueError of invalid
        raise IoFailure(f"{ctx}: {exc}") from None
    return (DocumentPage(page_id, width, height, tokens, regions, image_ref, meta),
            clamped_tokens + clamped_regions)


def invalid(field: str) -> ValueError:
    """How a row function of :func:`read_jsonl` refuses a line whose ``field``,
    a dotted path such as ``steps[0].index``, is missing or has the wrong type."""
    return ValueError(f"missing or invalid field {field!r}")


def checked(obj: Any, at: str, **kinds: Any) -> list[Any]:
    """The values of the fields of ``obj`` named in ``kinds``, in order; else
    the ValueError of :func:`invalid` for the first that is missing or not of
    its kind: a type, a tuple of types, or ``list[str]``. ``at`` is the
    dotted path of ``obj``, empty for the object of a line."""
    if type(obj) is not dict:
        raise invalid(at)
    values = [obj.get(name, checked) for name in kinds]  # checked: a missing field
    for (name, kind), value in zip(kinds.items(), values):
        if not (type(value) is kind or type(kind) is tuple and type(value) in kind or
                kind == list[str] and type(value) is list and {str}.issuperset(map(type, value))):
            raise invalid(f"{at}.{name}" if at else name)
    return values


# a page id names its page file, <pages_dir>/<page_id>.json: no path separator
_SAFE_PAGE_ID = re.compile(r"[\w.-]+")


# how many levels a record's annotations may nest, the annotations object
# being the first: far below the thousand or so at which the writers'
# recursive JSON encoder runs out of stack, a depth that shifts with how deep
# the stack already is (deeper in a forked worker)
MAX_NESTING = 100


def _too_deep(value: dict | list) -> bool:
    """Whether lists and objects nest more than :data:`MAX_NESTING` levels
    deep in ``value``, itself the first; walked level by level, not recursively."""
    level = [value]
    for _ in range(MAX_NESTING):
        level = [item for container in level
                 for item in (container.values() if type(container) is dict else container)
                 if type(item) is dict or type(item) is list]
        if not level:
            return False
    return True


def _record_from_dict(obj: dict[str, Any]) -> InstructionRecord:
    record_id, page_id, question = obj.get("record_id"), obj.get("page_id"), obj.get("question")
    if not isinstance(record_id, str):
        raise invalid("record_id")
    if not (isinstance(page_id, str) and _SAFE_PAGE_ID.fullmatch(page_id)):
        raise invalid("page_id")
    if not isinstance(question, str):
        raise invalid("question")
    answers = obj.get("answers", [])
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise invalid("answers")
    annotations = obj.get("annotations", {})
    if not isinstance(annotations, dict) or annotations and _too_deep(annotations):
        raise invalid("annotations")
    return InstructionRecord(record_id, page_id, question, list(answers), annotations)


def dumps_json(obj: Any) -> str:
    """Canonical JSON used for every artifact this package writes."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


# ---------------------------------------------------------------------------
# file I/O


_raw_decode = json.JSONDecoder().raw_decode
_SURROGATE = re.compile("[\ud800-\udfff]")


def unencodable(value: Any) -> str | None:
    """Why no writer could encode a decoded JSON value again, or None: a
    string of it, a key included, holds a lone surrogate, which only a ``\\u``
    escape decodes to and UTF-8 cannot encode. Walked without recursion."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is str:
            found = _SURROGATE.search(value)
            if found:
                return f"holds the lone surrogate {found.group()!r}, which UTF-8 cannot encode"
        elif type(value) is dict:
            stack.extend(value)
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
    return None


def decode(text: str) -> Any:
    """The JSON value of ``text``. A text this package wrote is one value and
    at most a newline, which the decoder reads without ``json.loads``'
    whitespace scans; any other text goes through ``json.loads`` and raises
    its errors: a ValueError, or a RecursionError for a value nested too deep."""
    try:
        value, end = _raw_decode(text)
        if text[end:] in ("\n", ""):
            return value
    except (ValueError, RecursionError):
        pass
    return json.loads(text)


def read_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """The number and text of each line of a UTF-8 file, split on "\\n" alone
    (not at U+2028, U+0085 and the like, which canonical JSON leaves
    unescaped in strings). A line that is not UTF-8 is a :class:`MalformedLine`."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"not UTF-8 ({exc})") from exc


def read_jsonl(path: Path | str, row: Callable[[Any], Any],
               key: str | None = None) -> Iterator[Any]:
    """``row(value)`` of each non-blank line's JSON value. A line that is not
    UTF-8, not JSON or :func:`unencodable`, that ``row`` refuses by raising a
    ValueError (its text is the reason) or, with ``key``, that is not an
    object or whose ``key`` is on an earlier line is a :class:`MalformedLine`;
    ``row`` must refuse an object without a string ``key``."""
    first_line: dict[Any, int] = {}
    for line_no, line in read_lines(path):
        try:
            value = decode(line)
        except (ValueError, RecursionError) as exc:
            if not line.strip():
                continue
            raise MalformedLine(path, line_no, f"not valid JSON ({exc})") from exc
        if "\\u" in line and (reason := unencodable(value)):
            raise MalformedLine(path, line_no, reason)
        if key is not None and type(value) is not dict:
            raise MalformedLine(path, line_no, "not an object")
        try:
            out = row(value)
        except ValueError as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc
        if key is not None and first_line.setdefault(value[key], line_no) != line_no:
            raise MalformedLine(path, line_no, f"repeated {key} {value[key]!r} "
                                               f"(first on line {first_line[value[key]]})")
        yield out


def read_json(path: Path, noun: str) -> Any:
    """The JSON document a file holds; a file that cannot be read, is not
    JSON, or holds a value that is :func:`unencodable` is an :class:`IoFailure`
    naming it as ``noun``."""
    try:
        text = path.read_text(encoding="utf-8")
        value = decode(text)
    except OSError as exc:
        raise IoFailure(f"cannot read {noun} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise IoFailure(f"{noun} {path} is not valid JSON: {exc}") from exc
    if "\\u" in text and (reason := unencodable(value)):
        raise IoFailure(f"{noun} {path} {reason}")
    return value


def load_page(path: Path | str, page_id: str) -> DocumentPage:
    """The page in ``page_id``'s page file ``path``, each box clamped into the
    page, with one warning if the clamp changed any. A file that cannot be read,
    is not a page, or holds another ``page_id`` is an :class:`IoFailure` naming it."""
    path = Path(path)
    page, clamped = _page_from_dict(read_json(path, "page file"), str(path))
    if clamped:
        log.warning("page %s: clamped %d out-of-bounds boxes", page.page_id, clamped)
    if page.page_id != page_id:
        raise IoFailure(f"page file {path} holds page_id {page.page_id!r}, not {page_id!r}")
    return page


def _resolve_paths(path: Path | str, pages_dir: Path | str | None) -> tuple[Path, Path]:
    path = Path(path)
    return path, Path(pages_dir) if pages_dir else path.parent / "pages"


def _records(records_path: Path) -> Iterator[InstructionRecord]:
    """Each record of a record file in order; a bad line or a record_id that
    repeats is a :class:`MalformedLine`."""
    if not records_path.is_file():
        raise IoFailure(f"no record file at {records_path}")
    return read_jsonl(records_path, _record_from_dict, key="record_id")


def read_records(path: Path | str) -> list[InstructionRecord]:
    """The records alone (order preserved), for a stage that reads no page."""
    return list(_records(Path(path)))


# the errors at which Path.exists calls a file absent, as it does a path the
# OS cannot take; it raises any other
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def load_records(path: Path | str, pages_dir: Path | str | None = None,
                 ) -> tuple[list[InstructionRecord], dict[str, Path]]:
    """Records (order preserved) and the page file of each page they
    reference, by page id in first-reference order. No page file is parsed;
    a record whose page has no file is a :class:`MissingPage`."""
    records_path, pages_root = _resolve_paths(path, pages_dir)
    root = str(pages_root)
    records: list[InstructionRecord] = []
    page_files: dict[str, Path] = {}
    for rec in _records(records_path):
        records.append(rec)
        if rec.page_id not in page_files:
            name = f"{rec.page_id}.json"
            # a stat of the string path: Path.exists costs three times as much
            try:
                os.stat(f"{root}/{name}")
            except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot take
                if isinstance(exc, OSError) and exc.errno not in _ABSENT:
                    raise
                raise MissingPage(rec.page_id, pages_root / name) from None
            page_files[rec.page_id] = pages_root / name
    return records, page_files


# no command calls load_dataset: outside the tests its one caller is
# perfbench/workloads.py's setup_replay, and it goes once ROADMAP item 2 moves
# that to read_records
def load_dataset(path: Path | str, pages_dir: Path | str | None = None) -> Dataset:
    """Load records (order preserved) and every page they reference."""
    records, page_files = load_records(path, pages_dir)
    return Dataset(records=records,
                   pages={page_id: load_page(page_path, page_id)
                          for page_id, page_path in page_files.items()})


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
