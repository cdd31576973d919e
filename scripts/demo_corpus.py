"""Synthetic corpus generation and the dataset writer: seeded random pages and
instruction records for the demo and the tests, written as the record file
and page files that ``proctag.ingest`` reads.

No command runs this module; ``make_demo_dataset.py`` imports it as a sibling
module, and the tests through a ``sys.path`` entry in ``tests/conftest.py``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from proctag.ingest import (_SAFE_PAGE_ID, BoundingBox, Dataset, DocumentPage,
                            InstructionRecord, IoFailure, LayoutRegion, OcrToken,
                            _resolve_paths, atomic_write_text, dumps_json)

REGION_KINDS = ("title", "paragraph", "table", "list", "header", "footer", "figure")

_WORDS = (
    "total", "invoice", "amount", "date", "name", "address", "summary", "report",
    "item", "quantity", "price", "tax", "balance", "due", "account", "number",
    "city", "phone", "order", "status", "code", "unit", "net", "gross",
)

_QUESTION_TEMPLATES = (
    "What is the {word} shown in the {kind}?",
    "Which {word} appears first on the page?",
    "How many {word} entries does the {kind} contain?",
    "What value is listed next to {word}?",
)


def random_page(rng: random.Random, page_id: str, *,
                width: float = 1000.0, height: float = 1400.0,
                max_tokens: int = 30, max_regions: int = 6,
                duplicate_region_rate: float = 0.2) -> DocumentPage:
    """A page with row-structured tokens and (possibly overlapping) regions."""
    tokens: list[OcrToken] = []
    n_tokens = rng.randint(1, max_tokens)
    y = rng.uniform(10, 60)
    row_h = rng.uniform(14, 30)
    x = rng.uniform(0, 100)
    for _ in range(n_tokens):
        text = rng.choice(_WORDS) + (str(rng.randint(0, 99)) if rng.random() < 0.3 else "")
        w = len(text) * rng.uniform(6, 12)
        if x + w > width - 10 or rng.random() < 0.2:
            y += row_h * rng.uniform(1.0, 2.5)
            x = rng.uniform(0, 100)
        if y + row_h > height - 10:
            y = rng.uniform(10, 60)
        jitter = rng.uniform(-0.2, 0.2) * row_h
        tokens.append(OcrToken(
            text=text,
            bbox=BoundingBox(round(x, 2), round(max(0.0, y + jitter), 2),
                             round(min(width, x + w), 2),
                             round(min(height, y + jitter + row_h), 2)),
            confidence=round(rng.uniform(0.5, 1.0), 3),
        ))
        x += w + rng.uniform(8, 60)
    regions: list[LayoutRegion] = []
    for _ in range(rng.randint(0, max_regions)):
        x0 = rng.uniform(0, width * 0.6)
        y0 = rng.uniform(0, height * 0.7)
        region = LayoutRegion(
            kind=rng.choice(REGION_KINDS),
            bbox=BoundingBox(round(x0, 2), round(y0, 2),
                             round(x0 + rng.uniform(80, width - x0), 2),
                             round(y0 + rng.uniform(40, height - y0), 2)),
            score=round(rng.uniform(0.3, 1.0), 3),
        )
        regions.append(region)
        if rng.random() < duplicate_region_rate:
            # near-duplicate detection output, to give suppression work to do
            b = region.bbox
            regions.append(LayoutRegion(
                kind=region.kind,
                bbox=BoundingBox(round(b.x0 + rng.uniform(0, 4), 2),
                                 round(b.y0 + rng.uniform(0, 4), 2),
                                 round(min(width, b.x1 + rng.uniform(0, 4)), 2),
                                 round(min(height, b.y1 + rng.uniform(0, 4)), 2)),
                score=round(max(0.0, (region.score or 0.5) - rng.uniform(0.05, 0.2)), 3),
            ))
    return DocumentPage(page_id=page_id, width=width, height=height,
                        tokens=tokens, regions=regions,
                        meta={"token_granularity": "word"})


def random_question(rng: random.Random) -> str:
    return rng.choice(_QUESTION_TEMPLATES).format(word=rng.choice(_WORDS),
                                                  kind=rng.choice(REGION_KINDS))


def make_dataset(seed: int, n_pages: int, records_per_page: int) -> Dataset:
    """Deterministic synthetic dataset keyed entirely by the seed."""
    rng = random.Random(seed)
    pages: dict[str, DocumentPage] = {}
    records: list[InstructionRecord] = []
    idx = 0
    for p in range(n_pages):
        page_id = f"p{p:04d}"
        pages[page_id] = random_page(rng, page_id)
        for _ in range(records_per_page):
            records.append(InstructionRecord(
                record_id=f"r{idx:05d}",
                page_id=page_id,
                question=random_question(rng),
                answers=[rng.choice(_WORDS)],
            ))
            idx += 1
    return Dataset(records=records, pages=pages)


# ---------------------------------------------------------------------------
# the writer


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
        if not _SAFE_PAGE_ID.fullmatch(page.page_id):
            raise IoFailure(f"page_id {page.page_id!r} is not filesystem-safe")
        write_page(page, pages_root / f"{page.page_id}.json")
