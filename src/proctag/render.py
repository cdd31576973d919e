"""Prompt-text renderers for a page: plain text, space-quantized spatial
layout, and the layout-tagged variant that wraps each associated block in
``[kind]`` / ``[/kind]`` lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import ProcTagError
from .ingest import DocumentPage, OcrToken
from .layout import DEFAULT_ROW_TOLERANCE, AssociatedBlock, reading_rows

PLAINTEXT = "plaintext"
SPATIAL = "spatial"
DOCLAYPROMPT = "doclayprompt"
STYLES = (PLAINTEXT, SPATIAL, DOCLAYPROMPT)

TRUNCATION_MARKER = "[truncated]"

# used when per-character width cannot be estimated from the tokens
FALLBACK_COLUMNS = 80


class NoTokens(ProcTagError):
    """The page has no OCR tokens to estimate from."""


@dataclass
class DocumentRepresentation:
    """Rendered prompt text for one page."""

    page_id: str
    style: str
    text: str
    char_cell_width: float
    token_count: int

    def to_dict(self) -> dict[str, Any]:
        return {"page_id": self.page_id, "style": self.style, "text": self.text,
                "char_cell_width": self.char_cell_width, "token_count": self.token_count}

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "DocumentRepresentation":
        """The representation ``to_dict`` wrote; a TypeError if a field's type differs."""
        rep = cls(page_id=obj["page_id"], style=obj["style"], text=obj["text"],
                  char_cell_width=obj["char_cell_width"], token_count=obj["token_count"])
        if not (type(rep.page_id) is type(rep.style) is type(rep.text) is str
                and type(rep.char_cell_width) in (int, float) and type(rep.token_count) is int):
            raise TypeError(f"a field of page {rep.page_id!r} has the wrong type")
        return rep


def _median(values: list[float]) -> float:
    """The middle of the sorted values, or the mean of the middle two, as
    ``statistics.median`` gives it; ``values`` is not empty."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def estimate_char_cell(page: DocumentPage) -> float:
    """Median per-character pixel width over the page's tokens."""
    if not page.tokens:
        raise NoTokens(page.page_id)
    return _median([t.bbox.width / max(1, len(t.text)) for t in page.tokens])


def _cell_or_fallback(page: DocumentPage) -> float:
    cell = estimate_char_cell(page) if page.tokens else 0.0
    if cell <= 0:
        cell = page.width / FALLBACK_COLUMNS if page.width > 0 else 1.0
    return cell


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _spatial_lines(tokens: list[OcrToken], cell_width: float, *,
                   origin_x: float = 0.0,
                   row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> list[tuple[str, int]]:
    """Render tokens as (line, token_count) pairs.

    Leading and inter-token runs of spaces quantize the horizontal gaps by
    ``cell_width`` (at least one space between same-row tokens); a vertical
    gap larger than the median row height inserts one blank line.
    """
    rows = reading_rows(tokens, tolerance_factor=row_tolerance_factor)
    if not rows:
        return []
    spans = [(min(t.bbox.y0 for t in row), max(t.bbox.y1 for t in row)) for row in rows]
    median_h = _median([bottom - top for top, bottom in spans])
    lines: list[tuple[str, int]] = []
    prev_bottom: float | None = None
    for row, (top, bottom) in zip(rows, spans):
        if prev_bottom is not None and median_h > 0 and (top - prev_bottom) > median_h:
            lines.append(("", 0))
        parts: list[str] = []
        prev_x1 = origin_x
        for pos, tok in enumerate(row):
            b = tok.bbox
            gap = b.x0 - prev_x1
            if pos == 0:
                nspaces = max(0, _round_half_up(max(0.0, gap) / cell_width))
            else:
                nspaces = max(1, _round_half_up(gap / cell_width))
            parts.append(" " * nspaces + tok.text)
            prev_x1 = b.x1
        lines.append(("".join(parts), len(row)))
        prev_bottom = bottom
    return lines


def _truncate(chunks: list[tuple[str, int]], max_chars: int | None,
              sep: str = "\n") -> tuple[str, int]:
    """Join (text, token_count) chunks, cutting at chunk boundaries when the
    result would exceed max_chars, and appending the truncation marker."""
    full = sep.join(c for c, _ in chunks)
    if max_chars is None or len(full) <= max_chars:
        return full, sum(n for _, n in chunks)
    kept: list[str] = []
    count = 0
    length = 0
    budget = max_chars - (len(sep) + len(TRUNCATION_MARKER))
    for text, n in chunks:
        added = len(text) if not kept else len(sep) + len(text)
        if length + added > budget:
            break
        kept.append(text)
        length += added
        count += n
    kept.append(TRUNCATION_MARKER)
    return sep.join(kept), count


def render_plaintext(page: DocumentPage, *, max_chars: int | None = None,
                     row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> DocumentRepresentation:
    """Reading-ordered token texts, single spaces within a row, one row per line."""
    rows = reading_rows(page.tokens, tolerance_factor=row_tolerance_factor)
    chunks = [(" ".join(t.text for t in row), len(row)) for row in rows]
    text, count = _truncate(chunks, max_chars)
    return DocumentRepresentation(page_id=page.page_id, style=PLAINTEXT, text=text,
                                  char_cell_width=_cell_or_fallback(page), token_count=count)


def render_spatial(page: DocumentPage, *, max_chars: int | None = None,
                   row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> DocumentRepresentation:
    """Layout reconstructed purely with spaces and line breaks."""
    cell = _cell_or_fallback(page)
    chunks = _spatial_lines(page.tokens, cell, origin_x=0.0,
                            row_tolerance_factor=row_tolerance_factor)
    text, count = _truncate(chunks, max_chars)
    return DocumentRepresentation(page_id=page.page_id, style=SPATIAL, text=text,
                                  char_cell_width=cell, token_count=count)


def render_doclayprompt(blocks: list[AssociatedBlock], page: DocumentPage, *,
                        max_chars: int | None = None,
                        row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> DocumentRepresentation:
    """Blocks in reading order, each non-empty block wrapped in layout-type
    tags with its tokens rendered spatially (columns relative to the block's
    leftmost token). Empty blocks emit nothing."""
    cell = _cell_or_fallback(page)
    sections: list[tuple[str, int]] = []
    for block in blocks:
        if not block.tokens:
            continue
        origin = min(t.bbox.x0 for t in block.tokens)
        lines = _spatial_lines(block.tokens, cell, origin_x=origin,
                               row_tolerance_factor=row_tolerance_factor)
        body = "\n".join(line for line, _ in lines)
        section = f"[{block.region.kind}]\n{body}\n[/{block.region.kind}]"
        sections.append((section, sum(n for _, n in lines)))
    text, count = _truncate(sections, max_chars)
    return DocumentRepresentation(page_id=page.page_id, style=DOCLAYPROMPT, text=text,
                                  char_cell_width=cell, token_count=count)
