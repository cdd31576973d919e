"""Structural cleanup of a page: overlap suppression, reading order, and
token-to-region association.

Reading order groups items into rows (connected components of the pairwise
"same row" relation: vertical-center difference <= tolerance_factor * the
smaller height), orders rows top-to-bottom by minimum vertical center, and
orders items within a row left-to-right by x0. All functions are pure and
deterministic.

Every kernel runs in plain Python on tuples read once from the boxes.
Suppression in particular needs no array library: a page holds only a
handful of regions (3.5 on average, and never more than 12, in the
benchmark's pages), too few to pay back even numpy's import, which every
forked render worker would otherwise make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence, TypeVar

from .ingest import BoundingBox, DocumentPage, LayoutRegion, OcrToken

DEFAULT_NMS_IOU = 0.5
DEFAULT_ROW_TOLERANCE = 0.5

CONTAINED = "contained"
NEAREST = "nearest"

T = TypeVar("T")


def reading_rows(items: Sequence[T], *,
                 tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> list[list[T]]:
    """Partition items, each with a ``bbox``, into reading-order rows (see
    module docstring)."""
    n = len(items)
    # one (yc, x0, index, height, item) per item: sorting these compares
    # (yc, x0, index) alone, as index is unique
    recs = []
    for i, it in enumerate(items):
        b = it.bbox
        recs.append(((b.y0 + b.y1) / 2, b.x0, i, b.y1 - b.y0, it))
    by_yc = sorted(recs)

    # union-find over item indices: item i and a later j in yc order share a
    # row iff dy <= tolerance_factor * min(h_i, h_j)
    parent = list(range(n))
    for a in range(n):
        yc_i, _, i, h_i, _ = by_yc[a]
        tol_i = tolerance_factor * h_i
        for b in range(a + 1, n):
            yc_j, _, j, h_j, _ = by_yc[b]
            dy = yc_j - yc_i
            if dy > tol_i:
                break  # yc is sorted; no later j can be in i's row
            # min(h_i, h_j) is h_j only if h_j < h_i, NaN included
            if dy <= (tolerance_factor * h_j if h_j < h_i else tol_i):
                ri, rj = i, j
                while parent[ri] != ri:
                    parent[ri] = parent[parent[ri]]
                    ri = parent[ri]
                while parent[rj] != rj:
                    parent[rj] = parent[parent[rj]]
                    rj = parent[rj]
                if ri != rj:
                    parent[rj] = ri

    # per row, in order of its first item: [min yc, min x0, first index,
    # its items as (x0, yc, index, item)], each minimum taken in index order
    # as min() takes it; a row sorts on its first three, an item on its first
    # three, as index is unique
    rows: dict[int, list] = {}
    for yc, x0, i, _, it in recs:
        r = i
        while parent[r] != r:
            r = parent[r]
        row = rows.get(r)
        if row is None:
            rows[r] = [yc, x0, i, [(x0, yc, i, it)]]
            continue
        if yc < row[0]:
            row[0] = yc
        if x0 < row[1]:
            row[1] = x0
        row[3].append((x0, yc, i, it))
    return [[t[3] for t in sorted(members)] for _, _, _, members in sorted(rows.values())]


def reading_order(items: Sequence[T], *,
                  tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> list[T]:
    return [it for row in reading_rows(items, tolerance_factor=tolerance_factor) for it in row]


def _effective_score(region: LayoutRegion) -> float:
    # detector score when present, otherwise area: favors the more complete duplicate
    return region.score if region.score is not None else region.bbox.area


def nms(regions: Sequence[LayoutRegion], iou_threshold: float = DEFAULT_NMS_IOU) -> list[LayoutRegion]:
    """Greedy score-descending suppression; survivors (pairwise IoU <= threshold)
    are returned in pick order with their original field values.

    IoU is computed in floats; an inverted box overlaps nothing. A NaN IoU,
    from a NaN coordinate or from an infinite one that leaves the
    intersection or union undefined, suppresses nothing.
    """
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    order = [k for _, k in sorted((-_effective_score(r), k) for k, r in enumerate(regions))]
    # (x0, y0, x1, y1, area) of each region in pick order; a NaN coordinate
    # makes the area NaN, and with it every union the box is part of
    boxes = []
    for k in order:
        x0, y0, x1, y1 = map(float, regions[k].bbox.as_list())
        boxes.append((x0, y0, x1, y1, (x1 - x0) * (y1 - y0)))
    suppressed = [False] * len(boxes)
    keep: list[LayoutRegion] = []
    for a, (x0, y0, x1, y1, area) in enumerate(boxes):
        if suppressed[a]:
            continue
        keep.append(regions[order[a]])
        for b in range(a + 1, len(boxes)):
            if suppressed[b]:
                continue
            bx0, by0, bx1, by1, b_area = boxes[b]
            iw = (x1 if x1 < bx1 else bx1) - (x0 if x0 > bx0 else bx0)
            ih = (y1 if y1 < by1 else by1) - (y0 if y0 > by0 else by0)
            if iw > 0 and ih > 0:
                inter = iw * ih
                union = area + b_area - inter
                if union > 0 and inter / union > iou_threshold:
                    suppressed[b] = True
    return keep


def clean_inputs(page: DocumentPage, *,
                 nms_iou_threshold: float = DEFAULT_NMS_IOU,
                 row_tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> DocumentPage:
    """A copy of the page with duplicate regions suppressed and its regions
    and tokens in reading order. No token is ever dropped."""
    regions = reading_order(nms(page.regions, nms_iou_threshold),
                            tolerance_factor=row_tolerance_factor)
    tokens = reading_order(page.tokens, tolerance_factor=row_tolerance_factor)
    return replace(page, tokens=tokens, regions=regions)


@dataclass
class AssociatedBlock:
    """One region plus the reading-ordered tokens assigned to it."""

    region: LayoutRegion
    tokens: list[OcrToken] = field(default_factory=list)
    assignment_kinds: list[str] = field(default_factory=list)


def associate(cleaned: DocumentPage) -> list[AssociatedBlock]:
    """Assign every token of a cleaned page (see :func:`clean_inputs`) to
    exactly one region block.

    A token whose box center lies inside a region is flagged ``contained``
    (nearest center wins if several regions contain it); otherwise it goes to
    the region with the smallest center-to-center distance, flagged
    ``nearest``. Distance ties go to the earlier region in reading order.
    Blocks follow region reading order and empty blocks are retained. A page
    with no regions gets one synthetic full-page block of kind ``page``.
    """
    if cleaned.regions:
        regions = list(cleaned.regions)
    else:
        regions = [LayoutRegion(kind="page",
                                bbox=BoundingBox(0, 0, cleaned.width, cleaned.height))]
    blocks = [AssociatedBlock(region=r) for r in regions]
    # (x0, y0, x1, y1, center x, center y) of each region, read once
    geometry = [(b.x0, b.y0, b.x1, b.y1, (b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2)
                for b in (r.bbox for r in regions)]
    for tok in cleaned.tokens:
        tb = tok.bbox
        cx, cy = (tb.x0 + tb.x1) / 2, (tb.y0 + tb.y1) / 2
        # the first region with the smallest distance among those containing
        # the center, or among all if none does; a later one replaces it only
        # if strictly nearer, so a NaN distance found first is kept
        best, best_d, inside = -1, 0.0, False
        for i, (x0, y0, x1, y1, rx, ry) in enumerate(geometry):
            contains = x0 <= cx <= x1 and y0 <= cy <= y1
            if inside and not contains:
                continue
            d = math.hypot(cx - rx, cy - ry)
            if contains > inside or best < 0 or d < best_d:
                best, best_d, inside = i, d, contains
        blocks[best].tokens.append(tok)
        blocks[best].assignment_kinds.append(CONTAINED if inside else NEAREST)
    return blocks
