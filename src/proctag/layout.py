"""Structural cleanup of a page: overlap suppression, reading order, and
token-to-region association.

Reading order groups items into rows (connected components of the pairwise
"same row" relation: vertical-center difference <= tolerance_factor * the
smaller height), orders rows top-to-bottom by minimum vertical center, and
orders items within a row left-to-right by x0. All functions are pure and
deterministic.
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


def euclidean_center_distance(a: BoundingBox, b: BoundingBox) -> float:
    (ax, ay), (bx, by) = a.center, b.center
    return math.hypot(ax - bx, ay - by)


def reading_rows(items: Sequence[T], *,
                 tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> list[list[T]]:
    """Partition items, each with a ``bbox``, into reading-order rows (see
    module docstring)."""
    n = len(items)
    if n == 0:
        return []
    boxes = [it.bbox for it in items]
    yc = [(b.y0 + b.y1) / 2 for b in boxes]
    hh = [b.y1 - b.y0 for b in boxes]
    order = sorted(range(n), key=lambda i: (yc[i], boxes[i].x0, i))

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for a_pos in range(n):
        i = order[a_pos]
        for b_pos in range(a_pos + 1, n):
            j = order[b_pos]
            dy = yc[j] - yc[i]
            if dy > tolerance_factor * hh[i]:
                break  # yc is sorted; no later j can be in i's row
            if dy <= tolerance_factor * min(hh[i], hh[j]):
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    def row_key(members: list[int]):
        return (min(yc[i] for i in members),
                min(boxes[i].x0 for i in members),
                min(members))

    rows = sorted(groups.values(), key=row_key)
    return [[items[i] for i in sorted(members, key=lambda i: (boxes[i].x0, yc[i], i))]
            for members in rows]


def reading_order(items: Sequence[T], *,
                  tolerance_factor: float = DEFAULT_ROW_TOLERANCE) -> list[T]:
    return [it for row in reading_rows(items, tolerance_factor=tolerance_factor) for it in row]


def _effective_score(region: LayoutRegion) -> float:
    # detector score when present, otherwise area: favors the more complete duplicate
    return region.score if region.score is not None else region.bbox.area


def nms(regions: Sequence[LayoutRegion], iou_threshold: float = DEFAULT_NMS_IOU) -> list[LayoutRegion]:
    """Greedy score-descending suppression; survivors (pairwise IoU <= threshold)
    are returned in pick order with their original field values."""
    import numpy as np

    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if not regions:
        return []
    boxes = np.array([r.bbox.as_list() for r in regions], dtype=float)
    areas = np.maximum(boxes[:, 2] - boxes[:, 0], 0) * np.maximum(boxes[:, 3] - boxes[:, 1], 0)
    scores = [_effective_score(r) for r in regions]
    order = sorted(range(len(regions)), key=lambda k: (-scores[k], k))
    suppressed = np.zeros(len(regions), dtype=bool)
    keep: list[int] = []
    for k in order:
        if suppressed[k]:
            continue
        keep.append(k)
        ix0 = np.maximum(boxes[k, 0], boxes[:, 0])
        iy0 = np.maximum(boxes[k, 1], boxes[:, 1])
        ix1 = np.minimum(boxes[k, 2], boxes[:, 2])
        iy1 = np.minimum(boxes[k, 3], boxes[:, 3])
        inter = np.maximum(ix1 - ix0, 0) * np.maximum(iy1 - iy0, 0)
        union = areas[k] + areas - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            overlap = np.where(union > 0, inter / union, 0.0)
        suppressed |= overlap > iou_threshold
    return [regions[k] for k in keep]


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


def _contains_center(region: LayoutRegion, token: OcrToken) -> bool:
    cx, cy = token.bbox.center
    b = region.bbox
    return b.x0 <= cx <= b.x1 and b.y0 <= cy <= b.y1


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
    for tok in cleaned.tokens:
        containing = [i for i, r in enumerate(regions) if _contains_center(r, tok)]
        pool = containing if containing else range(len(regions))
        best = min(pool, key=lambda i: (euclidean_center_distance(tok.bbox, regions[i].bbox), i))
        blocks[best].tokens.append(tok)
        blocks[best].assignment_kinds.append(CONTAINED if containing else NEAREST)
    return blocks
