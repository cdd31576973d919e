"""Independent brute-force reference implementations used to cross-check the
package. These share contracts with the production code but not code paths:
plain-python scans, exhaustive search, and scipy distances."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import lru_cache
from json.encoder import encode_basestring
from itertools import chain, combinations
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

from conftest import write_stage
from proctag import procgen, tagnorm, tagparse
from proctag.cli import _jsonl
from proctag.config import PipelineConfig
from proctag.errors import ProcTagError
from proctag.ingest import (BoundingBox, DocumentPage, IoFailure, LayoutRegion, MalformedLine,
                            OcrToken, atomic_write_text, dumps_json, read_jsonl, read_lines,
                            record_to_dict)
from proctag.procgen import BackendError, GenerationBackend
from proctag.tagnorm import (DEFAULT_DBSCAN_EPS, DEFAULT_DBSCAN_MIN_PTS, DEFAULT_MIN_CONFIDENCE,
                             DEFAULT_MIN_SUPPORT, AdjacentPairStat, ClusterAssignment,
                             EmbeddingProvider, TagProfile, ZeroVector, dbscan,
                             default_min_count, merge_name)
from proctag.tagparse import collapse_adjacent

if TYPE_CHECKING:
    import requests


# ---------------------------------------------------------------------------
# geometry


def clamp_page_reference(page):
    """Rebuild every box clamped into [0,width]x[0,height], then return the
    page itself if none changed; returns (page, boxes changed)."""

    def _clamp(v, lo, hi):
        return min(max(v, lo), hi)

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


def page_from_dict_passes(obj, ctx):
    """A page file's JSON value as a page, parsed as before the one-pass
    parse: build every item, then check each field's type in its own pass.
    The one-pass parse must give the same page, or refuse the value too."""
    number = frozenset((int, float))

    def bbox_from(value):
        if not (isinstance(value, (list, tuple)) and len(value) == 4
                and number.issuperset(map(type, value))):
            raise IoFailure(f"{ctx}: bbox must be a list of 4 numbers, got {value!r}")
        return BoundingBox(*value)

    def require_types(noun, items, field_name, allowed, expected):
        values = [getattr(item, field_name) for item in items]
        if not allowed.issuperset(map(type, values)):
            i = next(i for i, v in enumerate(values) if type(v) not in allowed)
            raise IoFailure(f"{ctx}: {noun} {i}: {field_name} must be {expected}, "
                            f"got {values[i]!r}")

    if not isinstance(obj, dict):
        raise IoFailure(f"{ctx}: page is not a JSON object")
    if not number.issuperset((type(obj.get("width")), type(obj.get("height")))):
        raise IoFailure(f"{ctx}: page width and height must be numbers")
    if not type(obj.get("tokens", [])) is type(obj.get("regions", [])) is list:
        raise IoFailure(f"{ctx}: tokens and regions must be lists")
    try:
        tokens = [OcrToken(text=t["text"], bbox=bbox_from(t["bbox"]),
                           confidence=t.get("confidence"))
                  for t in obj.get("tokens", [])]
        regions = [LayoutRegion(kind=r["kind"], bbox=bbox_from(r["bbox"]),
                                score=r.get("score"))
                   for r in obj.get("regions", [])]
        page = DocumentPage(page_id=obj["page_id"], width=obj["width"], height=obj["height"],
                            tokens=tokens, regions=regions,
                            image_ref=obj.get("image_ref"), meta=obj.get("meta", {}))
    except (KeyError, TypeError) as exc:
        raise IoFailure(f"{ctx}: bad page structure ({exc})") from exc
    string, number_or_null = frozenset((str,)), number | {type(None)}
    require_types("token", tokens, "text", string, "a string")
    require_types("token", tokens, "confidence", number_or_null, "null or a number")
    require_types("region", regions, "kind", string, "a string")
    require_types("region", regions, "score", number_or_null, "null or a number")
    require_types("page", [page], "page_id", string, "a string")
    require_types("page", [page], "image_ref", string | {type(None)}, "null or a string")
    require_types("page", [page], "meta", frozenset((dict,)), "an object")
    return page


def nms_reference(regions, threshold):
    """O(n^2) greedy suppression: keep a candidate iff it overlaps no prior
    keeper by more than the threshold."""

    def area(b):
        return max(0.0, b.x1 - b.x0) * max(0.0, b.y1 - b.y0)

    def iou_ref(a, b):
        w = min(a.x1, b.x1) - max(a.x0, b.x0)
        h = min(a.y1, b.y1) - max(a.y0, b.y0)
        if w <= 0 or h <= 0:
            return 0.0
        inter = w * h
        union = area(a) + area(b) - inter
        return inter / union if union > 0 else 0.0

    def score(r):
        return r.score if r.score is not None else area(r.bbox)

    order = sorted(range(len(regions)), key=lambda k: (-score(regions[k]), k))
    kept: list[int] = []
    for k in order:
        if all(iou_ref(regions[k].bbox, regions[j].bbox) <= threshold for j in kept):
            kept.append(k)
    return [regions[k] for k in kept]


def reading_order_reference(items, tolerance_factor=0.5):
    """Rows as BFS connected components of the pairwise same-row relation,
    then the documented row and in-row sort keys."""
    n = len(items)
    boxes = [it.bbox for it in items]
    yc = [(b.y0 + b.y1) / 2 for b in boxes]
    hh = [b.y1 - b.y0 for b in boxes]
    adj = [[j for j in range(n)
            if j != i and abs(yc[i] - yc[j]) <= tolerance_factor * min(hh[i], hh[j])]
           for i in range(n)]
    seen = [False] * n
    comps: list[list[int]] = []
    for i in range(n):
        if seen[i]:
            continue
        queue = [i]
        seen[i] = True
        comp = []
        while queue:
            u = queue.pop(0)
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(comp)
    comps.sort(key=lambda c: (min(yc[i] for i in c), min(boxes[i].x0 for i in c), min(c)))
    out: list[int] = []
    for comp in comps:
        out.extend(sorted(comp, key=lambda i: (boxes[i].x0, yc[i], i)))
    return [items[i] for i in out]


def nearest_assignments_reference(tokens, regions):
    """Exhaustive containment/nearest scan. Returns (region_index, kind) per
    token; None when there are no regions."""
    out = []
    for tok in tokens:
        cx = (tok.bbox.x0 + tok.bbox.x1) / 2
        cy = (tok.bbox.y0 + tok.bbox.y1) / 2
        containing = [i for i, r in enumerate(regions)
                      if r.bbox.x0 <= cx <= r.bbox.x1 and r.bbox.y0 <= cy <= r.bbox.y1]

        def dist(i):
            rx = (regions[i].bbox.x0 + regions[i].bbox.x1) / 2
            ry = (regions[i].bbox.y0 + regions[i].bbox.y1) / 2
            return math.hypot(cx - rx, cy - ry)

        if containing:
            best = min(containing, key=lambda i: (dist(i), i))
            out.append((best, "contained"))
        elif regions:
            best = min(range(len(regions)), key=lambda i: (dist(i), i))
            out.append((best, "nearest"))
        else:
            out.append((None, None))
    return out


def center(b: BoundingBox) -> tuple[float, float]:
    return (b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between two box centers."""
    (ax, ay), (bx, by) = center(a), center(b)
    return math.hypot(ax - bx, ay - by)


# The layout kernels as they were before they were rewritten on plain
# tuples: the numpy suppression loop, the closure-based union-find and the
# per-token scan with a keyed min(). The rewritten kernels must return the
# same objects in the same order on every input, NaN and infinite
# coordinates included.


def nms_numpy(regions, iou_threshold=0.5):
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if not regions:
        return []
    boxes = np.array([r.bbox.as_list() for r in regions], dtype=float)
    scores = [r.score if r.score is not None else r.bbox.area for r in regions]
    order = sorted(range(len(regions)), key=lambda k: (-scores[k], k))
    suppressed = np.zeros(len(regions), dtype=bool)
    keep: list[int] = []
    # inf - inf and inf * 0 give NaN, which overlaps nothing; no warnings
    with np.errstate(all="ignore"):
        areas = (np.maximum(boxes[:, 2] - boxes[:, 0], 0)
                 * np.maximum(boxes[:, 3] - boxes[:, 1], 0))
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
            overlap = np.where(union > 0, inter / union, 0.0)
            suppressed |= overlap > iou_threshold
    return [regions[k] for k in keep]


def reading_rows_closures(items, tolerance_factor=0.5):
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
                break
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


def associate_scan(cleaned):
    """(region, tokens, assignment kinds) of each block."""
    if cleaned.regions:
        regions = list(cleaned.regions)
    else:
        regions = [LayoutRegion(kind="page",
                                bbox=BoundingBox(0, 0, cleaned.width, cleaned.height))]
    blocks = [(r, [], []) for r in regions]

    def contains_center(region, token):
        cx, cy = center(token.bbox)
        b = region.bbox
        return b.x0 <= cx <= b.x1 and b.y0 <= cy <= b.y1

    for tok in cleaned.tokens:
        containing = [i for i, r in enumerate(regions) if contains_center(r, tok)]
        pool = containing if containing else range(len(regions))
        best = min(pool, key=lambda i: (center_distance(tok.bbox, regions[i].bbox), i))
        blocks[best][1].append(tok)
        blocks[best][2].append("contained" if containing else "nearest")
    return blocks


# ---------------------------------------------------------------------------
# clustering


def dbscan_reference(vectors, eps, min_pts, frequencies=None):
    """Direct neighborhood expansion: core points from scipy cosine distances,
    clusters as connected components of the core graph in lexicographic
    discovery order, borders attached to the earliest-discovered cluster."""
    from scipy.spatial.distance import cdist

    tags = sorted(vectors)
    n = len(tags)
    if n == 0:
        return {}, {}
    mat = np.array([np.asarray(vectors[t], dtype=float) for t in tags])
    dist = cdist(mat, mat, metric="cosine")
    neigh = [set(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(n)]
    core = [i for i in range(n) if len(neigh[i]) >= min_pts]
    core_set = set(core)
    comp_of: dict[int, int] = {}
    n_comps = 0
    for c in core:
        if c in comp_of:
            continue
        stack = [c]
        comp_of[c] = n_comps
        while stack:
            u = stack.pop()
            for v in neigh[u]:
                if v in core_set and v not in comp_of:
                    comp_of[v] = n_comps
                    stack.append(v)
        n_comps += 1
    labels: dict[str, int | None] = {t: None for t in tags}
    for u, cid in comp_of.items():
        labels[tags[u]] = cid
    for i in range(n):
        if i in core_set:
            continue
        near_cores = [comp_of[v] for v in neigh[i] if v in core_set]
        if near_cores:
            labels[tags[i]] = min(near_cores)
    freq = frequencies or {}
    members: dict[int, list[str]] = {}
    for t, cid in labels.items():
        if cid is not None:
            members.setdefault(cid, []).append(t)
    representatives = {cid: min(ms, key=lambda t: (-freq.get(t, 0), t))
                       for cid, ms in members.items()}
    return labels, representatives


# ---------------------------------------------------------------------------
# strings and steps


def levenshtein_reference(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return go(len(a), len(b))


def levenshtein_dp(a: str, b: str) -> int:
    """The row-by-row O(|a|*|b|) DP that ``metrics.levenshtein`` replaced."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def chain_valid_reference(steps) -> bool:
    import re

    ident = re.compile(r"^[A-Za-z_]\w*$")
    defined = {"document"}
    for pos, step in enumerate(steps):
        if pos > 0:
            refs = [a for a in step.args if ident.match(a)]
            if not any(a in defined for a in refs):
                return False
        defined.add(step.output_var)
    return True


# ---------------------------------------------------------------------------
# tag statistics


def frequencies_reference(tag_lists) -> dict[str, int]:
    counts: Counter[str] = Counter()
    for tags in tag_lists:
        for t in tags:
            counts[t] += 1
    return dict(counts)


def adjacent_pairs_reference(tag_lists):
    """(support, confidence) per ordered pair via a plain sliding window;
    a tag list contributes at most one support unit per pair."""
    support: Counter[tuple[str, str]] = Counter()
    containing_first: Counter[str] = Counter()
    for tags in tag_lists:
        seen = set()
        for i in range(len(tags) - 1):
            seen.add((tags[i], tags[i + 1]))
        for pair in seen:
            support[pair] += 1
        for t in set(tags):
            containing_first[t] += 1
    return {pair: (s, s / containing_first[pair[0]]) for pair, s in support.items()}


# ---------------------------------------------------------------------------
# set cover


def min_cover_exhaustive(tagsets: list[set]) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest k with a full cover, plus every covering index combination of
    that size. The universe is the union of all sets."""
    universe: set = set()
    for s in tagsets:
        universe |= s
    if not universe:
        return 0, [()]
    for k in range(1, len(tagsets) + 1):
        covers = []
        for combo in combinations(range(len(tagsets)), k):
            u: set = set()
            for i in combo:
                u |= tagsets[i]
            if u >= universe:
                covers.append(combo)
        if covers:
            return k, covers
    return len(tagsets), []


def harmonic(d: int) -> float:
    return sum(1.0 / i for i in range(1, d + 1))


def selection_sequence_reference(profiles):
    """Budget-independent pick order by a full rescan per pick.

    Phase 1 greedily picks the record covering the most uncovered tags (ties:
    larger distinct-tag count, then smaller record_id) until no pick gains
    coverage. Phase 2 orders the rest by distinct-tag count descending, then
    record_id; records with empty profiles therefore come last.
    """
    tagsets = [set(p.tags) for p in profiles]
    remaining = list(range(len(profiles)))
    covered: set[str] = set()
    phase1: list[int] = []
    while remaining:
        best = None
        best_key = None
        for i in remaining:
            key = (-len(tagsets[i] - covered), -len(tagsets[i]), profiles[i].record_id)
            if best_key is None or key < best_key:
                best, best_key = i, key
        if not tagsets[best] - covered:
            break
        covered |= tagsets[best]
        phase1.append(best)
        remaining.remove(best)
    phase2 = sorted(remaining, key=lambda i: (-len(tagsets[i]), profiles[i].record_id))
    return [profiles[i] for i in phase1], [profiles[i] for i in phase2]


# the lazy greedy as it was before its heap keys were packed into one int;
# kept verbatim


def selection_sequence_tuple_keyed(profiles: list[TagProfile],
                                   ) -> tuple[list[TagProfile], list[TagProfile]]:
    """Budget-independent pick order.

    Phase 1 greedily picks the record covering the most uncovered tags (ties:
    larger distinct-tag count, then smaller record_id, then earlier input)
    until no pick gains coverage. Phase 2 orders the rest by distinct-tag
    count descending, then record_id; records with empty profiles therefore
    come last.

    Heap keys hold each record's gain as of its last evaluation. Gains only
    shrink, so a stale key never sorts after its fresh one: a top whose key
    is fresh is the true best, and a stale top is re-keyed and sifted down.
    """
    tagsets = [set(p.tags) for p in profiles]
    heap = [(-len(s), -len(s), p.record_id, i)
            for i, (p, s) in enumerate(zip(profiles, tagsets))]
    heapq.heapify(heap)
    covered: set[str] = set()
    phase1: list[int] = []
    while heap:
        neg_gain, neg_size, record_id, i = heap[0]
        fresh = -len(tagsets[i] - covered)
        if fresh != neg_gain:
            heapq.heapreplace(heap, (fresh, neg_size, record_id, i))
        elif not fresh:
            break
        else:
            heapq.heappop(heap)
            covered |= tagsets[i]
            phase1.append(i)
    # (-distinct-tag count, record_id, input index) of the unpicked records
    phase2 = [entry[3] for entry in sorted(heap, key=lambda entry: entry[1:])]
    return [profiles[i] for i in phase1], [profiles[i] for i in phase2]


# ---------------------------------------------------------------------------
# the JSONL reader as it was before canonical lines skipped json.loads


def read_jsonl_reference(path: Path) -> Iterator[dict[str, Any]]:
    # one line at a time, split on "\n" only: str.splitlines() also breaks at
    # U+2028, U+0085 and the like, which canonical JSON leaves unescaped
    # inside strings
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


# ---------------------------------------------------------------------------
# the profiles artifact, selection and assessment as they were before the
# artifact became four columns: a vocabulary line, then one
# [record_id, [tag indices]] line per record, read back into one TagProfile
# per record, on which selection and assessment ran; kept verbatim


def profiles_lines_rows(profiles: list[tagnorm.TagProfile]) -> Iterator[str]:
    """The ``profiles`` artifact of aggregated profiles: ``dumps_json`` of
    the vocabulary, their tags in order of first occurrence, then one
    ``dumps_json([record_id, [tag indices]])`` per profile, each line ending
    in a newline."""
    vocab = list(dict.fromkeys(chain.from_iterable(p.tags for p in profiles)))
    index = {tag: str(i) for i, tag in enumerate(vocab)}.__getitem__
    yield dumps_json(vocab) + "\n"
    for p in profiles:
        yield f'[{encode_basestring(p.record_id)}, [{", ".join(map(index, p.tags))}]]\n'


def read_profiles_rows(path: Path) -> list[tagnorm.TagProfile]:
    """The aggregated profiles in a ``profiles`` artifact, read by
    :func:`read_jsonl` as every line file is, so a blank line is skipped.
    An empty file, a first line that is not a list of strings, a row that is
    not ``[str, [int, ...]]``, a tag index that is a bool, negative or past
    the vocabulary, or a record_id on an earlier row is an :class:`IoFailure`
    naming the file and line."""
    profile = tagnorm.TagProfile
    vocab: list[str] | None = None

    def row(value: Any) -> tagnorm.TagProfile | None:
        nonlocal vocab
        if vocab is None:  # the first line
            if type(value) is not list or not set(map(type, value)) <= {str}:
                raise ValueError("the vocabulary is not a list of strings")
            vocab = value
            return None
        if type(value) is list and len(value) == 2:
            rid, indices = value
            if type(rid) is str and type(indices) is list and (
                    not indices or set(map(type, indices)) == {int}
                    and 0 <= min(indices) and max(indices) < len(vocab)):
                return profile(rid, [vocab[i] for i in indices])
        raise ValueError("not [record_id, [tag index, ...]] "
                         f"with every index in [0, {len(vocab)})")

    rows = read_jsonl(path, row)
    next(rows, None)  # the vocabulary line
    profiles = list(rows)
    if vocab is None:  # what the decoder says of an empty first line
        raise MalformedLine(path, 1, "not valid JSON (Expecting value: line 1 column 1 (char 0))")
    if len({p.record_id for p in profiles}) < len(profiles):
        first: dict[str, int] = {}
        k = next(k for k, p in enumerate(profiles) if first.setdefault(p.record_id, k) != k)
        rid = profiles[k].record_id
        # row k is on the (k + 2)th line that is not blank
        line_nos = [line_no for line_no, line in read_lines(path) if line.strip()]
        raise MalformedLine(path, line_nos[k + 1], f"repeated record_id {rid!r} "
                                                   f"(first on line {line_nos[first[rid] + 1]})")
    return profiles


def complexity_rows(profiles: list[TagProfile]) -> int:
    """Number of distinct tags across the dataset."""
    tags: set[str] = set()
    for p in profiles:
        tags.update(p.tags)
    return len(tags)


def diversity_rows(profiles: list[TagProfile]) -> float:
    """Mean distinct-tag count per record; 0.0 for a dataset with no record."""
    return sum(len(set(p.tags)) for p in profiles) / len(profiles) if profiles else 0.0


def tag_coverage_rows(subset: list[TagProfile], full: list[TagProfile]) -> float | None:
    """Fraction of the full dataset's distinct tags present in the subset;
    None when the full dataset has no tag to cover."""
    full_tags: set[str] = set()
    for p in full:
        full_tags.update(p.tags)
    if not full_tags:
        return None
    covered: set[str] = set()
    for p in subset:
        covered.update(p.tags)
    return len(covered & full_tags) / len(full_tags)


def assess_dataset_rows(profiles: list[TagProfile]) -> dict[str, Any]:
    """The report of the profiles: their complexity, their diversity and
    how many there are."""
    return {"distinct_tags": complexity_rows(profiles),
            "mean_distinct_tags_per_record": diversity_rows(profiles),
            "record_count": len(profiles)}


def selection_sequence_rows(profiles: list[TagProfile]) -> tuple[list[TagProfile],
                                                                 list[TagProfile]]:
    """Budget-independent pick order: the lazy greedy with one int per heap
    key, over string tag sets."""
    n = len(profiles)
    if not n:
        return [], []
    tagsets = [set(p.tags) for p in profiles]
    by_id = sorted(range(n), key=lambda i: profiles[i].record_id)
    sizes = [len(tagsets[i]) for i in by_id]
    top = max(sizes)
    m = (top + 1) * n
    heap = [(top - size) * (m + n) + rank for rank, size in enumerate(sizes)]
    heapq.heapify(heap)
    covered: set[str] = set()
    phase1: list[int] = []
    while heap:
        key = heap[0]
        shortfall, rest = divmod(key, m)  # S - gain, and the rest of the key
        i = by_id[rest % n]
        fresh = len(tagsets[i] - covered)
        if fresh != top - shortfall:
            heapq.heapreplace(heap, (top - fresh) * m + rest)
        elif not fresh:
            break
        else:
            heapq.heappop(heap)
            covered |= tagsets[i]
            phase1.append(i)
    # (S - distinct-tag count) * n + rank of the unpicked records
    phase2 = [by_id[rest % n] for rest in sorted(key % m for key in heap)]
    return [profiles[i] for i in phase1], [profiles[i] for i in phase2]


def sample_rows(profiles: list[TagProfile], spec: Any) -> list[str]:
    """Select record ids per the sample request; deterministic for fixed
    inputs. Mode ``coverage`` takes the shortest prefix of phase 1 that
    reaches the target, which is no record when there is no tag to cover."""
    if spec.mode == "random":
        return random_sample_rows(profiles, spec.ratio, spec.seed)
    n = len(profiles)
    phase1, phase2 = selection_sequence_rows(profiles)
    if spec.mode == "coverage":
        universe: set[str] = set()
        for p in profiles:
            universe.update(p.tags)
        selected: list[str] = []
        covered: set[str] = set()
        # phase 1 covers every tag, and is empty when there is none
        for p in phase1:
            if len(covered) / len(universe) >= spec.coverage:
                break
            selected.append(p.record_id)
            covered.update(p.tags)
        return selected
    budget = spec.budget if spec.mode == "budget" else math.ceil(spec.ratio * n)
    budget = min(budget, n)
    ordered = phase1 + phase2
    return [p.record_id for p in ordered[:budget]]


def random_sample_rows(profiles: list[TagProfile], ratio: float, seed: int) -> list[str]:
    """Uniform sample without replacement, reproducible per seed; what
    ``sample`` runs in mode ``random``."""
    ids = [p.record_id for p in profiles]
    k = math.ceil(ratio * len(ids))
    return random.Random(seed).sample(ids, k)


def sample_report_rows(profiles: list[TagProfile], spec: Any) -> str:
    """The text of the ``sample`` artifact that the sample row wrote."""
    selected = sample_rows(profiles, spec)
    chosen = set(selected)
    subset = [p for p in profiles if p.record_id in chosen]
    report = {
        "mode": spec.mode,
        "selected": selected,
        "count": len(selected),
        "assessment": assess_dataset_rows(subset) if subset else None,
        "coverage": tag_coverage_rows(subset, profiles) if subset else None,
    }
    return dumps_json(report) + "\n"


# ---------------------------------------------------------------------------
# the profiles columns, checked item by item


def profiles_columns_fit(columns: list[Any]) -> bool:
    """Whether the values of the lines of a ``profiles`` file are its four
    columns: a vocabulary and record ids of strings, neither repeating one;
    a count per record id, each an int (not a bool) at least 0; and as many
    tag indices as the counts add up to, each an int (not a bool) that is a
    place in the vocabulary."""
    if len(columns) != 4 or any(type(column) is not list for column in columns):
        return False
    vocab, ids, counts, indices = columns
    for names in (vocab, ids):
        seen = []
        for name in names:
            if type(name) is not str or name in seen:
                return False
            seen.append(name)
    if len(counts) != len(ids):
        return False
    total = 0
    for count in counts:
        if type(count) is not int or count < 0:
            return False
        total += count
    if len(indices) != total:
        return False
    for index in indices:
        if type(index) is not int or not 0 <= index < len(vocab):
            return False
    return True


# ---------------------------------------------------------------------------
# tag artifact lines as dicts, which the stage writers encoded with dumps_json
# before they put each line together from its encoded values


def tags_line_reference(record_id: str, tags: dict[str, Any]) -> dict[str, Any]:
    return {"record_id": record_id, "annotations": {"tags": tags}}


def profile_from_tags(obj: dict[str, Any], stage: str = "aggregated") -> StageProfile:
    """The ``stage`` profile of a ``tags`` line (``raw`` of a ``tags_raw``
    line), or a TypeError; the pipeline reads only ``raw`` from ``tags_raw``
    and the aggregated profiles from ``profiles``."""
    tags_ann = obj.get("annotations", {}).get("tags", {})
    rid, tags, source = obj["record_id"], tags_ann.get(stage, []), tags_ann.get("source", "none")
    if type(rid) is not str or type(tags) is not list or type(source) is not str:
        raise TypeError(f"record_id and source must be strings and {stage} a list")
    return StageProfile(rid, list(tags), stage, source,
                        bool(tags_ann.get("emptied_by_filter", False)))


# ---------------------------------------------------------------------------
# the record path as it was before generate lines were put together from
# encoded pieces and argument lists were split by a regex; kept verbatim, with
# the process block as the deleted ExecutionProcess.to_dict built it


def generate_line_reference(rec, rep, result) -> dict[str, Any]:
    ann = dict(rec.annotations)
    ann["representation"] = {
        "style": rep.style,
        "digest": hashlib.sha256(rep.text.encode("utf-8")).hexdigest()[:16],
        "token_count": rep.token_count,
    }
    if isinstance(result, procgen.Discarded):
        ann["discarded"] = {"reason": result.reason, "attempts": result.attempts,
                            "last_completion": result.last_completion}
        ann.pop("process", None)
    else:
        ann["process"] = {
            "cot": result.cot,
            "steps": [{"index": s.index, "output_var": s.output_var,
                       "function_name": s.function_name, "args": s.args}
                      for s in result.steps],
            "final_answer": result.final_answer,
            "attempts": result.attempts,
        }
        ann.pop("discarded", None)
    obj = record_to_dict(rec)
    obj["annotations"] = ann
    return obj


_ARG_RE = re.compile(r"^(?:[A-Za-z_]\w*|-?\d+(?:\.\d+)?)$")


def split_args_reference(raw: str, line_no: int, line: str) -> list[str]:
    args: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    for ch in raw:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            args.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote:
        raise tagparse.GrammarViolation(line_no, line, "unterminated quote")
    tail = "".join(buf).strip()
    if tail or args:
        args.append(tail)
    for arg in args:
        quoted = len(arg) >= 2 and arg[0] == arg[-1] and arg[0] in "\"'"
        if not arg or (not quoted and not _ARG_RE.match(arg)):
            raise tagparse.GrammarViolation(line_no, line, f"bad argument {arg!r}")
    return args


# ---------------------------------------------------------------------------
# the prompt and the completion parse as they were before the prompt was
# concatenated from the template's fixed parts and a completion was scanned
# whole; kept verbatim, with the pattern the old parse matched each CoT line by


_COT_LINE_RE = re.compile(r"^\s*\d+[.):]\s*(.+)$")


def build_prompt(rep, question: str) -> str:
    """Deterministic prompt embedding the representation and question verbatim."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    return procgen._PROMPT_TEMPLATE.format(document=rep.text, question=question)


def parse_pseudocode(block: str) -> list[tagparse.ProcessStep]:
    """Parse a pseudo-code block into steps in textual order."""
    steps: list[tagparse.ProcessStep] = []
    for line_no, raw_line in enumerate(block.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        m = tagparse._STEP_RE.match(line)
        if not m:
            raise tagparse.GrammarViolation(line_no, line)
        output_var, function_name, raw_args = m.groups()
        steps.append(tagparse.ProcessStep(index=len(steps) + 1, output_var=output_var,
                                          function_name=function_name,
                                          args=split_args_reference(raw_args, line_no, line)))
    return steps


def parse_response(completion: str) -> procgen.ExecutionProcess:
    """Extract CoT lines, the first fenced pseudo-code block, and the answer
    line; raises ParseFailure when the contract is not met."""
    fence = procgen._FENCE_RE.search(completion)
    if not fence:
        raise procgen.ParseFailure("no pseudo-code block")
    try:
        steps = parse_pseudocode(fence.group(1))
    except tagparse.GrammarViolation as exc:
        raise procgen.ParseFailure(f"grammar: {exc}") from exc
    if not steps:
        raise procgen.ParseFailure("empty pseudo-code block")
    if not procgen.validate_chain(steps):
        raise procgen.ParseFailure("broken step chaining")
    cot = [m.group(1).strip() for m in
           (_COT_LINE_RE.match(line) for line in completion[:fence.start()].splitlines())
           if m]
    answers = procgen._ANSWER_RE.findall(completion)
    final_answer = answers[-1].strip() if answers else None
    return procgen.ExecutionProcess(cot=cot, steps=steps, final_answer=final_answer or None)


# ---------------------------------------------------------------------------
# tag stage writers that copied the whole generate record into ``tags_raw``
# and ``tags`` (kept verbatim; their ``record_id`` and ``annotations.tags``
# are what the slim artifacts must reproduce)


def extract_stage_full_records(records: Iterable[dict[str, Any]],
                               out_dir: Path) -> list[dict[str, Any]]:
    """Extract each generated record's raw tag sequence; returns the tagged
    records."""
    out = []
    for obj in records:
        ann = dict(obj.get("annotations", {}))
        steps = None
        completion = None
        if "process" in ann:
            steps = procgen.ExecutionProcess.from_dict(ann["process"]).steps
        elif "discarded" in ann:
            completion = ann["discarded"].get("last_completion")
        seq = tagparse.extract_function_names(obj["record_id"], steps=steps,
                                              completion=completion)
        ann["tags"] = {"raw": seq.tags, "source": seq.source}
        obj = dict(obj)
        obj["annotations"] = ann
        out.append(obj)
    path = write_stage(out_dir, "tags_raw", _jsonl(out), "jsonl")
    print(f"extracted raw tags for {len(out)} records -> {path}")
    return out


def normalize_stage_full_records(records: list[dict[str, Any]],
                                 embedder: tagnorm.EmbeddingProvider,
                                 cfg: PipelineConfig, out_dir: Path,
                                 ) -> tuple[list[StageProfile], dict[str, Any]]:
    """Filter, cluster and aggregate the raw tags, and write every stage's
    tags per record; returns the aggregated profiles and the vocabulary
    report. The normalization is :func:`normalize_corpus` below, whose
    frequency filter sets each record's ``emptied_by_filter``."""
    profiles = [tagnorm.TagProfile(record_id=obj["record_id"],
                                   tags=list(obj["annotations"]["tags"]["raw"]),
                                   source=obj["annotations"]["tags"]["source"])
                for obj in records]
    result = normalize_corpus(
        profiles, embedder,
        min_count=cfg.tagging.min_count,
        dbscan_eps=cfg.tagging.dbscan_eps,
        dbscan_min_pts=cfg.tagging.dbscan_min_pts,
        min_support=cfg.tagging.min_support,
        min_confidence=cfg.tagging.min_confidence)
    stage_profiles = result.stage_profiles

    def tagged() -> Iterator[dict[str, Any]]:
        # each output record is built as it is written, never all at once
        for i, obj in enumerate(records):
            ann = dict(obj.get("annotations", {}))
            tags_ann = dict(ann["tags"])
            for stage in ("filtered", "clustered", "aggregated"):
                tags_ann[stage] = stage_profiles[stage][i].tags
            tags_ann["emptied_by_filter"] = stage_profiles["filtered"][i].emptied_by_filter
            ann["tags"] = tags_ann
            yield {**obj, "annotations": ann}

    vocab_report = {
        "stages": {stage: dict(sorted(v.items()))
                   for stage, v in result.vocabularies.items()},
        "clusters": {str(cid): {"representative": result.assignment.representatives[cid],
                                "members": members}
                     for cid, members in result.assignment.members().items()},
        "merges": result.merges,
    }
    path = write_stage(out_dir, "tags", _jsonl(tagged()), "jsonl")
    write_stage(out_dir, "vocab", dumps_json(vocab_report) + "\n", "json")
    print(f"normalized tags for {len(records)} records "
          f"({len(vocab_report['merges'])} merges) -> {path}")
    return result.profiles, vocab_report


# ---------------------------------------------------------------------------
# tag normalization as it was before its passes counted in C: one
# Counter.update per profile, stats for every adjacent pair, every tag list
# walked for every merge, and profiles rebuilt with dataclasses.replace
# (kept verbatim; tagnorm must return the tags these return). Each stage's
# records are StageProfiles, the per-record type tagnorm passed before a
# stage became a list of tag lists, flag and stage check included


@dataclass
class StageProfile:
    """One record's tags at one normalization stage."""

    record_id: str
    tags: list[str]
    stage: str = "raw"
    source: str = "grammar"
    emptied_by_filter: bool = False


@dataclass
class StageNormalization:
    profiles: list[StageProfile]                     # aggregated stage
    stage_profiles: dict[str, list[StageProfile]]    # every stage, for audit
    vocabularies: dict[str, dict[str, int]]          # stage -> tag -> corpus count
    assignment: ClusterAssignment
    merges: list[dict[str, Any]] = field(default_factory=list)


def _require_stage(profiles: list[StageProfile], stage: str) -> None:
    for p in profiles:
        if p.stage != stage:
            raise ValueError(f"profile {p.record_id} at stage {p.stage!r}, expected {stage!r}")


def tag_frequencies(profiles: list[StageProfile]) -> dict[str, int]:
    """Corpus occurrence count per tag (multiple occurrences in one profile count)."""
    freq: Counter[str] = Counter()
    for p in profiles:
        freq.update(p.tags)
    return dict(freq)


def frequency_filter(profiles: list[StageProfile],
                     min_count: int) -> tuple[list[StageProfile], dict[str, int]]:
    """Drop long-tail tags (corpus frequency < min_count) from every profile,
    preserving the relative order of survivors. Emptied profiles stay, flagged."""
    if min_count < 1:
        raise ValueError("min_count must be a positive integer")
    _require_stage(profiles, "raw")
    freq = tag_frequencies(profiles)
    out: list[StageProfile] = []
    for p in profiles:
        kept = [t for t in p.tags if freq[t] >= min_count]
        out.append(StageProfile(record_id=p.record_id, tags=kept, stage="filtered",
                                source=p.source,
                                emptied_by_filter=bool(p.tags) and not kept))
    return out, {t: c for t, c in freq.items() if c >= min_count}


def apply_clusters(profiles: list[StageProfile],
                   assignment: ClusterAssignment) -> list[StageProfile]:
    """Rewrite clustered tags to their cluster representative (noise tags are
    untouched) and collapse any adjacent duplicates this creates."""
    _require_stage(profiles, "filtered")
    rep_of = {tag: assignment.representatives[cid]
              for tag, cid in assignment.labels.items() if cid is not None}
    out: list[StageProfile] = []
    for p in profiles:
        rewritten = collapse_adjacent([rep_of.get(t, t) for t in p.tags])
        out.append(replace(p, tags=rewritten, stage="clustered"))
    return out


def mine_adjacent_pairs(profiles: list[StageProfile]) -> list[AdjacentPairStat]:
    """Count ordered adjacent tag pairs; one support unit per profile."""
    _require_stage(profiles, "clustered")
    pair_support: Counter[tuple[str, str]] = Counter()
    first_count: Counter[str] = Counter()
    for p in profiles:
        pair_support.update(set(zip(p.tags, p.tags[1:])))
        first_count.update(set(p.tags))
    stats = [AdjacentPairStat(first=a, second=b, support=s,
                              confidence=s / first_count[a])
             for (a, b), s in pair_support.items()]
    stats.sort(key=lambda st: (-st.support, st.first, st.second))
    return stats


def aggregate_pairs(profiles: list[StageProfile], stats: list[AdjacentPairStat],
                    min_support: int = DEFAULT_MIN_SUPPORT,
                    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
                    ) -> tuple[list[StageProfile], list[dict[str, Any]]]:
    """Merge every qualifying pair (support and confidence at or above the
    thresholds) wherever it occurs adjacently.

    Single pass over pairs sorted by support descending (ties lexicographic);
    merged names are not re-mined. Self-pairs and degenerate merges are
    skipped. Returns the aggregated profiles and a report of applied merges.
    """
    _require_stage(profiles, "clustered")
    qualifying = [st for st in stats
                  if st.support >= min_support and st.confidence >= min_confidence
                  and st.first != st.second]
    qualifying.sort(key=lambda st: (-st.support, st.first, st.second))
    tag_lists = [list(p.tags) for p in profiles]
    applied: list[dict[str, Any]] = []
    for st in qualifying:
        merged = merge_name(st.first, st.second)
        if merged is None:
            continue
        for tags in tag_lists:
            i = 0
            while i < len(tags) - 1:
                if tags[i] == st.first and tags[i + 1] == st.second:
                    tags[i:i + 2] = [merged]
                i += 1
        applied.append({"first": st.first, "second": st.second, "merged": merged,
                        "support": st.support, "confidence": st.confidence})
    out = [replace(p, tags=tags, stage="aggregated")
           for p, tags in zip(profiles, tag_lists)]
    return out, applied


def normalize_corpus(profiles: list[TagProfile], embedder: EmbeddingProvider, *,
                     min_count: int | None = None,
                     dbscan_eps: float = DEFAULT_DBSCAN_EPS,
                     dbscan_min_pts: int = DEFAULT_DBSCAN_MIN_PTS,
                     min_support: int = DEFAULT_MIN_SUPPORT,
                     min_confidence: float = DEFAULT_MIN_CONFIDENCE) -> StageNormalization:
    """Run filter -> cluster -> aggregate over raw profiles.

    ``min_count=None`` picks the long-tail cutoff from the corpus size.
    """
    profiles = [StageProfile(p.record_id, list(p.tags), "raw", p.source) for p in profiles]
    if min_count is None:
        min_count = default_min_count(len(profiles))
    raw_vocab = tag_frequencies(profiles)
    filtered, filtered_vocab = frequency_filter(profiles, min_count)
    vectors = {t: embedder.embed(t) for t in sorted(filtered_vocab)}
    assignment = dbscan(vectors, dbscan_eps, dbscan_min_pts,
                        frequencies=filtered_vocab)
    clustered = apply_clusters(filtered, assignment)
    clustered_vocab = tag_frequencies(clustered)
    stats = mine_adjacent_pairs(clustered)
    aggregated, merges = aggregate_pairs(clustered, stats, min_support, min_confidence)
    aggregated_vocab = tag_frequencies(aggregated)
    return StageNormalization(
        profiles=aggregated,
        stage_profiles={"raw": profiles, "filtered": filtered,
                        "clustered": clustered, "aggregated": aggregated},
        vocabularies={"raw": raw_vocab, "filtered": filtered_vocab,
                      "clustered": clustered_vocab, "aggregated": aggregated_vocab},
        assignment=assignment,
        merges=merges,
    )


# ---------------------------------------------------------------------------
# the hashing embedder as it was before it embedded a vocabulary at once;
# kept verbatim


class HashingEmbedder:
    """Offline embedding: character trigrams of ^tag$ hashed into a
    fixed-width count vector, L2-normalized. Pure and dependency-free."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    def embed(self, tag: str) -> np.ndarray:
        import numpy as np

        padded = f"^{tag}$"
        vec = np.zeros(self.dim)
        for i in range(len(padded) - 2):
            tri = padded[i:i + 3].encode("utf-8")
            vec[int.from_bytes(hashlib.sha1(tri).digest()[:4], "big") % self.dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ZeroVector(f"no trigrams for tag {tag!r}")
        return vec / norm



# ---------------------------------------------------------------------------
# completion and embedding caches and HTTP adapters, each written out on its
# own, as they were before proctag.store held the shared parts; kept verbatim


class RemoteBackend:
    """Chat-completion HTTP adapter; the wire-format mapping is isolated here.

    ``requests`` is imported only when an adapter is built, so commands that
    never reach the network do not pay for loading it.
    """

    def __init__(self, url: str | None = None, api_key: str | None = None,
                 model: str = "default", timeout: float = 60.0,
                 session: requests.Session | None = None):
        import requests

        self.url = url or os.environ.get("PROCTAG_BACKEND_URL", "")
        self.api_key = api_key if api_key is not None else os.environ.get("PROCTAG_BACKEND_KEY")
        self.model = model
        self.timeout = timeout
        self._session = session or requests.Session()
        if not self.url:
            raise BackendError("no backend URL (set PROCTAG_BACKEND_URL)")

    def complete(self, prompt: str, temperature: float = 0.0, attempt: int = 1) -> str:
        import requests

        payload: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            resp = self._session.post(self.url, json=payload, headers=headers,
                                      timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        if resp.status_code != 200:
            raise BackendError(f"backend returned HTTP {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"unexpected response shape: {exc}") from exc


def _cache_key(prompt: str, temperature: float, attempt: int) -> str:
    material = json.dumps({"prompt": prompt, "temperature": temperature,
                           "max_tokens": None, "attempt": attempt},
                          sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CachingBackend:
    """Content-addressed completion cache around an inner backend.

    The cache key covers prompt, decode parameters, and the attempt index, so
    retries are cached independently. With ``inner=None`` the cache is
    replay-only and a miss is a transport failure.
    """

    def __init__(self, cache_dir: Path | str, inner: GenerationBackend | None = None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def complete(self, prompt: str, temperature: float = 0.0, attempt: int = 1) -> str:
        path = self._path(_cache_key(prompt, temperature, attempt))
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))["completion"]
        if self.inner is None:
            raise BackendError(f"cache miss for {path.name} in replay-only mode")
        completion = self.inner.complete(prompt, temperature, attempt=attempt)
        entry = {"prompt": prompt, "completion": completion,
                 "created_at": datetime.now(timezone.utc).isoformat()}
        atomic_write_text(path, json.dumps(entry, ensure_ascii=False))
        return completion


class RemoteEmbedder:
    """HTTP encoder endpoint adapter (POST {"input": tag} -> {"embedding": [...]}).

    ``requests`` is imported only when an adapter is built.
    """

    def __init__(self, url: str | None = None, api_key: str | None = None,
                 timeout: float = 60.0, session: requests.Session | None = None):
        import requests

        self.url = url or os.environ.get("PROCTAG_EMBED_URL", "")
        self.api_key = api_key if api_key is not None else os.environ.get("PROCTAG_EMBED_KEY")
        self.timeout = timeout
        self._session = session or requests.Session()
        if not self.url:
            raise ProcTagError("no embedding URL (set PROCTAG_EMBED_URL)")

    def embed(self, tag: str) -> np.ndarray:
        import numpy as np
        import requests

        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            resp = self._session.post(self.url, json={"input": tag}, headers=headers,
                                      timeout=self.timeout)
        except requests.RequestException as exc:
            raise ProcTagError(f"embedding transport failure: {exc}") from exc
        if resp.status_code != 200:
            raise ProcTagError(f"embedding endpoint returned HTTP {resp.status_code}")
        try:
            return np.asarray(resp.json()["embedding"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProcTagError(f"unexpected embedding response: {exc}") from exc


class CachingEmbedder:
    """Content-addressed vector cache around an inner provider; replay-only
    when ``inner=None``."""

    def __init__(self, cache_dir: Path | str, inner: EmbeddingProvider | None = None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner

    def embed(self, tag: str) -> np.ndarray:
        import numpy as np

        key = hashlib.sha256(tag.encode("utf-8")).hexdigest()
        path = self.cache_dir / f"{key}.json"
        if path.exists():
            return np.asarray(json.loads(path.read_text(encoding="utf-8"))["vector"])
        if self.inner is None:
            raise ProcTagError(f"embedding cache miss for {tag!r} in replay-only mode")
        vec = self.inner.embed(tag)
        entry = {"tag": tag, "vector": [float(x) for x in vec],
                 "created_at": datetime.now(timezone.utc).isoformat()}
        atomic_write_text(path, json.dumps(entry, ensure_ascii=False))
        return vec
