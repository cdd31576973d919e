"""Dataset complexity, diversity and tag coverage, and tag-driven subset
selection.

Complexity is the number of distinct tags in a dataset, reported as
``distinct_tags``; diversity is the mean number of distinct tags per
record, reported as ``mean_distinct_tags_per_record``. Selection runs in
two phases: a greedy set-cover phase that maximizes new-tag coverage per
pick, then a fill phase ordered by distinct-tag count. The greedy phase is lazy
(Minoux's accelerated greedy, CELF): coverage gain only shrinks as tags get
covered, so a stale gain bounds the fresh one and only the heap top is
re-evaluated. It makes the same picks, in the same order and with the same
tie-breaks, as a full rescan per pick. The selection sequence does not
depend on the budget, so a smaller budget is always a prefix of a larger
one. Mode ``random`` instead draws a uniform sample seeded by
the request's ``seed``.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import TYPE_CHECKING, Any

from .tagnorm import TagProfile

if TYPE_CHECKING:
    from .config import SamplingConfig

MODES = ("budget", "ratio", "coverage", "random")


def checked_request(spec: SamplingConfig) -> SamplingConfig:
    """``spec`` if its mode has the value it needs, in range; only the fields
    of the active mode are read (``ratio`` and ``seed`` for ``random``)."""
    if spec.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {spec.mode!r}")
    if spec.mode == "budget" and (spec.budget is None or spec.budget < 0):
        raise ValueError("budget mode requires a non-negative budget")
    if spec.mode in ("ratio", "random") and (spec.ratio is None or not 0 < spec.ratio <= 1):
        raise ValueError(f"{spec.mode} mode requires ratio in (0, 1]")
    if spec.mode == "coverage":
        target = spec.coverage
        if target is None or not math.isfinite(target) or target < 0:
            raise ValueError("coverage mode requires a finite, non-negative "
                             f"coverage_target, got {target!r}")
        if target > 1.0:
            raise ValueError(f"coverage target {target} exceeds 1.0")
    return spec


def complexity(profiles: list[TagProfile]) -> int:
    """Number of distinct tags across the dataset."""
    tags: set[str] = set()
    for p in profiles:
        tags.update(p.tags)
    return len(tags)


def diversity(profiles: list[TagProfile]) -> float:
    """Mean distinct-tag count per record; 0.0 for a dataset with no record."""
    return sum(len(set(p.tags)) for p in profiles) / len(profiles) if profiles else 0.0


def tag_coverage(subset: list[TagProfile], full: list[TagProfile]) -> float | None:
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


def assess_dataset(profiles: list[TagProfile]) -> dict[str, Any]:
    """The report of the profiles: their complexity, their diversity and
    how many there are."""
    return {"distinct_tags": complexity(profiles),
            "mean_distinct_tags_per_record": diversity(profiles),
            "record_count": len(profiles)}


def _selection_sequence(profiles: list[TagProfile]) -> tuple[list[TagProfile], list[TagProfile]]:
    """Budget-independent pick order.

    Phase 1 greedily picks the record covering the most uncovered tags (ties:
    larger distinct-tag count, then smaller record_id, then earlier input)
    until no pick gains coverage. Phase 2 orders the rest by distinct-tag
    count descending, then record_id; records with empty profiles therefore
    come last.

    Heap keys hold each record's gain as of its last evaluation. Gains only
    shrink, so a stale key never sorts after its fresh one: a top whose key
    is fresh is the true best, and a stale top is re-keyed and sifted down.
    A key is one int, ``(S - gain) * M + (S - size) * n + rank`` with ``S``
    the largest distinct-tag count, ``M = (S + 1) * n`` and ``rank`` the
    record's place in a stable sort by record_id, so it orders as the tuple
    (-gain, -size, record_id, input index) would, without comparing strings.
    """
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


def sample(profiles: list[TagProfile], spec: SamplingConfig) -> list[str]:
    """Select record ids per the sample request; deterministic for fixed
    inputs. Mode ``coverage`` takes the shortest prefix of phase 1 that
    reaches the target, which is no record when there is no tag to cover."""
    checked_request(spec)
    if spec.mode == "random":
        return random_sample(profiles, spec.ratio, spec.seed)
    n = len(profiles)
    phase1, phase2 = _selection_sequence(profiles)
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


def random_sample(profiles: list[TagProfile], ratio: float, seed: int) -> list[str]:
    """Uniform sample without replacement, reproducible per seed; what
    ``sample`` runs in mode ``random``."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    ids = [p.record_id for p in profiles]
    k = math.ceil(ratio * len(ids))
    return random.Random(seed).sample(ids, k)
