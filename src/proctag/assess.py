"""Dataset complexity, diversity and tag coverage, and tag-driven subset
selection.

Every function here takes the profiles as :class:`Profiles`, the columns of
the ``profiles`` artifact, with no object per record: a tag is its index into
the vocabulary, a record its row, and the tag sets are sets of ints.

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
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

if TYPE_CHECKING:
    from .config import SamplingConfig
    from .tagparse import TagProfile

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


class Profiles(NamedTuple):
    """Tag profiles in columns, as the ``profiles`` artifact holds them: the
    vocabulary, each record's id and tag count, and every record's tags as
    vocabulary indices, one record after another. The vocabulary holds each
    tag once, so a tag's index stands for it."""

    vocab: list[str]
    ids: list[str]
    counts: list[int]
    indices: list[int]

    @classmethod
    def of(cls, profiles: list[TagProfile]) -> Profiles:
        """The columns of some profiles; the vocabulary is their tags in order
        of first occurrence."""
        tag_lists = [p.tags for p in profiles]
        tags = list(chain.from_iterable(tag_lists))
        vocab = list(dict.fromkeys(tags))
        index = dict(zip(vocab, range(len(vocab))))
        return cls(vocab, [p.record_id for p in profiles], list(map(len, tag_lists)),
                   list(map(index.__getitem__, tags)))

    def tag_lists(self) -> list[list[int]]:
        """Each record's tag indices, in record order."""
        indices = self.indices
        return [indices[lo:hi] for lo, hi in pairwise(accumulate(self.counts, initial=0))]

    def take(self, rows: Iterable[int]) -> Profiles:
        """The profiles of some rows, in the order given, over this vocabulary."""
        rows = list(rows)
        lists = self.tag_lists()
        return Profiles(self.vocab, [self.ids[r] for r in rows], [self.counts[r] for r in rows],
                        list(chain.from_iterable(lists[r] for r in rows)))


def complexity(profiles: Profiles) -> int:
    """Number of distinct tags across the dataset."""
    return len(set(profiles.indices))


def diversity(profiles: Profiles) -> float:
    """Mean distinct-tag count per record; 0.0 for a dataset with no record."""
    n = len(profiles.ids)
    return sum(map(len, map(set, profiles.tag_lists()))) / n if n else 0.0


def tag_coverage(subset: Profiles, full: Profiles) -> float | None:
    """Fraction of the full dataset's distinct tags present in the subset;
    None when the full dataset has no tag to cover. The two may hold
    different vocabularies: tags are compared by name."""
    full_tags = set(map(full.vocab.__getitem__, set(full.indices)))
    if not full_tags:
        return None
    covered = set(map(subset.vocab.__getitem__, set(subset.indices)))
    return len(covered & full_tags) / len(full_tags)


def assess_dataset(profiles: Profiles) -> dict[str, Any]:
    """The report of the profiles: their complexity, their diversity and
    how many there are."""
    return {"distinct_tags": complexity(profiles),
            "mean_distinct_tags_per_record": diversity(profiles),
            "record_count": len(profiles.ids)}


def selection_sequence(profiles: Profiles) -> tuple[list[int], list[int]]:
    """Budget-independent pick order, as the rows of the two phases.

    Phase 1 greedily picks the record covering the most uncovered tags (ties:
    larger distinct-tag count, then smaller record_id, then earlier row)
    until no pick gains coverage. Phase 2 orders the rest by distinct-tag
    count descending, then record_id; records with empty profiles therefore
    come last.

    Heap keys hold each record's gain as of its last evaluation. Gains only
    shrink, so a stale key never sorts after its fresh one: a top whose key
    is fresh is the true best, and a stale top is re-keyed and sifted down.
    A key is one int, ``(S - gain) * M + (S - size) * n + rank`` with ``S``
    the largest distinct-tag count, ``M = (S + 1) * n`` and ``rank`` the
    record's place in a stable sort by record_id, so it orders as the tuple
    (-gain, -size, record_id, row) would, without comparing strings.
    """
    ids = profiles.ids
    n = len(ids)
    if not n:
        return [], []
    tagsets = list(map(set, profiles.tag_lists()))
    by_id = sorted(range(n), key=ids.__getitem__)
    sizes = [len(tagsets[i]) for i in by_id]
    top = max(sizes)
    m = (top + 1) * n
    heap = [(top - size) * (m + n) + rank for rank, size in enumerate(sizes)]
    heapq.heapify(heap)
    universe = complexity(profiles)
    covered: set[int] = set()
    phase1: list[int] = []
    # until every tag is covered some record gains one, so the top's gain is
    # positive; after, no record gains any, and none is evaluated again
    while len(covered) < universe:
        key = heap[0]
        shortfall, rest = divmod(key, m)  # S - gain, and the rest of the key
        i = by_id[rest % n]
        fresh = len(tagsets[i] - covered)
        if fresh != top - shortfall:
            heapq.heapreplace(heap, (top - fresh) * m + rest)
        else:
            heapq.heappop(heap)
            covered |= tagsets[i]
            phase1.append(i)
    # (S - distinct-tag count) * n + rank of the unpicked records, whatever
    # gain their keys still hold
    return phase1, [by_id[rest % n] for rest in sorted(key % m for key in heap)]


def sample(profiles: Profiles, spec: SamplingConfig) -> list[str]:
    """Select record ids per the sample request; deterministic for fixed
    inputs. Mode ``coverage`` takes the shortest prefix of phase 1 that
    reaches the target, which is no record when there is no tag to cover."""
    checked_request(spec)
    if spec.mode == "random":
        return random_sample(profiles, spec.ratio, spec.seed)
    ids = profiles.ids
    phase1, phase2 = selection_sequence(profiles)
    if spec.mode == "coverage":
        # phase 1 covers every tag, and is empty when there is none
        universe = complexity(profiles)
        lists = profiles.tag_lists()
        selected: list[str] = []
        covered: set[int] = set()
        for row in phase1:
            if len(covered) / universe >= spec.coverage:
                break
            selected.append(ids[row])
            covered.update(lists[row])
        return selected
    budget = spec.budget if spec.mode == "budget" else math.ceil(spec.ratio * len(ids))
    return [ids[row] for row in (phase1 + phase2)[:budget]]


def random_sample(profiles: Profiles, ratio: float, seed: int) -> list[str]:
    """Uniform sample without replacement, reproducible per seed; what
    ``sample`` runs in mode ``random``."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    ids = profiles.ids
    k = math.ceil(ratio * len(ids))
    return random.Random(seed).sample(ids, k)
