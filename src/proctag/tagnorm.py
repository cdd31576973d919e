"""Tag normalization: frequency filtering, embedding-based density
clustering of the vocabulary, and adjacency-constrained association
aggregation of ordered tag pairs.

Each step takes one tag list per record and returns a new one per record,
in the same order: raw -> filtered -> clustered -> aggregated. Only
:func:`normalize_corpus` sees profiles: it reads the raw lists out of them and
pairs the aggregated lists with their record ids again. Every step is a
deterministic batch computation over immutable snapshots; given the same
lists, embeddings, and thresholds the output is identical across runs.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Any, Mapping, Protocol

from .errors import ProcTagError
from .store import JsonPost, Store
from .tagparse import TagProfile, collapse_adjacent, normalize_name

if TYPE_CHECKING:
    import numpy as np

STAGES = ("raw", "filtered", "clustered", "aggregated")

DEFAULT_DBSCAN_EPS = 0.015
DEFAULT_DBSCAN_MIN_PTS = 2
DEFAULT_MIN_SUPPORT = 40
DEFAULT_MIN_CONFIDENCE = 0.99
# corpora at or above this record count use the stricter long-tail cutoff
LARGE_CORPUS_RECORDS = 40_000
LARGE_CORPUS_MIN_COUNT = 4
SMALL_CORPUS_MIN_COUNT = 2
# bytes of float64 distances dbscan holds at once: a block of rows of the
# n x n distance matrix, never the whole matrix
DBSCAN_BLOCK_BYTES = 4 << 20


class ZeroVector(ProcTagError):
    """Cosine distance is undefined for a zero-norm vector."""


@dataclass
class ClusterAssignment:
    """Tag -> cluster id (None = noise) and cluster id -> representative."""

    labels: dict[str, int | None]
    representatives: dict[int, str]

    def members(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for tag, cid in self.labels.items():
            if cid is not None:
                out.setdefault(cid, []).append(tag)
        return {cid: sorted(tags) for cid, tags in out.items()}


@dataclass(frozen=True)
class AdjacentPairStat:
    """Ordered adjacent pair counts: support is the number of tag lists where
    the pair occurs adjacently in that order (at most one per list);
    confidence divides by the number of lists containing the first tag."""

    first: str
    second: str
    support: int
    confidence: float


def tag_frequencies(tag_lists: list[list[str]]) -> dict[str, int]:
    """Corpus occurrence count per tag (multiple occurrences in one list
    count), in order of first occurrence."""
    return dict(Counter(chain.from_iterable(tag_lists)))


def default_min_count(n_records: int) -> int:
    return LARGE_CORPUS_MIN_COUNT if n_records >= LARGE_CORPUS_RECORDS else SMALL_CORPUS_MIN_COUNT


def frequency_filter(tag_lists: list[list[str]], min_count: int,
                     counts: dict[str, int] | None = None,
                     ) -> tuple[list[list[str]], dict[str, int]]:
    """Drop long-tail tags (corpus frequency < min_count) from every list,
    preserving the relative order of survivors. A list the filter empties
    stays, empty, in its place. ``counts`` is ``tag_frequencies(tag_lists)``
    when the caller has it; the second value is the count of each tag kept."""
    if min_count < 1:
        raise ValueError("min_count must be a positive integer")
    if counts is None:
        counts = tag_frequencies(tag_lists)
    kept_counts = {t: c for t, c in counts.items() if c >= min_count}
    return [[t for t in tags if t in kept_counts] for tags in tag_lists], kept_counts


# ---------------------------------------------------------------------------
# clustering


def dbscan(vectors: Mapping[str, np.ndarray], eps: float, min_pts: int,
           frequencies: Mapping[str, int] | None = None) -> ClusterAssignment:
    """Density clustering under cosine distance.

    Tags are visited in lexicographic order, which fixes cluster ids and
    border assignment. The eps-neighbourhood counts the point itself. Each
    cluster's representative is its highest-frequency member, ties broken
    lexicographically.

    Distances are computed a block of rows at a time (at most
    ``DBSCAN_BLOCK_BYTES`` of them) and only each point's neighbour indices
    are kept, so memory is O(n * dim + block * n + sum of neighbourhood
    sizes), not O(n^2): a 20k-tag vocabulary never needs the 3.2 GB matrix.
    """
    import numpy as np

    if not eps > 0:  # NaN fails every comparison, so it would pass eps <= 0
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be a positive integer")
    tags = sorted(vectors)
    if not tags:
        return ClusterAssignment(labels={}, representatives={})
    # checked first: the matrix would take a NaN for noise, or fail naming no tag
    vecs = [np.asarray(vectors[t]) for t in tags]
    for tag, vec in zip(tags, vecs):
        if vec.ndim != 1 or not vec.size or vec.dtype.kind not in "iuf":
            raise ValueError(f"the vector of tag {tag!r} is not a non-empty list of numbers")
        if vec.shape != vecs[0].shape:
            raise ValueError(f"the vectors of tags {tags[0]!r} and {tag!r} differ in length")
    mat = np.array(vecs, dtype=float)
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        raise ValueError(f"the vector of tag {tags[int(np.argmin(finite))]!r} is not finite")
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0):
        raise ZeroVector("cannot cluster zero vectors")
    unit = mat / norms[:, None]
    del mat
    n = len(tags)
    rows = max(1, DBSCAN_BLOCK_BYTES // (8 * n))
    neighborhoods: list[np.ndarray] = []
    for lo in range(0, n, rows):
        dist = unit[lo:lo + rows] @ unit.T
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, 2.0, out=dist)
        neighborhoods.extend(np.flatnonzero(row <= eps) for row in dist)
    del dist

    labels: list[int | None] = [None] * n
    visited = [False] * n
    cluster_id = -1
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seeds_i = neighborhoods[i]
        if len(seeds_i) < min_pts:
            continue  # noise for now; may later join a cluster as a border point
        cluster_id += 1
        labels[i] = cluster_id
        queue = deque(seeds_i.tolist())
        while queue:
            j = queue.popleft()
            if visited[j]:
                if labels[j] is None:
                    labels[j] = cluster_id
                continue
            visited[j] = True
            labels[j] = cluster_id
            seeds_j = neighborhoods[j]
            if len(seeds_j) >= min_pts:
                queue.extend(seeds_j.tolist())

    freq = frequencies or {}
    members: dict[int, list[str]] = {}
    for tag, lab in zip(tags, labels):
        if lab is not None:
            members.setdefault(lab, []).append(tag)
    representatives = {cid: min(ms, key=lambda t: (-freq.get(t, 0), t))
                       for cid, ms in members.items()}
    return ClusterAssignment(labels=dict(zip(tags, labels)), representatives=representatives)


def apply_clusters(tag_lists: list[list[str]],
                   assignment: ClusterAssignment) -> list[list[str]]:
    """Rewrite the filtered lists' clustered tags to their cluster
    representative (noise tags are untouched) and collapse any adjacent
    duplicates this creates; each list returned is a new one.

    Only a list holding a tag that is not its own representative is
    rewritten; every list is collapsed, since the filter may already have
    made two equal tags adjacent."""
    rep_of = {tag: assignment.representatives[cid]
              for tag, cid in assignment.labels.items()
              if cid is not None and assignment.representatives[cid] != tag}
    unmoved = rep_of.keys().isdisjoint
    return [collapse_adjacent(tags if unmoved(tags) else [rep_of.get(t, t) for t in tags])
            for tags in tag_lists]


# ---------------------------------------------------------------------------
# association aggregation


def mine_adjacent_pairs(tag_lists: list[list[str]],
                        min_support: int = 1) -> list[AdjacentPairStat]:
    """Count ordered adjacent tag pairs; one support unit per list.

    Only pairs with support at or above ``min_support`` get a stat: a pair
    below it can never merge (support is anti-monotone, as in Apriori), and
    a corpus has far more such pairs than candidates."""
    pair_support = Counter(chain.from_iterable(set(zip(tags, tags[1:]))
                                               for tags in tag_lists))
    first_count = Counter(chain.from_iterable(map(set, tag_lists)))
    stats = [AdjacentPairStat(first=a, second=b, support=s,
                              confidence=s / first_count[a])
             for (a, b), s in pair_support.items() if s >= min_support]
    stats.sort(key=lambda st: (-st.support, st.first, st.second))
    return stats


def merge_name(first: str, second: str) -> str | None:
    """Combine two tags: first's tokens, then second's tokens minus its
    leading token and minus tokens already present in first. A degenerate
    merge gives None: one where nothing of second survives (a self-merge
    among them), or one whose name normalizes to nothing."""
    first_tokens = first.split("_")
    extra = [t for t in second.split("_")[1:] if t not in first_tokens]
    if not extra:
        return None
    return normalize_name("_".join(first_tokens + extra)) or None


def aggregate_pairs(tag_lists: list[list[str]], stats: list[AdjacentPairStat],
                    min_support: int = DEFAULT_MIN_SUPPORT,
                    min_confidence: float = DEFAULT_MIN_CONFIDENCE,
                    ) -> tuple[list[list[str]], list[dict[str, Any]]]:
    """Merge every qualifying pair (support and confidence at or above the
    thresholds) wherever it occurs adjacently.

    Single pass over pairs sorted by support descending (ties lexicographic);
    merged names are not re-mined. Self-pairs and degenerate merges are
    skipped. A tag list without the pair's first tag is passed over after
    one ``in`` test. Returns new aggregated lists and a report of applied
    merges.
    """
    qualifying = [st for st in stats
                  if st.support >= min_support and st.confidence >= min_confidence
                  and st.first != st.second]
    qualifying.sort(key=lambda st: (-st.support, st.first, st.second))
    tag_lists = [list(tags) for tags in tag_lists]
    applied: list[dict[str, Any]] = []
    for st in qualifying:
        merged = merge_name(st.first, st.second)
        if merged is None:
            continue
        first, second = st.first, st.second
        for tags in tag_lists:
            if first not in tags:
                continue
            i = 0
            while i < len(tags) - 1:
                if tags[i] == first and tags[i + 1] == second:
                    tags[i:i + 2] = [merged]
                i += 1
        applied.append({"first": first, "second": second, "merged": merged,
                        "support": st.support, "confidence": st.confidence})
    return tag_lists, applied


# ---------------------------------------------------------------------------
# embedding providers


class EmbeddingProvider(Protocol):
    """A provider may also offer ``embed_many(tags)``, an ``(n, dim)`` array
    whose rows are the tags' vectors; ``normalize_corpus`` then embeds the
    vocabulary in one call."""

    def embed(self, tag: str) -> np.ndarray:
        """Map a tag to a fixed-dimension vector; same tag, same vector."""
        ...


class HashingEmbedder:
    """Offline embedding: character trigrams of ^tag$ hashed into a
    fixed-width count vector, L2-normalized. Pure and dependency-free."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    def embed(self, tag: str) -> np.ndarray:
        return self.embed_many([tag])[0]

    def embed_many(self, tags: list[str]) -> np.ndarray:
        """One row per tag, equal bit for bit to its ``embed``; a trigram
        shared by several tags is hashed once."""
        import numpy as np

        slot: dict[str, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        for row, tag in enumerate(tags):
            padded = f"^{tag}$"
            for i in range(len(padded) - 2):
                tri = padded[i:i + 3]
                col = slot.get(tri)
                if col is None:
                    digest = hashlib.sha1(tri.encode("utf-8")).digest()
                    col = slot[tri] = int.from_bytes(digest[:4], "big") % self.dim
                rows.append(row)
                cols.append(col)
        counts = np.zeros((len(tags), self.dim))
        np.add.at(counts, (rows, cols), 1.0)
        norms = np.linalg.norm(counts, axis=1)
        if not norms.all():
            raise ZeroVector(f"no trigrams for tag {tags[int(np.argmin(norms))]!r}")
        return counts / norms[:, None]


class RemoteEmbedder(JsonPost):
    """HTTP encoder endpoint adapter (POST {"input": tag} -> {"embedding": [...]})."""

    env, what = "PROCTAG_EMBED", "embedding"

    def embed(self, tag: str) -> np.ndarray:
        import numpy as np

        return self._post({"input": tag},
                          lambda reply: np.asarray(reply["embedding"], dtype=float))


class CachingEmbedder(Store):
    """Content-addressed vector cache around an inner provider."""

    what, value_key, value_type = "embedding", "vector", list

    def _checked(self, data: bytes) -> dict[str, Any]:
        """The entry of a log line whose vector is a non-empty list of finite float64 values."""
        entry = super()._checked(data)
        vector = entry["vector"]
        if not (vector and {int, float}.issuperset(map(type, vector))
                and all(abs(x) <= sys.float_info.max for x in vector)):
            raise ValueError("has a 'vector' that is not a non-empty list of finite numbers")
        return entry

    def embed(self, tag: str) -> np.ndarray:
        import numpy as np

        key = hashlib.sha256(tag.encode("utf-8")).hexdigest()
        vector = self._entry(key)
        if vector is None:
            vector = self._fill(key, f"embedding cache miss for {tag!r}", lambda inner: {
                "tag": tag, "vector": [float(x) for x in inner.embed(tag)]})
        return np.asarray(vector)


# ---------------------------------------------------------------------------
# full normalization pass


@dataclass
class NormalizationResult:
    profiles: list[TagProfile]                    # aggregated stage
    stage_tags: dict[str, list[list[str]]]        # stage -> one tag list per record
    vocabularies: dict[str, dict[str, int]]       # stage -> tag -> corpus count
    assignment: ClusterAssignment
    merges: list[dict[str, Any]] = field(default_factory=list)


def normalize_corpus(profiles: list[TagProfile], embedder: EmbeddingProvider, *,
                     min_count: int | None = None,
                     dbscan_eps: float = DEFAULT_DBSCAN_EPS,
                     dbscan_min_pts: int = DEFAULT_DBSCAN_MIN_PTS,
                     min_support: int = DEFAULT_MIN_SUPPORT,
                     min_confidence: float = DEFAULT_MIN_CONFIDENCE) -> NormalizationResult:
    """Run filter -> cluster -> aggregate over the raw profiles' tag lists;
    the result's profiles pair each record with its aggregated list.

    ``min_count=None`` picks the long-tail cutoff from the corpus size.
    """
    if min_count is None:
        min_count = default_min_count(len(profiles))
    raw = [p.tags for p in profiles]
    raw_vocab = tag_frequencies(raw)
    filtered, filtered_vocab = frequency_filter(raw, min_count, raw_vocab)
    tags = sorted(filtered_vocab)
    embed_many = getattr(embedder, "embed_many", None)
    vectors = (dict(zip(tags, embed_many(tags))) if embed_many is not None
               else {t: embedder.embed(t) for t in tags})
    assignment = dbscan(vectors, dbscan_eps, dbscan_min_pts,
                        frequencies=filtered_vocab)
    clustered = apply_clusters(filtered, assignment)
    clustered_vocab = tag_frequencies(clustered)
    stats = mine_adjacent_pairs(clustered, min_support)
    aggregated, merges = aggregate_pairs(clustered, stats, min_support, min_confidence)
    aggregated_vocab = tag_frequencies(aggregated)
    return NormalizationResult(
        profiles=[TagProfile(p.record_id, tags, p.source)
                  for p, tags in zip(profiles, aggregated)],
        stage_tags={"raw": raw, "filtered": filtered,
                    "clustered": clustered, "aggregated": aggregated},
        vocabularies={"raw": raw_vocab, "filtered": filtered_vocab,
                      "clustered": clustered_vocab, "aggregated": aggregated_vocab},
        assignment=assignment,
        merges=merges,
    )
