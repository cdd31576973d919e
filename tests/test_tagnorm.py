from __future__ import annotations

import itertools
import json
import math
import os
import random
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_together
from proctag import tagnorm
from proctag.errors import ProcTagError
from proctag.tagnorm import (AdjacentPairStat, CachingEmbedder, ClusterAssignment,
                             HashingEmbedder, RemoteEmbedder, TagProfile, ZeroVector,
                             aggregate_pairs, apply_clusters, dbscan, default_min_count,
                             frequency_filter, merge_name, mine_adjacent_pairs,
                             normalize_corpus, tag_frequencies)


def random_tag_lists(rng, n, vocab, max_len=5):
    return [[rng.choice(vocab) for _ in range(rng.randint(0, max_len))] for _ in range(n)]


def random_profiles(rng, n, vocab, max_len=5):
    return [TagProfile(f"r{i:04d}", tags)
            for i, tags in enumerate(random_tag_lists(rng, n, vocab, max_len))]


class TestFrequencyFilter:
    def test_long_tail_removed_everywhere(self):
        tag_lists = [["rare", "common"], ["common", "rare"], ["common", "rare", "common"],
                     ["common"]]
        # "rare" occurs 3 times, "common" 5
        filtered, vocab = frequency_filter(tag_lists, 4)
        assert all("rare" not in tags for tags in filtered)
        assert vocab == {"common": 5}

    def test_identity_when_all_frequent(self):
        filtered, _ = frequency_filter([["a", "b"], ["a", "b"]], 2)
        assert filtered == [["a", "b"], ["a", "b"]]

    def test_matches_bruteforce_count(self, rng):
        vocab = [f"t{i}" for i in range(12)]
        tag_lists = random_tag_lists(rng, 60, vocab)
        filtered, voc = frequency_filter(tag_lists, 4)
        expected = {t: c for t, c in oracles.frequencies_reference(tag_lists).items()
                    if c >= 4}
        assert voc == expected
        surviving = oracles.frequencies_reference(filtered)
        assert all(c >= 4 for c in surviving.values())
        assert surviving == expected
        # counts a caller already has give the same result
        assert frequency_filter(tag_lists, 4, tagnorm.tag_frequencies(tag_lists)) == (filtered,
                                                                                    voc)

    def test_emptied_list_retained_in_place(self):
        filtered, _ = frequency_filter([["solo"], ["a"] * 4, []], 4)
        assert filtered == [[], ["a"] * 4, []]

    def test_order_preserved(self):
        filtered, _ = frequency_filter([["b", "x", "a", "x", "b"]] + [["a", "b"]] * 4, 4)
        assert filtered[0] == ["b", "a", "b"]

    def test_default_min_count_by_corpus_size(self):
        assert default_min_count(50_000) == 4
        assert default_min_count(20_000) == 2


class TestDbscan:
    def test_identical_vectors_one_cluster(self):
        v = np.array([1.0, 2.0])
        vectors = {"a": v, "b": v, "c": v}
        assignment = dbscan(vectors, eps=0.01, min_pts=2)
        labels = set(assignment.labels.values())
        assert labels == {0}

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, -math.inf])
    def test_non_positive_or_nan_eps_rejected(self, eps):
        # NaN makes every distance comparison false, which would leave every
        # tag noise instead of failing
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="eps must be positive"):
            dbscan({"a": v, "b": v}, eps=eps, min_pts=1)

    @pytest.mark.parametrize("tag", ["a", "b"])
    @pytest.mark.parametrize("vector, reason", [
        ([1.0, 0.0, 0.0], "the vectors of tags 'a' and '{other}' differ in length"),
        ([math.nan, 1.0], "the vector of tag '{tag}' is not finite"),
        ([1.0, -math.inf], "the vector of tag '{tag}' is not finite"),
        ([], "the vector of tag '{tag}' is not a non-empty list of numbers"),
        (["a", "b"], "the vector of tag '{tag}' is not a non-empty list of numbers"),
        ([[1.0, 0.0]], "the vector of tag '{tag}' is not a non-empty list of numbers"),
    ], ids=["ragged", "nan", "inf", "empty", "strings", "nested"])
    def test_a_bad_vector_is_refused_naming_its_tag(self, tag, vector, reason):
        # a ragged vector is named with the first tag's, whose length it lacks
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                   "c": np.array([1.0, 1.0]), tag: np.asarray(vector)}
        with pytest.raises(ValueError) as info:
            dbscan(vectors, eps=0.1, min_pts=1)
        assert str(info.value) == reason.format(tag=tag, other="b" if tag == "a" else tag)

    def test_tiny_eps_all_noise(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                   "c": np.array([1.0, 1.0])}
        assignment = dbscan(vectors, eps=1e-6, min_pts=2)
        assert all(lab is None for lab in assignment.labels.values())

    def test_two_blobs_and_outlier_match_reference(self, rng):
        nprng = np.random.default_rng(77)
        vectors = {}
        for i in range(15):
            vectors[f"a{i:02d}"] = np.array([10.0, 0.0, 0.0, 0.0]) + nprng.normal(0, 0.05, 4)
        for i in range(15):
            vectors[f"b{i:02d}"] = np.array([0.0, 10.0, 0.0, 0.0]) + nprng.normal(0, 0.05, 4)
        vectors["outlier"] = np.array([0.0, 0.0, 5.0, -5.0])
        assignment = dbscan(vectors, eps=0.01, min_pts=3)
        ref_labels, ref_reps = oracles.dbscan_reference(vectors, eps=0.01, min_pts=3)
        assert assignment.labels == ref_labels
        assert assignment.representatives == ref_reps
        assert assignment.labels["outlier"] is None
        assert len({lab for lab in assignment.labels.values() if lab is not None}) == 2

    def test_representative_highest_frequency_then_lexicographic(self):
        v = np.array([1.0, 0.0])
        vectors = {"beta": v, "alpha": v, "gamma": v}
        assignment = dbscan(vectors, eps=0.1, min_pts=2,
                            frequencies={"beta": 9, "alpha": 1, "gamma": 9})
        assert assignment.representatives == {0: "beta"}
        no_freq = dbscan(vectors, eps=0.1, min_pts=2)
        assert no_freq.representatives == {0: "alpha"}

    def test_deterministic(self):
        nprng = np.random.default_rng(3)
        vectors = {f"t{i:03d}": nprng.normal(0, 1, 8) for i in range(40)}
        a = dbscan(vectors, eps=0.4, min_pts=3)
        b = dbscan(vectors, eps=0.4, min_pts=3)
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           dim=st.integers(2, 6), n_centres=st.integers(1, 5),
           eps=st.sampled_from([1e-4, 1e-3, 0.015, 0.1]), min_pts=st.integers(1, 6),
           rows_per_block=st.integers(1, 7))
    def test_row_blocks_match_reference(self, data, seed, n, dim, n_centres, eps, min_pts,
                                        rows_per_block):
        # exact duplicates, near duplicates (distance ~1e-7 and ~3e-4) and
        # stragglers around a few centres, clustered a few rows at a time
        nprng = np.random.default_rng(seed)
        centres = nprng.normal(0, 1, (n_centres, dim))
        vectors = {}
        for i in range(n):
            centre = centres[data.draw(st.integers(0, n_centres - 1))]
            noise = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
            vectors[f"t{i:03d}"] = centre + nprng.normal(0, noise, dim)
        freqs = {t: data.draw(st.integers(1, 5)) for t in vectors}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tagnorm, "DBSCAN_BLOCK_BYTES", rows_per_block * 8 * n)
            got = dbscan(vectors, eps, min_pts, frequencies=freqs)
        ref_labels, ref_reps = oracles.dbscan_reference(vectors, eps, min_pts,
                                                        frequencies=freqs)
        assert got.labels == ref_labels
        assert got.representatives == ref_reps

    def test_memory_stays_below_half_the_distance_matrix(self):
        # tracemalloc sees numpy's buffers; a dense n x n float64 matrix
        # alone would be 72 MB here
        n = 3000
        mat = np.random.default_rng(11).normal(0, 1, (n, 16))
        vectors = {f"t{i:04d}": mat[i] for i in range(n)}
        tracemalloc.start()
        try:
            dbscan(vectors, eps=0.01, min_pts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2


class TestApplyClusters:
    def test_rewrite_to_representative(self):
        assignment = ClusterAssignment(
            labels={"find_table": 0, "extract_table": 0, "other": None},
            representatives={0: "find_table"})
        assert apply_clusters([["extract_table", "other"]], assignment) == [
            ["find_table", "other"]]

    def test_rewrite_collapse(self):
        assignment = ClusterAssignment(
            labels={"find_table": 0, "extract_table": 0},
            representatives={0: "find_table"})
        assert apply_clusters([["extract_table", "find_table"]], assignment) == [["find_table"]]

    def test_no_clusters_no_change(self):
        assignment = ClusterAssignment(labels={"a": None}, representatives={})
        assert apply_clusters([["a", "b"]], assignment) == [["a", "b"]]

    def test_lengths_never_increase(self, rng):
        vocab = ["a", "b", "c", "d"]
        assignment = ClusterAssignment(labels={"a": 0, "b": 0, "c": None, "d": None},
                                       representatives={0: "a"})
        tag_lists = random_tag_lists(rng, 30, vocab)
        out = apply_clusters(tag_lists, assignment)
        for before, after in zip(tag_lists, out):
            assert len(after) <= len(before)


class TestMineAdjacentPairs:
    def test_three_tag_profile(self):
        stats = mine_adjacent_pairs([["extract_list", "find_item", "get_value"]])
        pairs = {(s.first, s.second) for s in stats}
        assert pairs == {("extract_list", "find_item"), ("find_item", "get_value")}

    def test_non_adjacent_pair_not_counted(self):
        stats = mine_adjacent_pairs([["extract_list", "x", "find_item"]])
        pairs = {(s.first, s.second) for s in stats}
        assert ("extract_list", "find_item") not in pairs

    def test_one_support_unit_per_profile(self):
        stats = mine_adjacent_pairs([["a", "b", "a", "b"]])
        by_pair = {(s.first, s.second): s for s in stats}
        assert by_pair[("a", "b")].support == 1
        assert by_pair[("a", "b")].confidence == 1.0

    def test_matches_sliding_window_oracle(self, rng):
        vocab = [f"t{i}" for i in range(8)]
        tag_lists = random_tag_lists(rng, 80, vocab)
        stats = mine_adjacent_pairs(tag_lists)
        expected = oracles.adjacent_pairs_reference(tag_lists)
        got = {(s.first, s.second): (s.support, s.confidence) for s in stats}
        assert got == expected


def _pair_corpus(n_pair, adjacent=True, filler_start=0):
    """Tag lists with the (extract_list, find_item) pair plus filler lists."""
    tag_lists = []
    for i in range(n_pair):
        tags = ["extract_list", "find_item"] if adjacent else \
            ["extract_list", f"gap{i % 3}", "find_item"]
        tag_lists.append(tags)
    for i in range(20):
        tag_lists.append([f"noise{(filler_start + i) % 4}", "get_value"])
    return tag_lists


class TestAggregatePairs:
    def test_merges_at_thresholds(self):
        profiles = _pair_corpus(40)
        stats = mine_adjacent_pairs(profiles)
        merged, applied = aggregate_pairs(profiles, stats, 40, 0.99)
        assert any(m["merged"] == "extract_list_item" for m in applied)
        assert merged[:40] == [["extract_list_item"]] * 40

    def test_support_39_no_merge(self):
        profiles = _pair_corpus(39)
        stats = mine_adjacent_pairs(profiles)
        merged, applied = aggregate_pairs(profiles, stats, 40, 0.99)
        assert applied == []
        assert merged[0] == ["extract_list", "find_item"]

    def test_low_confidence_no_merge(self):
        profiles = _pair_corpus(100)
        # extract_list present without the pair in 3 extra profiles: conf 100/103 < 0.99
        for i in range(3):
            profiles.append(["extract_list", "get_value"])
        stats = mine_adjacent_pairs(profiles)
        merged, applied = aggregate_pairs(profiles, stats, 40, 0.99)
        assert applied == []

    def test_thresholds_verifiable_from_stats(self, rng):
        vocab = [f"t{i}" for i in range(5)]
        profiles = random_tag_lists(rng, 300, vocab)
        stats = mine_adjacent_pairs(profiles)
        _, applied = aggregate_pairs(profiles, stats, 10, 0.25)
        by_pair = {(s.first, s.second): s for s in stats}
        for m in applied:
            st = by_pair[(m["first"], m["second"])]
            assert st.support >= 10 and st.confidence >= 0.25

    def test_self_pairs_never_merge(self):
        profiles = [["a", "b", "a"]] * 50
        stats = [AdjacentPairStat("a", "a", 50, 1.0)]
        _, applied = aggregate_pairs(profiles, stats, 1, 0.0)
        assert applied == []


class TestMergeName:
    def test_documented_example(self):
        assert merge_name("extract_list", "find_item") == "extract_list_item"

    def test_token_rule(self):
        assert merge_name("locate_table", "extract_cell") == "locate_table_cell"

    def test_degenerate(self):
        assert merge_name("find_row", "find_row") is None
        assert merge_name("find_row", "get_row") is None
        assert merge_name("__", "a_1") is None  # "___1" normalizes to nothing

    def test_shared_tokens_dropped(self):
        assert merge_name("find_table_row", "get_row_cell") == "find_table_row_cell"


class TestHashingEmbedder:
    def test_pure_and_unit_norm(self):
        emb = HashingEmbedder(dim=64)
        v1 = emb.embed("find_table")
        v2 = emb.embed("find_table")
        assert np.array_equal(v1, v2)
        assert v1.shape == (64,)
        assert np.linalg.norm(v1) == pytest.approx(1.0)

    def test_distinct_tags_distinct_vectors(self):
        emb = HashingEmbedder()
        u, v = emb.embed("find_table"), emb.embed("read_date")
        assert 1 - u @ v / (np.linalg.norm(u) * np.linalg.norm(v)) > 0.1

    def test_caching_wrapper_replays(self, tmp_path):
        emb = CachingEmbedder(tmp_path, inner=HashingEmbedder())
        v1 = emb.embed("find_table")
        replay = CachingEmbedder(tmp_path, inner=None)
        assert np.allclose(replay.embed("find_table"), v1)

    def test_concurrent_fills_of_one_key(self, tmp_path):
        class SlowEmbedder:
            """Answers only once all four fillers are inside it, so each of
            them has missed the cache before any of them writes it."""

            gate = threading.Barrier(4, timeout=10)

            def embed(self, tag):
                self.gate.wait()
                return HashingEmbedder().embed(tag)

        emb = CachingEmbedder(tmp_path, inner=SlowEmbedder())
        tags = [f"find_table_{i}" for i in range(40)]
        for tag in tags:
            assert run_together(lambda: emb.embed(tag)) == []
        assert os.listdir(tmp_path) == ["entries.jsonl"]
        entries = [json.loads(line)
                   for line in (tmp_path / "entries.jsonl").read_bytes().splitlines()]
        assert len({entry["key"] for entry in entries}) == len(entries) == len(tags)
        for cached in entries:
            assert np.allclose(cached["vector"], HashingEmbedder().embed(cached["tag"]))


    @settings(max_examples=300, deadline=None)
    @given(tags=st.lists(st.text(min_size=1, max_size=12)
                         | st.text(st.characters(min_codepoint=0x10000), min_size=1, max_size=4)
                         | st.text(min_size=1, max_size=1)
                         | st.tuples(st.text(alphabet="ab_é", min_size=1, max_size=3),
                                     st.integers(2, 6)).map(lambda rep: rep[0] * rep[1]),
                         max_size=12),
           dim=st.sampled_from([1, 7, 64, 256]))
    def test_embed_many_is_bit_identical_to_the_per_tag_embed(self, tags, dim):
        reference = oracles.HashingEmbedder(dim)
        emb = HashingEmbedder(dim)
        rows = emb.embed_many(tags)
        assert rows.shape == (len(tags), dim) and rows.dtype == np.float64
        for tag, row in zip(tags, rows):
            want = reference.embed(tag).view(np.uint64)
            assert np.array_equal(row.view(np.uint64), want)
            assert np.array_equal(emb.embed(tag).view(np.uint64), want)

    def test_empty_tag_raises_the_same_zero_vector(self):
        with pytest.raises(ZeroVector) as want:
            oracles.HashingEmbedder().embed("")
        for call in (lambda: HashingEmbedder().embed(""),
                     lambda: HashingEmbedder().embed_many(["find_table", ""])):
            with pytest.raises(ZeroVector) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_normalize_embeds_the_vocabulary_at_once_or_tag_by_tag(self):
        class Counted(HashingEmbedder):
            calls: list = []

            def embed(self, tag):
                self.calls.append("embed")
                return super().embed(tag)

            def embed_many(self, tags):
                self.calls.append("embed_many")
                return super().embed_many(tags)

        rng = random.Random(3)
        vocab = [f"{verb}_{noun}" for verb in ("find", "read", "sum") for noun in ("row", "rows",
                                                                                "cell", "date")]
        profiles = random_profiles(rng, 300, vocab)
        # a radius wide enough that near-spellings ("row", "rows") cluster
        at_once = normalize_corpus(profiles, Counted(), min_count=2, dbscan_eps=0.3)
        assert Counted.calls == ["embed_many"]
        assert at_once.assignment.representatives
        # a provider without embed_many, such as the old embedder, is asked per tag
        per_tag = normalize_corpus(profiles, oracles.HashingEmbedder(), min_count=2,
                                   dbscan_eps=0.3)
        assert at_once.assignment == per_tag.assignment
        assert [p.tags for p in at_once.profiles] == [p.tags for p in per_tag.profiles]


class _EmbedHandler(BaseHTTPRequestHandler):
    """Answers POST {"input": tag} with a vector made from the tag; the path
    picks a failure: /status answers 503, /malformed a body without a
    vector."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((body["input"], self.headers.get("Authorization")))
        status, reply = 200, {"embedding": [float(len(body["input"])), 1.0, 0.5]}
        if self.path == "/status":
            status = 503
        elif self.path == "/malformed":
            reply = {"vector": reply["embedding"]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteEmbedder:
    def test_round_trip(self, embed_server):
        server, url = embed_server
        vec = RemoteEmbedder(url=url + "/v1/embed", api_key="k").embed("find_table")
        assert vec.tolist() == [10.0, 1.0, 0.5]
        assert server.seen == [("find_table", "Bearer k")]

    def test_key_and_url_read_from_the_environment(self, embed_server, monkeypatch):
        server, url = embed_server
        monkeypatch.setenv("PROCTAG_EMBED_URL", url + "/v1/embed")
        monkeypatch.setenv("PROCTAG_EMBED_KEY", "env-key")
        assert RemoteEmbedder().embed("ab").tolist() == [2.0, 1.0, 0.5]
        assert server.seen == [("ab", "Bearer env-key")]

    def test_unreachable_is_error(self):
        emb = RemoteEmbedder(url="http://127.0.0.1:9/nope", timeout=0.2)
        with pytest.raises(ProcTagError, match="transport failure"):
            emb.embed("x")

    def test_non_200_is_error(self, embed_server):
        _server, url = embed_server
        with pytest.raises(ProcTagError, match="HTTP 503"):
            RemoteEmbedder(url=url + "/status").embed("x")

    def test_malformed_body_is_error(self, embed_server):
        _server, url = embed_server
        with pytest.raises(ProcTagError, match="unexpected embedding response"):
            RemoteEmbedder(url=url + "/malformed").embed("x")

    def test_missing_url_rejected(self, monkeypatch):
        monkeypatch.delenv("PROCTAG_EMBED_URL", raising=False)
        with pytest.raises(ProcTagError, match="PROCTAG_EMBED_URL"):
            RemoteEmbedder()


class TestNormalizeCorpus:
    def test_stage_flow_and_determinism(self, rng):
        vocab = [f"tag_{c}" for c in "abcdefgh"]
        profiles = random_profiles(rng, 120, vocab)
        results = [normalize_corpus([TagProfile(p.record_id, list(p.tags)) for p in profiles],
                                    HashingEmbedder(), min_count=4)
                   for _ in range(2)]
        assert results[0].profiles == results[1].profiles
        assert results[0].vocabularies["filtered"] == results[1].vocabularies["filtered"]
        # the profiles pair each record with its list of the last stage
        assert [(p.record_id, p.tags) for p in results[0].profiles] == list(zip(
            (p.record_id for p in profiles), results[0].stage_tags["aggregated"]))

    def test_post_filter_soundness(self, rng):
        vocab = [f"t{i}" for i in range(15)]
        profiles = random_profiles(rng, 50, vocab)
        result = normalize_corpus(profiles, HashingEmbedder(), min_count=4)
        recount = tag_frequencies(result.stage_tags["filtered"])
        assert all(c >= 4 for c in recount.values())


# ---------------------------------------------------------------------------
# the counting passes against the per-profile code they replaced
# (tests/oracles.py keeps it verbatim)

# names of one to three distinct tokens: merging two of them often yields a
# third that already exists, or the first tag of a later pair
_TOKENS = ("a", "b", "c")
_NAMES = ["_".join(p) for n in (1, 2, 3) for p in itertools.permutations(_TOKENS, n)]
_SOURCES = ("grammar", "fallback", "none")


class _GroupEmbedder:
    """Tags of one group share a direction (cosine distance 0), so dbscan can
    cluster them; every other name has a direction of its own, and the
    one-off tags share one more."""

    def __init__(self, groups):
        self.groups = groups

    def embed(self, tag):
        vec = np.zeros(4 + len(_NAMES))
        axis = 3 + _NAMES.index(tag) if tag in _NAMES else -1
        vec[self.groups.get(tag, axis)] = 1.0
        return vec


@st.composite
def _corpora(draw):
    """Small corpora over a few of the names, each profile a run of short
    pieces: many pairs recur often enough to merge. A piece may be a one-off
    tag, which a filter drops, leaving empty profiles and new adjacent
    duplicates. A profile may repeat a tag adjacently: a self-pair when its
    tags are taken as a clustered list."""
    names = st.sampled_from(draw(st.lists(st.sampled_from(_NAMES), min_size=3, max_size=6,
                                          unique=True)))
    pieces = draw(st.lists(st.lists(names, min_size=1, max_size=3), min_size=2, max_size=4))
    runs = draw(st.lists(st.lists(st.sampled_from(pieces) | st.none(), max_size=3),
                         min_size=4, max_size=30))
    one_off = itertools.count()
    lists = [[tag for piece in run for tag in piece or [f"z{next(one_off)}"]]
             for run in runs]
    sources = draw(st.lists(st.sampled_from(_SOURCES), min_size=len(lists),
                            max_size=len(lists)))
    return [TagProfile(f"r{i}", tags, source)
            for i, (tags, source) in enumerate(zip(lists, sources))]


def _copies(profiles):
    return [TagProfile(p.record_id, list(p.tags), p.source) for p in profiles]


def _clustered(profiles):
    """The oracle's clustered-stage records of some profiles' tags."""
    return [oracles.StageProfile(p.record_id, list(p.tags), "clustered", p.source)
            for p in profiles]


def _snapshot(result, stage_tags, emptied):
    """Everything a normalization result holds but its pair stats, given its
    tag lists by stage and each record's emptied flag, with every dict as its
    list of items, so that key order counts."""
    return {"profiles": [(p.record_id, p.tags, p.source) for p in result.profiles],
            "stage_tags": list(stage_tags.items()),
            "emptied": emptied,
            "vocabularies": [(stage, list(v.items()))
                             for stage, v in result.vocabularies.items()],
            "labels": list(result.assignment.labels.items()),
            "representatives": list(result.assignment.representatives.items()),
            "merges": [list(m.items()) for m in result.merges]}


_MERGE_COLLIDES = [TagProfile(f"r{i}", ["a", "b_c", "a_c", "c_b"]) for i in range(3)]


class TestCountingPassesMatchOracle:
    @settings(max_examples=300, deadline=None)
    @example(profiles=_MERGE_COLLIDES, groups={}, min_count=1, min_pts=2, min_support=1,
             min_confidence=0.0)
    @example(profiles=[TagProfile("r0", ["a", "b", "a"]), TagProfile("r1", ["b", "c"]),
                       TagProfile("r2", []), TagProfile("r3", ["c_a", "c"])],
             groups={"a": 0, "b": 0}, min_count=2, min_pts=1, min_support=1,
             min_confidence=0.0)
    @given(profiles=_corpora(), groups=st.dictionaries(st.sampled_from(_NAMES),
                                                       st.integers(0, 2), max_size=3),
           min_count=st.integers(1, 3), min_pts=st.integers(1, 3),
           min_support=st.integers(1, 3),
           min_confidence=st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]))
    def test_normalize_corpus(self, profiles, groups, min_count, min_pts, min_support,
                              min_confidence):
        params = dict(min_count=min_count, dbscan_min_pts=min_pts, min_support=min_support,
                      min_confidence=min_confidence)
        old = oracles.normalize_corpus(_copies(profiles), _GroupEmbedder(groups), **params)
        new = normalize_corpus(_copies(profiles), _GroupEmbedder(groups), **params)
        # the oracle's flag is the one the tags line derives from the lists
        raw, filtered = new.stage_tags["raw"], new.stage_tags["filtered"]
        derived = [bool(r) and not f for r, f in zip(raw, filtered)]
        old_tags = {stage: [p.tags for p in ps] for stage, ps in old.stage_profiles.items()}
        flags = [p.emptied_by_filter for p in old.stage_profiles["filtered"]]
        assert _snapshot(new, new.stage_tags, derived) == _snapshot(old, old_tags, flags)
        assert mine_adjacent_pairs(new.stage_tags["clustered"], min_support) == [
            s for s in oracles.mine_adjacent_pairs(old.stage_profiles["clustered"])
            if s.support >= min_support]
        # no stage shares a tag list with another: each is a snapshot of its own
        lists = [id(tags) for stage in new.stage_tags.values() for tags in stage]
        assert len(set(lists)) == len(lists)

    def test_raw_tags_are_counted_once(self, monkeypatch):
        counted = []
        count = tagnorm.tag_frequencies
        monkeypatch.setattr(tagnorm, "tag_frequencies",
                            lambda tag_lists: counted.append(tag_lists) or count(tag_lists))
        result = normalize_corpus(_copies(_MERGE_COLLIDES), _GroupEmbedder({}), min_count=1,
                                  min_support=1, min_confidence=0.0)
        assert [next(stage for stage, lists in result.stage_tags.items() if lists is tag_lists)
                for tag_lists in counted] == ["raw", "clustered", "aggregated"]

    def test_merge_collision_example_merges_into_an_existing_name(self):
        result = normalize_corpus(_copies(_MERGE_COLLIDES), _GroupEmbedder({}), min_count=1,
                                  min_support=1, min_confidence=0.0)
        assert [(m["first"], m["second"], m["merged"]) for m in result.merges] == [
            ("a", "b_c", "a_c"), ("a_c", "c_b", "a_c_b")]
        assert result.profiles[0].tags == ["a_c", "a_c_b"]

    @settings(max_examples=150, deadline=None)
    @given(profiles=_corpora(), min_support=st.integers(0, 5))
    def test_mine_adjacent_pairs_is_the_full_list_cut_at_min_support(self, profiles,
                                                                     min_support):
        full = oracles.mine_adjacent_pairs(_clustered(profiles))
        tag_lists = [p.tags for p in profiles]
        assert mine_adjacent_pairs(tag_lists) == full
        assert mine_adjacent_pairs(tag_lists, min_support) == [
            s for s in full if s.support >= min_support]

    @settings(max_examples=150, deadline=None)
    @given(profiles=_corpora(), min_support=st.integers(1, 4),
           min_confidence=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_aggregate_pairs_with_self_pairs(self, profiles, min_support, min_confidence):
        clustered = _clustered(profiles)
        old, old_merges = oracles.aggregate_pairs(
            clustered, oracles.mine_adjacent_pairs(clustered), min_support, min_confidence)
        tag_lists = [p.tags for p in profiles]
        new = aggregate_pairs(tag_lists, mine_adjacent_pairs(tag_lists, min_support),
                              min_support, min_confidence)
        assert new == ([p.tags for p in old], old_merges)
