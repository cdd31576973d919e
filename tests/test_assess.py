from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from proctag.assess import (_selection_sequence, assess_dataset, complexity, diversity,
                            sample, tag_coverage)
from proctag.config import SamplingConfig
from proctag.tagnorm import TagProfile


def prof(record_id, tags):
    return TagProfile(record_id=record_id, tags=list(tags))


def random_instance(rng, max_records=12, max_tags=9):
    n_tags = rng.randint(2, max_tags)
    universe = [f"t{i}" for i in range(n_tags)]
    n = rng.randint(2, max_records)
    return [prof(f"r{i:02d}", rng.sample(universe, rng.randint(0, min(4, n_tags))))
            for i in range(n)]


def random_spec(ratio, seed):
    return SamplingConfig(mode="random", ratio=ratio, seed=seed)


# tiny vocabularies and id pools force equal-gain ties, duplicate record_ids,
# repeated tags within a profile and empty profiles
selection_instance = st.integers(1, 8).flatmap(lambda n_tags: st.integers(1, 12).flatmap(
    lambda n_ids: st.lists(
        st.builds(prof, st.sampled_from([f"r{i}" for i in range(n_ids)]),
                  st.lists(st.sampled_from([f"t{i}" for i in range(n_tags)]), max_size=6)),
        max_size=30)))


def assert_same_sequence(profiles, reference=oracles.selection_sequence_reference):
    """Both phases pick the same input positions as the reference, by
    default the exhaustive oracle."""
    position = {id(p): i for i, p in enumerate(profiles)}
    got = _selection_sequence(profiles)
    want = reference(profiles)
    for got_phase, want_phase in zip(got, want):
        assert [position[id(p)] for p in got_phase] == [position[id(p)] for p in want_phase]


# the unique minimum cover is the three disjoint triples r1, r2, r3
TOY_8 = [
    prof("r1", ["t1", "t2", "t3"]),
    prof("r2", ["t4", "t5", "t6"]),
    prof("r3", ["t7", "t8", "t9"]),
    prof("r4", ["t1", "t4"]),
    prof("r5", ["t2", "t5"]),
    prof("r6", ["t3", "t7"]),
    prof("r7", ["t6", "t8"]),
    prof("r8", ["t9", "t1"]),
]


class TestCounts:
    def test_complexity_union(self):
        assert complexity([prof("r1", ["a", "b"]), prof("r2", ["b", "c"])]) == 3

    def test_complexity_empty(self):
        assert complexity([]) == 0

    def test_complexity_matches_set_union(self, rng):
        profiles = random_instance(rng, max_records=40)
        expected = len(set().union(*(set(p.tags) for p in profiles)) if profiles else set())
        assert complexity(profiles) == expected

    def test_diversity_simple(self):
        assert diversity([prof("r1", ["a", "b"]), prof("r2", ["b", "c"])]) == 2.0

    def test_diversity_uneven(self):
        assert diversity([prof("r1", ["a"]), prof("r2", ["a", "b", "c"])]) == 2.0

    def test_diversity_counts_distinct(self, rng):
        profiles = random_instance(rng, max_records=30)
        expected = sum(len(set(p.tags)) for p in profiles) / len(profiles)
        assert diversity(profiles) == pytest.approx(expected)

    def test_diversity_empty_dataset(self):
        assert diversity([]) == 0.0


class TestCoverage:
    def test_full_subset(self):
        full = [prof("r1", ["a"]), prof("r2", ["b"])]
        assert tag_coverage(full, full) == 1.0

    def test_half(self):
        full = [prof(f"r{i}", [f"t{i}"]) for i in range(10)]
        assert tag_coverage(full[:5], full) == 0.5

    def test_matches_set_ratio(self, rng):
        full = random_instance(rng, max_records=30)
        subset = [p for p in full if rng.random() < 0.5]
        full_tags = set().union(*(set(p.tags) for p in full))
        if not full_tags:
            assert tag_coverage(subset, full) is None
            return
        covered = set().union(*(set(p.tags) for p in subset)) if subset else set()
        assert tag_coverage(subset, full) == pytest.approx(len(covered) / len(full_tags))

    def test_empty_vocabulary(self):
        assert tag_coverage([], [prof("r1", [])]) is None
        assert tag_coverage([prof("r1", [])], [prof("r1", [])]) is None
        assert tag_coverage([], []) is None


class TestSample:
    def test_budget_at_least_n_takes_all(self):
        ids = sample(TOY_8, SamplingConfig(mode="budget", budget=50))
        assert sorted(ids) == sorted(p.record_id for p in TOY_8)

    def test_budget_zero(self):
        assert sample(TOY_8, SamplingConfig(mode="budget", budget=0)) == []

    def test_toy_instance_matches_exhaustive_optimum(self):
        tagsets = [set(p.tags) for p in TOY_8]
        k, covers = oracles.min_cover_exhaustive(tagsets)
        assert k == 3 and len(covers) == 1  # unique optimum by construction
        optimal_ids = {TOY_8[i].record_id for i in covers[0]}
        ids = sample(TOY_8, SamplingConfig(mode="budget", budget=3))
        assert set(ids) == optimal_ids
        assert tag_coverage([p for p in TOY_8 if p.record_id in set(ids)], TOY_8) == 1.0

    def test_coverage_monotone_in_budget(self, rng):
        for _ in range(40):
            profiles = random_instance(rng)
            if not any(p.tags for p in profiles):
                continue
            prev = -1.0
            for budget in range(len(profiles) + 1):
                ids = set(sample(profiles, SamplingConfig(mode="budget", budget=budget)))
                subset = [p for p in profiles if p.record_id in ids]
                cov = tag_coverage(subset, profiles) if subset else 0.0
                assert cov >= prev
                prev = cov
            assert prev == 1.0  # full budget covers everything

    def test_smaller_budget_is_prefix_of_larger(self, rng):
        profiles = random_instance(rng)
        seq = sample(profiles, SamplingConfig(mode="budget", budget=len(profiles)))
        for budget in range(len(profiles)):
            assert sample(profiles, SamplingConfig(mode="budget", budget=budget)) == seq[:budget]

    def test_ratio_mode_ceil(self):
        ids = sample(TOY_8, SamplingConfig(mode="ratio", ratio=0.4))  # ceil(3.2) = 4
        assert len(ids) == 4

    def test_coverage_mode_stops_at_target(self):
        ids = sample(TOY_8, SamplingConfig(mode="coverage", coverage=1.0))
        assert len(ids) == 3
        subset = [p for p in TOY_8 if p.record_id in set(ids)]
        assert tag_coverage(subset, TOY_8) == 1.0
        partial = sample(TOY_8, SamplingConfig(mode="coverage", coverage=0.33))
        assert len(partial) == 1  # first pick covers 3 of 9 tags

    @settings(max_examples=300, deadline=None)
    @example(profiles=[], target=0.0)
    @example(profiles=[prof("r0", []), prof("r1", [])], target=1.0)
    @example(profiles=TOY_8, target=0.0)
    @example(profiles=TOY_8, target=1.0)
    @given(profiles=selection_instance,
           target=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    def test_coverage_mode_is_the_shortest_prefix_reaching_the_target(self, profiles, target):
        phase1 = _selection_sequence(profiles)[0]
        universe = set().union(*(p.tags for p in profiles))

        def reaches(k):  # with no tag to cover, the empty prefix does
            covered = set().union(*(p.tags for p in phase1[:k]))
            return not universe or len(covered) / len(universe) >= target

        k = min(k for k in range(len(phase1) + 1) if reaches(k))
        got = sample(profiles, SamplingConfig(mode="coverage", coverage=target))
        assert got == [p.record_id for p in phase1[:k]]

    def test_coverage_target_above_one_infeasible(self):
        with pytest.raises(ValueError, match=r"^coverage target 1\.2 exceeds 1\.0$"):
            sample(TOY_8, SamplingConfig(mode="coverage", coverage=1.2))

    def test_empty_profiles_selected_last(self):
        profiles = [prof("r_empty", []), prof("r_a", ["a"]), prof("r_b", ["a", "b"])]
        ids = sample(profiles, SamplingConfig(mode="budget", budget=3))
        assert ids[-1] == "r_empty"

    def test_deterministic(self, rng):
        profiles = random_instance(rng)
        spec = SamplingConfig(mode="budget", budget=max(1, len(profiles) // 2))
        assert sample(profiles, spec) == sample(profiles, spec)

    def test_greedy_full_coverage_within_approximation_budget(self, rng):
        # Chvatal: greedy needs at most H(d) * optimum picks, d = largest profile
        for _ in range(60):
            profiles = random_instance(rng)
            tagsets = [set(p.tags) for p in profiles]
            if not any(tagsets):
                continue
            k_opt, _ = oracles.min_cover_exhaustive(tagsets)
            d = max(len(s) for s in tagsets)
            budget = min(len(profiles), math.ceil(k_opt * oracles.harmonic(d)))
            ids = set(sample(profiles, SamplingConfig(mode="budget", budget=budget)))
            subset = [p for p in profiles if p.record_id in ids]
            assert tag_coverage(subset, profiles) == 1.0

    def test_greedy_not_worse_than_random(self, rng):
        profiles = random_instance(rng, max_records=12)
        if not any(p.tags for p in profiles):
            profiles.append(prof("rx", ["a", "b"]))
        n = len(profiles)
        for k in (1, max(1, n // 2), n):
            greedy_ids = set(sample(profiles, SamplingConfig(mode="budget", budget=k)))
            greedy_cov = tag_coverage([p for p in profiles if p.record_id in greedy_ids],
                                      profiles)
            total = 0.0
            for seed in range(120):
                ids = set(sample(profiles, random_spec(k / n, seed)))
                subset = [p for p in profiles if p.record_id in ids]
                total += tag_coverage(subset, profiles) if subset else 0.0
            assert greedy_cov >= total / 120 - 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sample(TOY_8, SamplingConfig(mode="budget"))
        with pytest.raises(ValueError):
            sample(TOY_8, SamplingConfig(mode="nope", budget=1))
        with pytest.raises(ValueError):
            sample(TOY_8, SamplingConfig(mode="ratio", ratio=1.5))

    @pytest.mark.parametrize("target", [None, math.nan, math.inf, -math.inf, -0.1])
    def test_missing_non_finite_or_negative_coverage_target_rejected(self, target):
        with pytest.raises(ValueError):
            sample(TOY_8, SamplingConfig(mode="coverage", coverage=target))


class TestSelectionSequence:
    @settings(max_examples=300, deadline=None)
    @given(profiles=selection_instance)
    def test_matches_exhaustive_oracle(self, profiles):
        assert_same_sequence(profiles)

    def test_matches_exhaustive_oracle_on_zipf_corpus(self):
        rng = random.Random(2407)
        vocab = [f"t{k:03d}" for k in range(200)]
        weights = [1 / (k + 1) for k in range(200)]
        profiles = [prof(f"r{i:04d}", rng.choices(vocab, weights, k=rng.randint(2, 8)))
                    for i in range(2000)]
        assert len(_selection_sequence(profiles)[0]) > 50  # many picks re-key stale gains
        assert_same_sequence(profiles)

    @settings(max_examples=300, deadline=None)
    @given(profiles=selection_instance)
    def test_matches_tuple_keyed_lazy_greedy(self, profiles):
        assert_same_sequence(profiles, oracles.selection_sequence_tuple_keyed)

    def test_matches_tuple_keyed_lazy_greedy_on_20k_zipf_corpus(self):
        # 20k profiles of 2-8 tags drawn Zipf-distributed over 2000 tags, in
        # an input order that is not record_id order, with some ids repeated
        # and some profiles empty
        rng = random.Random(1312)
        vocab = [f"tag_{k:04d}" for k in range(2000)]
        weights = [1 / (k + 1) for k in range(2000)]
        ids = [f"r{i:05d}" for i in range(20_000)]
        rng.shuffle(ids)
        ids[::97] = rng.choices(ids, k=len(ids[::97]))
        profiles = [prof(rid, [] if i % 89 == 0
                         else rng.choices(vocab, weights, k=rng.randint(2, 8)))
                    for i, rid in enumerate(ids)]
        phase1, phase2 = _selection_sequence(profiles)
        assert len(phase1) > 500 and any(not p.tags for p in phase2)
        assert_same_sequence(profiles, oracles.selection_sequence_tuple_keyed)


class TestRandomSample:
    def test_ratio_one_takes_all(self):
        ids = sample(TOY_8, random_spec(1.0, seed=1))
        assert sorted(ids) == sorted(p.record_id for p in TOY_8)

    def test_same_seed_same_sample(self):
        assert sample(TOY_8, random_spec(0.5, seed=9)) == sample(TOY_8, random_spec(0.5, seed=9))

    def test_seed_drives_the_documented_draw(self):
        ids = [p.record_id for p in TOY_8]
        for seed in range(5):
            expected = random.Random(seed).sample(ids, math.ceil(0.4 * len(ids)))
            assert sample(TOY_8, random_spec(0.4, seed)) == expected

    def test_monte_carlo_uniformity(self):
        # 500 seeds keeps the +-0.1 band at ~4.5 sigma per id
        profiles = [prof(f"r{i:04d}", ["t"]) for i in range(1000)]
        counts: Counter = Counter()
        n_seeds = 500
        for seed in range(n_seeds):
            ids = sample(profiles, random_spec(0.5, seed))
            assert len(ids) == 500
            counts.update(ids)
        freqs = [counts[p.record_id] / n_seeds for p in profiles]
        assert all(0.4 <= f <= 0.6 for f in freqs)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            sample(TOY_8, random_spec(0.0, seed=0))


class TestAssessDataset:
    def test_report_fields(self):
        assert assess_dataset(TOY_8) == {
            "distinct_tags": 9, "record_count": 8,
            "mean_distinct_tags_per_record": pytest.approx(
                sum(len(set(p.tags)) for p in TOY_8) / 8)}
