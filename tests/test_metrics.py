from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from proctag import metrics
from proctag.metrics import (DegenerateMarginals, EmptyInput, Prediction, agreement_band,
                             anls, cohen_kappa, kappa_report, levenshtein,
                             normalized_levenshtein)

_short = st.text(max_size=8)

# lengths on both sides of one and two 64-bit words, and anything up to 140
_lengths = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]) | st.integers(0, 140)


def _text_of(alphabet):
    return _lengths.flatmap(lambda n: st.text(alphabet, min_size=n, max_size=n))


# a small alphabet makes long strings share characters; arbitrary unicode too
_strings = _text_of(st.sampled_from("ab é")) | _text_of(st.characters())


def pred(predicted, golds, record_id="r1"):
    return Prediction(record_id=record_id, predicted=predicted, golds=list(golds))


class TestNormalizedLevenshtein:
    def test_identical(self):
        assert normalized_levenshtein("hello", "hello") == 0.0

    def test_one_edit(self):
        # distance 1, longest length 5
        assert normalized_levenshtein("helo", "hello") == pytest.approx(0.2)

    def test_full_insertion(self):
        assert normalized_levenshtein("", "abc") == 1.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_case_and_whitespace_insensitive(self):
        assert normalized_levenshtein("  Total   Due ", "total due") == 0.0

    @settings(max_examples=80, deadline=None)
    @given(a=_short, b=_short)
    def test_distance_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == oracles.levenshtein_reference(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=_strings, b=_strings)
    def test_bit_parallel_distance_matches_the_dp(self, a, b):
        assert levenshtein(a, b) == oracles.levenshtein_dp(a, b)
        # equal strings, and strings sharing a long prefix or suffix
        assert levenshtein(a, a) == 0
        assert levenshtein(a + b, a) == len(b)
        assert levenshtein(b + a, a + b) == oracles.levenshtein_dp(b + a, a + b)

    @settings(max_examples=60, deadline=None)
    @given(a=_short, b=_short)
    def test_symmetry(self, a, b):
        assert normalized_levenshtein(a, b) == normalized_levenshtein(b, a)

    @settings(max_examples=60, deadline=None)
    @given(a=_short, b=_short, c=_short)
    def test_triangle_inequality_on_distance(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestAnls:
    def test_exact_matches_score_one(self):
        preds = [pred("alpha", ["alpha"], "r1"), pred("beta", ["x", "beta"], "r2")]
        assert anls(preds) == 1.0

    def test_single_near_miss(self):
        # NL 0.2 < 0.5 -> 1 - 0.2 = 0.8
        assert anls([pred("helo", ["hello"])]) == pytest.approx(0.8)

    def test_distant_answer_scores_zero(self):
        # one substitution plus five insertions over length 8 -> NL 0.75 >= 0.5
        assert oracles.levenshtein_reference("cat", "elephant") == 6
        assert normalized_levenshtein("cat", "elephant") == pytest.approx(6 / 8)
        assert anls([pred("cat", ["elephant"])]) == 0.0

    def test_gold_order_invariant(self):
        a = anls([pred("helo", ["hello", "bye"])])
        b = anls([pred("helo", ["bye", "hello"])])
        assert a == b == pytest.approx(0.8)

    def test_tau_monotonicity(self):
        preds = [pred("helo", ["hello"]), pred("cat", ["elephant"])]
        scores = [anls(preds, tau=t) for t in (0.9, 0.5, 0.2, 0.1)]
        assert all(x >= y for x, y in zip(scores, scores[1:]))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(_strings, st.lists(_strings, min_size=1, max_size=3)),
                         min_size=1, max_size=5),
           tau=st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    def test_same_floats_as_the_dp(self, rows, tau):
        preds = [pred(p, golds, f"r{i}") for i, (p, golds) in enumerate(rows)]
        fast = anls(preds, tau=tau)
        with mock.patch.object(metrics, "levenshtein", oracles.levenshtein_dp):
            assert anls(preds, tau=tau) == fast

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.5])
    def test_tau_outside_0_1_rejected(self, tau):
        with pytest.raises(ValueError, match=r"tau must be a finite number in \(0, 1\]"):
            anls([pred("helo", ["hello"])], tau=tau)

    def test_tau_1_keeps_every_similarity(self):
        assert anls([pred("cat", ["elephant"])], tau=1.0) == pytest.approx(2 / 8)

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            anls([])
        with pytest.raises(EmptyInput):
            anls([pred("x", [])])


class TestCohenKappa:
    def test_perfect_agreement(self):
        m = [[10, 0], [0, 15]]
        assert cohen_kappa(m) == 1.0

    def test_worked_example(self):
        # p_o = 0.7, p_e = (25*30 + 25*20) / 2500 = 0.5 -> kappa 0.4
        m = [[20, 5], [10, 15]]
        assert cohen_kappa(m) == pytest.approx(0.4, abs=1e-12)

    def test_chance_level_agreement(self):
        # rows proportional to column marginals -> kappa 0
        m = [[9, 1], [81, 9]]
        assert cohen_kappa(m) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_marginals(self):
        with pytest.raises(DegenerateMarginals):
            cohen_kappa([[7]])

    def test_validation(self):
        with pytest.raises(ValueError):
            cohen_kappa([[1, 2]])
        with pytest.raises(ValueError):
            cohen_kappa([[1, -2], [0, 1]])
        with pytest.raises(EmptyInput):
            cohen_kappa([[0, 0], [0, 0]])

    def test_identical_raters_score_one(self, rng):
        for _ in range(10):
            k = rng.randint(2, 4)
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                m[i][i] = rng.randint(1, 50)
            assert cohen_kappa(m) == 1.0


class TestAgreementBand:
    @pytest.mark.parametrize("value,band", [
        (-0.2, "poor"), (0.1, "slight"), (0.3, "fair"), (0.5, "moderate"),
        (0.65, "substantial"), (0.87, "almost perfect"),
    ])
    def test_bands(self, value, band):
        assert agreement_band(value) == band

    def test_report_includes_band(self):
        report = kappa_report([[20, 5], [10, 15]])
        assert report == {"kappa": pytest.approx(0.4), "band": "fair"}
