"""Answer-scoring and agreement metrics: average normalized Levenshtein
similarity with the standard 0.5 cutoff, and chance-corrected inter-rater
agreement over a confusion matrix.

Answers are normalized (trim, collapse internal whitespace, lowercase)
before edit-distance comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import ProcTagError

DEFAULT_ANLS_TAU = 0.5


class EmptyInput(ProcTagError):
    pass


class DegenerateMarginals(ProcTagError):
    """Chance agreement is 1, leaving the statistic undefined."""


@dataclass(frozen=True)
class Prediction:
    record_id: str
    predicted: str
    golds: list[str]


def normalize_answer(s: str) -> str:
    return " ".join(s.split()).lower()


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert/delete/substitute, unit costs).

    Bit-parallel (Myers 1999, in Hyyrö's 2003 form for the whole-string
    distance): one column of the DP table per character of the longer
    string, its vertical deltas held as the bits of two ints, one bit per
    character of the shorter string. Python ints grow as needed, so there
    is no word-size blocking; the cost is O(n * ceil(m / w)) word
    operations for lengths n >= m and word size w.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}  # character -> bits of its positions in b
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m  # the first column rises by 1 per row
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the first row rises by 1 per column: shift a +1 delta in
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv  # xv, and so mv, has no bit at or above m
    return score


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance over the longer normalized length; 0 for two empty strings."""
    a = normalize_answer(a)
    b = normalize_answer(b)
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def anls(predictions: Sequence[Prediction], tau: float = DEFAULT_ANLS_TAU) -> float:
    """Mean over predictions of the best per-gold similarity 1 - NL, zeroed
    when NL >= tau. A tau that is not a number in (0, 1] is a ValueError."""
    if not 0 < tau <= 1:  # NaN and the infinities fail this too
        raise ValueError(f"tau must be a finite number in (0, 1], got {tau!r}")
    if not predictions:
        raise EmptyInput("no predictions to score")
    total = 0.0
    for pred in predictions:
        if not pred.golds:
            raise EmptyInput(f"prediction {pred.record_id} has no gold answers")
        best = 0.0
        for gold in pred.golds:
            nl = normalized_levenshtein(pred.predicted, gold)
            score = 1.0 - nl if nl < tau else 0.0
            best = max(best, score)
        total += best
    return total / len(predictions)


def cohen_kappa(counts: list[list[float]]) -> float:
    """(p_o - p_e) / (1 - p_e) from observed and chance agreement over a
    square matrix of label counts, rater A on rows, rater B on columns."""
    k = len(counts) if isinstance(counts, list) else 0
    if k == 0 or any(not isinstance(row, list) or len(row) != k for row in counts):
        raise ValueError("confusion matrix must be square and non-empty")
    cells = [c for row in counts for c in row]
    # type(True) is bool: a bool is not a count
    if not ({int, float} >= set(map(type, cells)) and all(abs(c) < math.inf for c in cells)):
        raise ValueError("confusion matrix counts must be finite numbers")
    if any(c < 0 for c in cells):
        raise ValueError("confusion matrix counts must be non-negative")
    total = sum(cells)
    if total <= 0:
        raise EmptyInput("confusion matrix has no observations")
    p_o = sum(counts[i][i] for i in range(k)) / total
    row_marg = [sum(row) for row in counts]
    col_marg = [sum(counts[i][j] for i in range(k)) for j in range(k)]
    p_e = sum(row_marg[i] * col_marg[i] for i in range(k)) / (total * total)
    if abs(1.0 - p_e) < 1e-12:
        raise DegenerateMarginals("chance agreement is 1")
    return (p_o - p_e) / (1.0 - p_e)


def agreement_band(kappa: float) -> str:
    """Conventional interpretive label for an agreement score."""
    if kappa < 0:
        return "poor"
    if kappa <= 0.2:
        return "slight"
    if kappa <= 0.4:
        return "fair"
    if kappa <= 0.6:
        return "moderate"
    if kappa <= 0.8:
        return "substantial"
    return "almost perfect"


def kappa_report(counts: list[list[float]]) -> dict[str, Any]:
    value = cohen_kappa(counts)
    return {"kappa": value, "band": agreement_band(value)}
