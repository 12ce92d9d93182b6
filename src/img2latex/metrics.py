"""Evaluation metrics: BLEU-4, column-wise image edit distance, exact match.

All metrics are pure functions.  Image metrics operate on binarized
{0,1} grids with 1 = ink (dark-on-light convention).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class MetricError(Exception):
    pass


# ---------------------------------------------------------------------
# BLEU-4
# ---------------------------------------------------------------------

SENTENCE_EPS = 1e-9


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _pair_counts(candidate, reference, n: int) -> tuple[int, int]:
    """(clipped matches, candidate n-gram count) for one pair."""
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    matches = sum(min(c, ref[g]) for g, c in cand.items())
    return matches, max(len(candidate) - n + 1, 0)


def bleu4(candidates, references) -> float:
    """Corpus BLEU-4 over parallel token-sequence lists.

    N-gram counts are pooled across all pairs, and a zero pooled
    precision gives 0; an order with no candidate n-grams at all is
    skipped rather than scored.  `sentence_bleu4` scores one pair.
    """
    if len(candidates) != len(references):
        raise MetricError(
            f"bleu4: {len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise MetricError("bleu4: empty input")
    matches = [0] * 4
    totals = [0] * 4
    c_len = 0
    r_len = 0
    for cand, ref in zip(candidates, references):
        cand, ref = list(cand), list(ref)
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, 5):
            m, t = _pair_counts(cand, ref, n)
            matches[n - 1] += m
            totals[n - 1] += t
    # orders with no candidate n-grams anywhere (all sequences shorter
    # than n) carry no evidence and are skipped, so identical corpora of
    # short sequences still score 1; a zero precision at a present order
    # zeroes the whole score
    present = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not present or any(m == 0 for m, _ in present):
        return 0.0
    log_p = sum(np.log(m / t) for m, t in present) / len(present)
    return float(_brevity(c_len, r_len) * np.exp(log_p))


def sentence_bleu4(candidate, reference) -> float:
    """Smoothed single-pair BLEU in [0, 1], the RL reward: an order with
    no matches scores SENTENCE_EPS, and one with no n-grams is skipped."""
    candidate, reference = list(candidate), list(reference)
    if not candidate:
        return 0.0
    log_p = 0.0
    orders = 0
    for n in range(1, 5):
        m, t = _pair_counts(candidate, reference, n)
        if t == 0:
            # candidate too short to contain any n-gram of this order;
            # skip rather than smooth
            continue
        log_p += np.log(m / t if m > 0 else SENTENCE_EPS)
        orders += 1
    if orders == 0:
        return 0.0
    return float(_brevity(len(candidate), len(reference)) * np.exp(log_p / orders))


def _brevity(c_len: int, r_len: int) -> float:
    if c_len >= r_len:
        return 1.0
    if c_len == 0:
        return 0.0
    return float(np.exp(1.0 - r_len / c_len))


# ---------------------------------------------------------------------
# image metrics
# ---------------------------------------------------------------------

def check_threshold(threshold: float) -> None:
    """MetricError unless threshold is in (0, 1), as `binarize` needs."""
    if not 0.0 < threshold < 1.0:
        raise MetricError(f"binarize: threshold must be in (0, 1), got {threshold}")


def binarize(image: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Grayscale [0,1] -> {0,1} with 1 = ink; strict pixel < threshold."""
    check_threshold(threshold)
    return (np.asarray(image) < threshold).astype(np.uint8)


def levenshtein(a, b) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _column_bytes(binary: np.ndarray) -> list[bytes]:
    """Each column's ink pattern (nonzero pixels) as one bytes value, so
    two columns compare equal when they have the same height and ink."""
    return [col.tobytes() for col in np.ascontiguousarray(binary.T != 0)]


def edit_distance_score(truth: np.ndarray, test: np.ndarray) -> float:
    """1 - (column-wise Levenshtein / truth width), clamped at 0.

    Both images are taken as binary grids, nonzero being ink; each column
    becomes one sequence element, equal to another column with the same
    ink.
    """
    truth = np.asarray(truth)
    test = np.asarray(test)
    if truth.ndim != 2 or test.ndim != 2:
        raise MetricError("edit_distance_score: images must be 2-D")
    if truth.shape[1] == 0:
        raise MetricError("edit_distance_score: zero-width truth image")
    e = levenshtein(_column_bytes(truth), _column_bytes(test)) / truth.shape[1]
    return max(0.0, 1.0 - e)


def strip_whitespace_columns(binary: np.ndarray) -> np.ndarray:
    """Drop columns with no ink."""
    keep = binary.any(axis=0)
    return binary[:, keep]


def exact_match(truth: np.ndarray, test: np.ndarray, strip_ws: bool = False) -> bool:
    truth = np.asarray(truth)
    test = np.asarray(test)
    if strip_ws:
        truth = strip_whitespace_columns(truth)
        test = strip_whitespace_columns(test)
    return truth.shape == test.shape and bool((truth == test).all())


@dataclass
class MetricReport:
    """One evaluation row; fields follow the summary-table column order."""
    bleu4: float
    edit_distance_score: float
    exact_match: bool
    exact_match_no_ws: bool

    COLUMNS = ("BLEU", "Image Edit Distance", "Exact Match", "Exact Match (-ws)")


def evaluate_pair(cand_tokens, ref_tokens, cand_image, ref_image,
                  threshold: float = 0.5) -> MetricReport:
    """Full per-example report; images may be None to skip image metrics."""
    b = sentence_bleu4(cand_tokens, ref_tokens)
    if cand_image is None or ref_image is None:
        return MetricReport(b, 0.0, False, False)
    truth = binarize(ref_image, threshold)
    test = binarize(cand_image, threshold)
    return MetricReport(
        bleu4=b,
        edit_distance_score=edit_distance_score(truth, test),
        exact_match=exact_match(truth, test, strip_ws=False),
        exact_match_no_ws=exact_match(truth, test, strip_ws=True),
    )
