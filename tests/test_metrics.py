"""Sequence and image metrics against hand-countable oracles."""
import numpy as np
import pytest

from img2latex.metrics import (MetricError, MetricReport, binarize, bleu4,
                               edit_distance_score, evaluate_pair, exact_match,
                               levenshtein, sentence_bleu4,
                               strip_whitespace_columns)


# ---------------------------------------------------------------------
# BLEU-4
# ---------------------------------------------------------------------

def test_bleu_identical_corpus_is_one():
    refs = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    assert bleu4(refs, refs) == 1.0
    for r in refs:
        assert sentence_bleu4(r, r) == pytest.approx(1.0, abs=1e-9)


def test_bleu_single_substitution_hand_counts():
    # p1=4/5 p2=3/4 p3=2/3 p4=1/2, BP=1 -> (1/5)^(1/4)
    cand = [["a", "b", "c", "d", "e"]]
    ref = [["a", "b", "c", "d", "f"]]
    want = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert abs(want - 0.2 ** 0.25) < 1e-12
    assert bleu4(cand, ref) == pytest.approx(want, abs=1e-4)


def test_bleu_disjoint_tokens_is_zero():
    assert bleu4([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0


def test_bleu_empty_candidate_scores_zero_not_error():
    assert bleu4([[]], [["a", "b"]]) == 0.0
    assert sentence_bleu4([], ["a", "b"]) == 0.0


def test_bleu_length_mismatch_rejected():
    with pytest.raises(MetricError):
        bleu4([["a"]], [["a"], ["b"]])
    with pytest.raises(MetricError):
        bleu4([], [])


def test_bleu_brevity_penalty_applies():
    # candidate 3 tokens vs reference 6: all matches, BP = exp(1 - 6/3)
    cand = [["a", "b", "c"]]
    ref = [["a", "b", "c", "d", "e", "f"]]
    got = bleu4(cand, ref)
    assert got == pytest.approx(np.exp(1 - 2.0), abs=1e-9)


def test_bleu_short_identical_pair_not_zeroed_by_missing_orders():
    # 3-token corpus has no 4-grams anywhere; absent orders are skipped
    pair = [["a", "b", "c"]]
    assert bleu4(pair, pair) == 1.0


def test_corpus_mode_pools_counts_across_pairs():
    # pooled: p1 = (2+0)/4, sentence avg would be (1.0 + 0.0)/2
    cands = [["a", "b"], ["x", "y"]]
    refs = [["a", "b"], ["p", "q"]]
    corpus = bleu4(cands, refs)
    assert corpus == pytest.approx((2 / 4 * 1 / 2) ** 0.5, abs=1e-9)


def test_sentence_mode_epsilon_smoothing():
    # one pair with zero 4-gram matches gets eps, not a hard zero
    got = sentence_bleu4(["a", "b", "c", "x", "e"], ["a", "b", "c", "d", "e"])
    assert 0.0 < got < 1.0


def test_bleu_range_property():
    rng = np.random.default_rng(0)
    vocab = list("abcdef")
    for _ in range(50):
        c = [vocab[i] for i in rng.integers(0, 6, rng.integers(0, 9))]
        r = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 9))]
        s = sentence_bleu4(c, r)
        assert 0.0 <= s <= 1.0


# ---------------------------------------------------------------------
# binarize / levenshtein / edit distance
# ---------------------------------------------------------------------

def test_binarize_strict_threshold():
    img = np.array([[0.2, 0.5, 0.8]])
    assert binarize(img, 0.5).tolist() == [[1, 0, 0]]


def test_binarize_threshold_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(MetricError):
            binarize(np.zeros((2, 2)), bad)


def test_levenshtein_textbook_cases():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein(["aa", "bb"], ["aa", "cc", "bb"]) == 1


def levenshtein_reference(a, b):
    """Full-matrix DP, independent of the two-row implementation."""
    n, m = len(a), len(b)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(d[n, m])


def test_levenshtein_against_full_matrix_dp():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = "".join(rng.choice(list("abc"), rng.integers(0, 10)))
        b = "".join(rng.choice(list("abc"), rng.integers(0, 10)))
        assert levenshtein(a, b) == levenshtein_reference(a, b)


def test_edit_distance_identical_is_one():
    img = (np.random.default_rng(2).random((6, 10)) < 0.3).astype(np.uint8)
    assert edit_distance_score(img, img) == 1.0


def test_edit_distance_single_column_substitution():
    truth = np.zeros((4, 10), dtype=np.uint8)
    truth[1, 3] = 1
    test = truth.copy()
    test[1, 7] = 1
    test[1, 3] = 0
    # two substituted columns out of ten
    assert edit_distance_score(truth, test) == pytest.approx(0.8, abs=1e-12)
    test2 = truth.copy()
    test2[2, 3] = 1
    # one differing column -> 0.9, exactly
    assert edit_distance_score(truth, test2) == pytest.approx(0.9, abs=1e-12)


def test_edit_distance_appended_blank_columns():
    truth = (np.random.default_rng(3).random((5, 10)) < 0.4).astype(np.uint8)
    truth[:, -1] = 1  # ensure last truth column is not blank
    test = np.concatenate([truth, np.zeros((5, 5), dtype=np.uint8)], axis=1)
    assert edit_distance_score(truth, test) == pytest.approx(0.5, abs=1e-12)


def test_edit_distance_clamps_at_zero():
    truth = np.ones((2, 2), dtype=np.uint8)
    test = np.zeros((2, 20), dtype=np.uint8)
    assert edit_distance_score(truth, test) == 0.0


def test_edit_distance_zero_width_truth_rejected():
    with pytest.raises(MetricError):
        edit_distance_score(np.zeros((3, 0), dtype=np.uint8),
                            np.zeros((3, 3), dtype=np.uint8))


def test_edit_distance_normalizer_is_truth_width():
    # raw edit count is symmetric, the score is not
    a = (np.random.default_rng(4).random((4, 8)) < 0.5).astype(np.uint8)
    b = np.concatenate([a, 1 - a[:, :4]], axis=1)
    assert edit_distance_score(a, b) != edit_distance_score(b, a)


def test_edit_distance_compares_columns_by_their_ink():
    # the distance of the columns read as 0/1 strings, for images of other
    # heights, widths and dtypes; a pixel of 2 is ink like a pixel of 1
    def strings(img):
        return ["".join("1" if v else "0" for v in img[:, j]) for j in range(img.shape[1])]

    r = np.random.default_rng(6)
    for h_test, dtype in [(5, np.uint8), (5, bool), (6, np.int64), (5, np.float64)]:
        truth = (r.random((5, 12)) < 0.3).astype(np.uint8)
        test = (r.random((h_test, 9)) < 0.3).astype(dtype)
        test[:min(h_test, 5), :4] = truth[:min(h_test, 5), :4]
        if dtype is np.int64:
            test *= 2
        want = max(0.0, 1.0 - levenshtein(strings(truth), strings(test)) / truth.shape[1])
        assert edit_distance_score(truth, test) == want


# ---------------------------------------------------------------------
# exact match
# ---------------------------------------------------------------------

def test_exact_match_modes():
    img = (np.random.default_rng(5).random((5, 7)) < 0.4).astype(np.uint8)
    assert exact_match(img, img) and exact_match(img, img, strip_ws=True)

    blank = np.zeros((5, 3), dtype=np.uint8)
    padded = np.concatenate([img, blank], axis=1)
    assert not exact_match(img, padded)
    assert exact_match(img, padded, strip_ws=True)


def test_exact_match_height_mismatch_false():
    a = np.ones((4, 4), dtype=np.uint8)
    b = np.ones((5, 4), dtype=np.uint8)
    assert not exact_match(a, b)
    assert not exact_match(a, b, strip_ws=True)


def test_strip_whitespace_columns_removes_all_blank():
    img = np.array([[0, 1, 0, 0, 1], [0, 1, 0, 0, 0]], dtype=np.uint8)
    got = strip_whitespace_columns(img)
    assert got.tolist() == [[1, 1], [1, 0]]


# ---------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------

def test_report_column_order_is_fixed():
    assert MetricReport.COLUMNS == ("BLEU", "Image Edit Distance",
                                    "Exact Match", "Exact Match (-ws)")


def test_evaluate_pair_exact_prediction():
    img = np.ones((8, 8))
    img[2:5, 2:5] = 0.0
    rep = evaluate_pair(["a", "b"], ["a", "b"], img, img.copy())
    assert rep.bleu4 == pytest.approx(1.0, abs=1e-9)
    assert rep.edit_distance_score == 1.0
    assert rep.exact_match and rep.exact_match_no_ws


def test_exact_match_implies_full_edit_score():
    rng = np.random.default_rng(6)
    for _ in range(10):
        img = (rng.random((4, 6)) < 0.5).astype(np.uint8)
        if exact_match(img, img):
            assert edit_distance_score(img, img) == 1.0
