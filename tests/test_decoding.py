"""Greedy and beam search on hand-built table models and tiny real models.

The table models give exact probabilities, so expected outcomes come from
exhaustively enumerating every finished sequence and taking the best.
"""
import math

import numpy as np
import pytest

from gradcheck import model_config

from img2latex.data import END_ID, START_ID, RESERVED
from img2latex.decoding import DecodeError, beam_decode, greedy_decode
from img2latex.model import Model

A, B, C, D = 4, 5, 6, 7


class TableModel:
    """Decode protocol driven by literal conditional probability tables.

    tables maps a history tuple of content tokens to {token: prob};
    histories not listed fall back to `default` (END with certainty).
    """

    def __init__(self, tables, vocab_size=8, default=None):
        self.tables = tables
        self.V = vocab_size
        self.default = default or {END_ID: 1.0}

    def table(self, hist):
        return self.tables.get(hist, self.default)

    def decode_start(self, image):
        return ()

    def decode_step(self, state, token):
        hist = state if token == START_ID else state + (int(token),)
        p = np.zeros(self.V)
        for tok, prob in self.table(hist).items():
            p[tok] = prob
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        return logp, hist, np.array([1.0])


def enumerate_best(model, max_tokens):
    """Probability-maximizing finished sequence by exhaustive enumeration."""
    best, best_p = None, -1.0
    stack = [((), 1.0)]
    while stack:
        hist, p = stack.pop()
        p_end = p * model.table(hist).get(END_ID, 0.0)
        if p_end > best_p:
            best, best_p = list(hist), p_end
        if len(hist) == max_tokens:
            continue
        for tok, prob in model.table(hist).items():
            if tok != END_ID and prob > 0.0:
                stack.append((hist + (tok,), p * prob))
    return best, best_p


# Two-step model: greedy takes the locally best first token and ends with
# probability 0.18; the globally best sequence starts with the locally
# worse token and ends with probability 0.36, which beam width 2 finds.
TWO_STEP = TableModel({
    (): {A: 0.6, B: 0.4},
    (A,): {END_ID: 0.3, A: 0.25, B: 0.25, 1: 0.2},
    (B,): {END_ID: 0.9, A: 0.05, B: 0.05},
})


def test_two_step_greedy_is_locally_optimal_only():
    res = greedy_decode(TWO_STEP, None, max_len=5)
    assert res.tokens == [A]
    assert res.finished
    assert abs(math.exp(res.score) - 0.18) < 1e-12
    assert len(res.alphas) == len(res.tokens) + 1


def test_two_step_beam_two_finds_enumeration_optimum():
    res = beam_decode(TWO_STEP, None, b=2, max_len=5)
    assert res.tokens == [B]
    assert res.finished
    assert abs(math.exp(res.score) - 0.36) < 1e-12
    best, best_p = enumerate_best(TWO_STEP, max_tokens=2)
    assert res.tokens == best
    assert abs(math.exp(res.score) - best_p) < 1e-12
    assert len(res.alphas) == len(res.tokens) + 1


def test_deterministic_chain_decodes_exactly():
    chain = TableModel({(): {A: 1.0}, (A,): {B: 1.0}, (A, B): {END_ID: 1.0}})
    for res in (greedy_decode(chain, None, max_len=10),
                beam_decode(chain, None, b=3, max_len=10)):
        assert res.tokens == [A, B]
        assert res.finished
        assert res.score == 0.0


def test_max_len_truncates_and_flags():
    endless = TableModel({}, default={A: 0.6, B: 0.4})
    res = greedy_decode(endless, None, max_len=3)
    assert res.tokens == [A, A, A]
    assert not res.finished
    assert len(res.alphas) == 3
    res = beam_decode(endless, None, b=2, max_len=3)
    assert len(res.tokens) == 3
    assert not res.finished


def test_max_len_one_emits_at_most_one_token():
    res = greedy_decode(TWO_STEP, None, max_len=1)
    assert len(res.tokens) <= 1
    assert not res.finished


def test_equal_scores_break_toward_lower_token_id():
    tied = TableModel({(): {A: 0.5, B: 0.5}, (A,): {END_ID: 1.0},
                       (B,): {END_ID: 1.0}})
    assert greedy_decode(tied, None, max_len=4).tokens == [A]
    assert beam_decode(tied, None, b=1, max_len=4).tokens == [A]
    # both finish with identical scores; final selection also prefers [A]
    assert beam_decode(tied, None, b=2, max_len=4).tokens == [A]


def test_equal_scores_break_toward_lower_parent_index():
    # step 2 produces the same token C at exactly the same score from both
    # step-1 survivors, with room for only one of them: the beam must keep
    # the copy from the earlier parent, whose continuation ends at 0.15
    # (the later parent's would end at 0.135)
    model = TableModel({
        (): {A: 0.5, B: 0.5},
        (A,): {D: 0.44, C: 0.3, 1: 0.26},
        (B,): {C: 0.3, 1: 0.24, D: 0.24, END_ID: 0.22},
        (A, C): {END_ID: 1.0},
        (B, C): {END_ID: 0.9, 1: 0.1},
        (A, D): {1: 0.5, D: 0.5},
    })
    res = beam_decode(model, None, b=2, max_len=6)
    assert res.tokens == [A, C]
    assert abs(math.exp(res.score) - 0.15) < 1e-12


def test_length_normalization_changes_the_winner():
    model = TableModel({
        (): {A: 0.5, B: 0.5},
        (A,): {END_ID: 0.8, 1: 0.2},
        (B,): {C: 0.9, END_ID: 0.1},
        (B, C): {END_ID: 0.8, 1: 0.2},
    })
    raw = beam_decode(model, None, b=3, max_len=6)
    assert raw.tokens == [A]                      # 0.4 beats 0.36
    assert abs(math.exp(raw.score) - 0.4) < 1e-12
    norm = beam_decode(model, None, b=3, max_len=6, length_normalize=True)
    assert norm.tokens == [B, C]                  # log(0.36)/3 beats log(0.4)/2
    assert abs(norm.normalized_score - math.log(0.36) / 3) < 1e-12


def test_invalid_widths_and_lengths_rejected():
    with pytest.raises(DecodeError, match="beam size"):
        beam_decode(TWO_STEP, None, b=0)
    with pytest.raises(DecodeError, match="max_len"):
        beam_decode(TWO_STEP, None, b=2, max_len=0)
    with pytest.raises(DecodeError, match="max_len"):
        greedy_decode(TWO_STEP, None, max_len=0)


def tiny_model(seed):
    vocab = list(RESERVED) + ["x", "y", "+", "2"]
    cfg = model_config(len(vocab), d=8, d_emb=4, hidden=8,
                       attn_dim=8, out_dim=8, dropout=0.0, seed=seed)
    return Model(cfg, vocab)


@pytest.mark.parametrize("seed", range(10))
def test_beam_width_one_reproduces_greedy_bit_for_bit(seed):
    model = tiny_model(seed)
    image = np.random.default_rng(seed + 100).random((16, 24))
    g = greedy_decode(model, image, max_len=6)
    b = beam_decode(model, image, b=1, max_len=6)
    assert g.tokens == b.tokens
    assert g.score == b.score
    assert g.finished == b.finished
    assert len(g.alphas) == len(b.alphas)
    for ga, ba in zip(g.alphas, b.alphas):
        assert np.array_equal(ga, ba)


def test_wider_beams_never_score_worse():
    for seed in range(6):
        model = tiny_model(seed)
        image = np.random.default_rng(seed + 200).random((16, 24))
        greedy = greedy_decode(model, image, max_len=6)
        scores = [beam_decode(model, image, b=b, max_len=6).score
                  for b in (1, 2, 3, 4)]
        assert scores[0] == greedy.score
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo


def tuple_sort_beam_decode(model, image, b, max_len, length_normalize=False):
    """beam_decode as it pruned before: b x |V| Python tuples, sorted by key."""
    beams = [([], 0.0, model.decode_start(image), START_ID, False, [])]
    for _ in range(max_len):
        if all(h[4] for h in beams):
            break
        candidates = []
        for parent, (_, score, state, last, finished, _) in enumerate(beams):
            if finished:
                candidates.append((score, -1, parent, None, None))
                continue
            logp, new_state, alpha = model.decode_step(state, last)
            scores = score + logp
            for tok in range(scores.shape[0]):
                candidates.append((float(scores[tok]), tok, parent, new_state, alpha))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_beams = []
        for score, tok, parent, new_state, alpha in candidates[:b]:
            toks, _, _, _, _, alphas = src = beams[parent]
            if tok == -1:
                next_beams.append(src)
            elif tok == END_ID:
                next_beams.append((toks, score, None, END_ID, True, alphas + [alpha]))
            else:
                next_beams.append((toks + [tok], score, new_state, tok, False, alphas + [alpha]))
        beams = next_beams

    def key(h):
        s = h[1] / max(len(h[0]) + 1, 1) if length_normalize else h[1]
        return (-s, h[0])
    best = min([h for h in beams if h[4]] or beams, key=key)
    return best[0], best[1], best[4], best[5]


class TiedModel:
    """Log-probs drawn from three values (one of them log 0), seeded by the
    history: equal candidate scores are common within a parent, across
    parents, and between a carried finished hypothesis and an extension."""

    def __init__(self, seed, vocab_size=7):
        self.seed = seed
        self.V = vocab_size

    def decode_start(self, image):
        return ()

    def decode_step(self, state, token):
        hist = state if token == START_ID else state + (int(token),)
        rng = np.random.default_rng((self.seed,) + hist)
        with np.errstate(divide="ignore"):
            logp = np.log(rng.choice([0.0, 0.25, 0.5], size=self.V))
        return logp, hist, np.array(hist + (-1,), dtype=float)


@pytest.mark.parametrize("seed", range(25))
def test_array_pruning_matches_the_tuple_sort_under_ties(seed):
    model = TiedModel(seed)
    for b in (1, 2, 3, 5, 9):
        for norm in (False, True):
            got = beam_decode(model, None, b=b, max_len=5, length_normalize=norm)
            tokens, score, finished, alphas = tuple_sort_beam_decode(
                model, None, b=b, max_len=5, length_normalize=norm)
            assert (got.tokens, got.score, got.finished) == (tokens, score, finished)
            assert len(got.alphas) == len(alphas)
            for ga, wa in zip(got.alphas, alphas):
                assert np.array_equal(ga, wa)
    greedy = greedy_decode(model, None, max_len=5)
    beam1 = beam_decode(model, None, b=1, max_len=5)
    assert (greedy.tokens, greedy.score, greedy.finished) == (
        beam1.tokens, beam1.score, beam1.finished)


def argmax_greedy_reference(model, image, max_len):
    """greedy_decode as it ran before it became the search at b=1: its own
    argmax loop, extending the score with the same float operations."""
    state = model.decode_start(image)
    score, last, tokens, alphas = 0.0, START_ID, [], []
    for _ in range(max_len):
        logp, state, alpha = model.decode_step(state, last)
        cand = score + logp
        nxt = int(np.argmax(cand))
        score = float(cand[nxt])
        alphas.append(alpha)
        if nxt == END_ID:
            return tokens, score, True, alphas
        tokens.append(nxt)
        last = nxt
    return tokens, score, False, alphas


def assert_same_decode(got, tokens, score, finished, alphas):
    assert got.tokens == tokens
    assert np.float64(got.score).tobytes() == np.float64(score).tobytes()
    assert got.finished == finished
    assert len(got.alphas) == len(alphas)
    for ga, wa in zip(got.alphas, alphas):
        assert ga.dtype == wa.dtype and ga.tobytes() == wa.tobytes()


@pytest.mark.parametrize("seed", range(25))
def test_greedy_matches_the_argmax_loop_under_ties_and_log_zero(seed):
    model = TiedModel(seed)
    for max_len in (1, 2, 5):
        assert_same_decode(greedy_decode(model, None, max_len=max_len),
                           *argmax_greedy_reference(model, None, max_len))


@pytest.mark.parametrize("seed", range(10))
def test_greedy_matches_the_argmax_loop_on_tiny_models(seed):
    model = tiny_model(seed)
    image = np.random.default_rng(seed + 300).random((16, 24))
    for max_len in (1, 3, 6):
        assert_same_decode(greedy_decode(model, image, max_len=max_len),
                           *argmax_greedy_reference(model, image, max_len))


class PartlyNanModel(TiedModel):
    """TiedModel with one NaN log-prob per step, at a seeded token id."""

    def decode_step(self, state, token):
        logp, hist, alpha = super().decode_step(state, token)
        logp[np.random.default_rng((self.seed, 99) + hist).integers(self.V)] = np.nan
        return logp, hist, alpha


@pytest.mark.parametrize("seed", range(10))
def test_greedy_equals_beam_one_when_a_log_prob_is_nan(seed):
    # an argmax picks a NaN, the beam's sort ranks it last: greedy is the
    # beam search at b=1, so both rank it last
    model = PartlyNanModel(seed)
    g = greedy_decode(model, None, max_len=5)
    b = beam_decode(model, None, b=1, max_len=5)
    assert not math.isnan(g.score)
    assert_same_decode(g, b.tokens, b.score, b.finished, b.alphas)
