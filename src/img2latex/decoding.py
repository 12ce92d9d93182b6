"""Greedy and beam-search decoding: one search, and greedy is its b=1 case.

Both run against the model's decode protocol: decode_start(image) gives
an initial state, decode_step(state, token) gives (log-probs over the
vocabulary, next state, attention weights).  Scores are raw sums of
log-probs.  Greedy runs the beam search loop with one hypothesis, so
beam with b=1 reproduces greedy bit-for-bit by construction.

Each step lays the candidates out in one score array: the finished
hypotheses first, carried in beam order, then the one-token extensions
of the running ones, token-major (token t of running hypothesis p sits
at n_finished + t * n_running + p).  One stable sort on descending score
prunes it back to b, so equal scores break toward a carried hypothesis,
then lower token id, then lower parent index; NaN scores sort last.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import END_ID, START_ID


class DecodeError(Exception):
    pass


@dataclass
class DecodeResult:
    tokens: list[int]           # content token ids, no START/END
    score: float                # sum of step log-probs (includes END when finished)
    finished: bool              # False when cut off at max_len
    alphas: list[np.ndarray] = field(default_factory=list)

    @property
    def normalized_score(self) -> float:
        return self.score / max(len(self.tokens) + 1, 1)


def check_search(b: int, max_len: int) -> None:
    """DecodeError unless the beam size b and max_len are both >= 1."""
    if b < 1:
        raise DecodeError(f"beam size must be >= 1, got {b}")
    if max_len < 1:
        raise DecodeError(f"max_len must be >= 1, got {max_len}")


def greedy_decode(model, image, max_len: int = 200) -> DecodeResult:
    """Argmax decoding, the search at b=1; ties go to the lowest token id."""
    return _search(model, image, 1, max_len, False)


def beam_decode(model, image, b: int = 5, max_len: int = 200,
                length_normalize: bool = False) -> DecodeResult:
    """Beam search over summed log-probs.

    Finished hypotheses are carried, never extended.  Stops when all b
    hypotheses are finished or max_len is reached; returns the best
    finished hypothesis, or the best unfinished one if none finished.
    """
    return _search(model, image, b, max_len, length_normalize)


@dataclass
class _Hypothesis(DecodeResult):
    state: object = None        # has consumed all of tokens but the last


def _search(model, image, b, max_len, length_normalize) -> DecodeResult:
    check_search(b, max_len)
    beams = [_Hypothesis([], 0.0, False, [], model.decode_start(image))]
    for _ in range(max_len):
        done = [h for h in beams if h.finished]
        live = [h for h in beams if not h.finished]
        if not live:
            break
        steps = [model.decode_step(h.state, h.tokens[-1] if h.tokens else START_ID)
                 for h in live]
        n_done, n_live = len(done), len(live)
        scores = np.empty(n_done + steps[0][0].shape[0] * n_live)
        for k, h in enumerate(done):
            scores[k] = h.score
        for p, (h, (logp, _, _)) in enumerate(zip(live, steps)):
            scores[n_done + p::n_live] = h.score + logp
        beams = []
        for k in np.argsort(-scores, kind="stable")[:b].tolist():
            if k < n_done:
                beams.append(done[k])
                continue
            tok, p = divmod(k - n_done, n_live)
            src, (_, state, alpha) = live[p], steps[p]
            end = tok == END_ID
            beams.append(_Hypothesis(src.tokens if end else src.tokens + [tok],
                                     float(scores[k]), end, src.alphas + [alpha], state))
    best = min([h for h in beams if h.finished] or beams, key=lambda h: (
        -(h.normalized_score if length_normalize else h.score), h.tokens))
    return DecodeResult(best.tokens, best.score, best.finished, best.alphas)
