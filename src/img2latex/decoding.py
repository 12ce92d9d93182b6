"""Greedy and beam-search decoding.

Both run against the model's decode protocol: decode_start(image) gives
an initial state, decode_step(state, token) gives (log-probs over the
vocabulary, next state, attention weights).  Scores are raw sums of
log-probs; greedy extends candidate scores with exactly the same float
operations as beam search, so beam with b=1 reproduces greedy
bit-for-bit.  Ties break toward lower token id, then lower parent
index, making every decode reproducible.
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


def greedy_decode(model, image, max_len: int = 200) -> DecodeResult:
    """Argmax decoding; ties go to the lowest token id."""
    if max_len < 1:
        raise DecodeError(f"max_len must be >= 1, got {max_len}")
    state = model.decode_start(image)
    score = 0.0
    last = START_ID
    tokens: list[int] = []
    alphas: list[np.ndarray] = []
    for _ in range(max_len):
        logp, state, alpha = model.decode_step(state, last)
        cand = score + logp           # same op order as beam scoring
        nxt = int(np.argmax(cand))
        score = float(cand[nxt])
        alphas.append(alpha)
        if nxt == END_ID:
            return DecodeResult(tokens=tokens, score=score, finished=True, alphas=alphas)
        tokens.append(nxt)
        last = nxt
    return DecodeResult(tokens=tokens, score=score, finished=False, alphas=alphas)


_CARRIED = np.array([-1])       # token id of a carried finished hypothesis


@dataclass
class _Hypothesis:
    tokens: list[int]
    score: float
    state: object               # decode state that has consumed tokens[:-1]
    last: int                    # token pending to be fed
    finished: bool
    alphas: list[np.ndarray]


def beam_decode(model, image, b: int = 5, max_len: int = 200,
                length_normalize: bool = False) -> DecodeResult:
    """Beam search over summed log-probs.

    The candidate pool at each step holds every finished hypothesis
    (carried, never extended) plus b x |V| one-token extensions, pruned
    back to b by (score desc, token id asc, parent index asc) with one
    np.lexsort over score, token and parent arrays.  Stops when all b
    hypotheses are finished or max_len is reached; returns the best
    finished hypothesis, or the best unfinished one if none finished.
    """
    if b < 1:
        raise DecodeError(f"beam size must be >= 1, got {b}")
    if max_len < 1:
        raise DecodeError(f"max_len must be >= 1, got {max_len}")
    start = model.decode_start(image)
    beams = [_Hypothesis(tokens=[], score=0.0, state=start, last=START_ID,
                         finished=False, alphas=[])]
    for _ in range(max_len):
        if all(h.finished for h in beams):
            break
        # candidates as parallel arrays: a finished hypothesis is carried
        # as one candidate with token id -1, a running one contributes all
        # |V| extensions
        scores, tokens, parents, stepped = [], [], [], {}
        for parent, hyp in enumerate(beams):
            if hyp.finished:
                scores.append(np.array([hyp.score]))
                tokens.append(_CARRIED)
            else:
                logp, new_state, alpha = model.decode_step(hyp.state, hyp.last)
                stepped[parent] = (new_state, alpha)
                scores.append(hyp.score + logp)
                tokens.append(np.arange(logp.shape[0]))
            parents.append(np.full(tokens[-1].shape[0], parent))
        scores, tokens, parents = (np.concatenate(scores), np.concatenate(tokens),
                                   np.concatenate(parents))
        next_beams = []
        for k in np.lexsort((parents, tokens, -scores))[:b]:
            score, tok, parent = float(scores[k]), int(tokens[k]), int(parents[k])
            src = beams[parent]
            if tok == -1:
                next_beams.append(src)
                continue
            new_state, alpha = stepped[parent]
            if tok == END_ID:
                next_beams.append(_Hypothesis(
                    tokens=src.tokens, score=score, state=None, last=END_ID,
                    finished=True, alphas=src.alphas + [alpha]))
            else:
                next_beams.append(_Hypothesis(
                    tokens=src.tokens + [tok], score=score, state=new_state,
                    last=tok, finished=False, alphas=src.alphas + [alpha]))
        beams = next_beams
    def key(h):
        s = h.score / max(len(h.tokens) + 1, 1) if length_normalize else h.score
        return (-s, h.tokens)
    finished = [h for h in beams if h.finished]
    best = min(finished or beams, key=key)
    return DecodeResult(tokens=best.tokens, score=best.score,
                        finished=best.finished, alphas=best.alphas)
