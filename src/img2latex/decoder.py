"""Attentional LSTM decoder with input feeding.

One step consumes the previous token and the previous attentional output
O_{t-1} (concatenated, so the attention decision from the last step
feeds the recurrence), runs two stacked LSTM layers, attends over the
encoder's memory entries e_l with an additive score, and combines top
hidden state and context into logits:

    a_l   = beta . tanh(W1 h + W2 e_l)        score per memory entry
    alpha = softmax(a)
    C     = sum_l alpha_l e_l
    O_t   = tanh(W3 [h_t ; C_t])
    y_t   ~ softmax(W4 O_t)

The cell follows the gate equations with the output gate applied to the
raw cell state, h_t = o_t * c_t; set standard_cell_output=True for the
usual h_t = o_t * tanh(c_t).  The attention query is the top hidden
state from before the current update; attend_current_hidden=True queries
with the updated one instead.

All weights use the (in, out) convention and are applied as x @ W.

Each LSTM layer keeps its four gates fused (Luong et al. 2015 layout):
dec.lstm{l}.w has shape (n_in + hidden, 4 * hidden) and dec.lstm{l}.b
shape (4 * hidden,), so one [x ; h] @ w + b yields every gate's
pre-activation.  Rows [0, n_in) multiply the layer input x, rows
[n_in, n_in + hidden) the previous hidden state; column block k (width
hidden) belongs to gate k in the order i, f, o, c.  Layer 1's input is
[embedding ; O_{t-1}], so n_in = d_emb + out_dim; layer 2's is h1.

Tape records per step (eval mode, or dropout 0): embedding_lookup, the
layer-1 input concat, per layer one tensor.lstm_cell (concat, GEMM, bias
and gates) and two slice_cols, one tensor.attention_scores (everything
from the query projection to the softmax), attention_context, then
concat, matmul and tanh for O_t and the output matmul: 14 in all, and
train mode adds one per dropout.  The two fused ops replace 4 and 9
generic records and are bit-identical to them, forward and backward;
tests/test_decoder.py keeps the generic chain as its reference.  The
key projection W2 e_l does not depend on the step, so init_state
records it once (3 records: reshape, matmul, reshape), and every state
of the sequence carries it beside the entries it attends over.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor


@dataclass
class DecoderState:
    """Recurrent state: per-layer (h, c) and the fed-back output O, plus
    the attention memory: entries (B, L, d) and their key projection
    proj (B, L, A), both fixed for the whole sequence."""
    h: list[Tensor]
    c: list[Tensor]
    o_prev: Tensor
    entries: Tensor
    proj: Tensor


@dataclass
class StepOutput:
    logits: Tensor      # (B, V)
    alpha: Tensor       # (B, L) attention weights, rows sum to 1
    state: DecoderState


# gate blocks per LSTM layer; their order i, f, o, c is set by the column
# slicing in tensor.lstm_cell
_N_GATES = 4


class Decoder:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        dt = config.np_dtype()
        self.params: dict[str, Tensor] = {}

        def add(name, shape, fan_in, fan_out):
            self.params[name] = Tensor(T.glorot_uniform(shape, fan_in, fan_out, rng, dt),
                                       requires_grad=True)

        def add_zeros(name, shape):
            self.params[name] = Tensor(np.zeros(shape, dtype=dt), requires_grad=True)

        v, h = config.vocab_size, config.hidden
        add("dec.embed", (v, config.d_emb), v, config.d_emb)
        in_sizes = {1: config.d_emb + config.out_dim, 2: h}
        for layer in (1, 2):
            n_in = in_sizes[layer]
            # glorot draws per gate block, each over its own (fan_in, h):
            # gate by gate, input rows then recurrent rows
            blocks = []
            for _ in range(_N_GATES):
                wx = T.glorot_uniform((n_in, h), n_in, h, rng, dt)
                wh = T.glorot_uniform((h, h), h, h, rng, dt)
                blocks.append(np.concatenate([wx, wh], axis=0))
            self.params[f"dec.lstm{layer}.w"] = Tensor(np.concatenate(blocks, axis=1),
                                                       requires_grad=True)
            add_zeros(f"dec.lstm{layer}.b", (_N_GATES * h,))
        for layer in (1, 2):
            add(f"dec.init.h{layer}.w", (config.d, h), config.d, h)
            add_zeros(f"dec.init.h{layer}.b", (h,))
            add(f"dec.init.c{layer}.w", (config.d, h), config.d, h)
            add_zeros(f"dec.init.c{layer}.b", (h,))
        add("dec.attn.w1", (h, config.attn_dim), h, config.attn_dim)
        add("dec.attn.w2", (config.d, config.attn_dim), config.d, config.attn_dim)
        add("dec.attn.beta", (config.attn_dim,), config.attn_dim, 1)
        add("dec.w3", (h + config.d, config.out_dim), h + config.d, config.out_dim)
        add("dec.w4", (config.out_dim, v), config.out_dim, v)

    def init_state(self, entries: Tensor) -> DecoderState:
        """Hidden/cell states from the mean annotation vector, O_0 = 0,
        and the key projection of entries (B, L, d)."""
        p = self.params
        mean = T.reduce_mean(entries, axis=1)           # (B, d)
        hs, cs = [], []
        for layer in (1, 2):
            hs.append(T.tanh(mean @ p[f"dec.init.h{layer}.w"] + p[f"dec.init.h{layer}.b"]))
            cs.append(T.tanh(mean @ p[f"dec.init.c{layer}.w"] + p[f"dec.init.c{layer}.b"]))
        b, length, d = entries.shape
        o0 = Tensor(np.zeros((b, self.config.out_dim), dtype=self.config.np_dtype()))
        proj = T.reshape(T.reshape(entries, (b * length, d)) @ p["dec.attn.w2"],
                         (b, length, self.config.attn_dim))
        return DecoderState(h=hs, c=cs, o_prev=o0, entries=entries, proj=proj)

    def keep_rows(self, state: DecoderState, rows) -> DecoderState:
        """State cut to batch rows `rows`.

        rows is either distinct row indices, gathered in that order with
        T.take_rows, or an int n, which keeps the first n rows as views
        through T.head_rows and copies nothing.  Every per-row tensor is
        cut, the key projection included, so gradients still reach the
        dropped rows' earlier steps.
        """
        if isinstance(rows, int):
            def cut(t):
                return T.head_rows(t, rows)
        else:
            def cut(t):
                return T.take_rows(t, rows)
        return DecoderState(h=[cut(h) for h in state.h], c=[cut(c) for c in state.c],
                            o_prev=cut(state.o_prev), entries=cut(state.entries),
                            proj=cut(state.proj))

    def _cell(self, layer: int, x: Tensor, h: Tensor, c: Tensor):
        hc = T.lstm_cell(x, h, c, self.params[f"dec.lstm{layer}.w"],
                         self.params[f"dec.lstm{layer}.b"], self.config.standard_cell_output)
        n = self.config.hidden
        return T.slice_cols(hc, 0, n), T.slice_cols(hc, n, 2 * n)

    def _attend(self, state: DecoderState, query: Tensor):
        alpha = T.attention_scores(query, self.params["dec.attn.w1"], state.proj,
                                   self.params["dec.attn.beta"])         # (B, L)
        return T.attention_context(alpha, state.entries), alpha

    def step(self, state: DecoderState, tokens,
             train: bool = False, rng: np.random.Generator | None = None) -> StepOutput:
        """Advance one step given the previous tokens, shape (B,) int."""
        cfg, p = self.config, self.params
        emb = T.embedding_lookup(p["dec.embed"], np.asarray(tokens))
        emb = T.dropout(emb, cfg.dropout, train, rng)
        x1 = T.concat([emb, state.o_prev], axis=1)
        h1, c1 = self._cell(1, x1, state.h[0], state.c[0])
        h2, c2 = self._cell(2, h1, state.h[1], state.c[1])
        query = h2 if cfg.attend_current_hidden else state.h[1]
        ctx, alpha = self._attend(state, query)
        o = T.tanh(T.concat([h2, ctx], axis=1) @ p["dec.w3"])
        o = T.dropout(o, cfg.dropout, train, rng)
        logits = o @ p["dec.w4"]
        return StepOutput(logits=logits, alpha=alpha,
                          state=DecoderState(h=[h1, h2], c=[c1, c2], o_prev=o,
                                             entries=state.entries, proj=state.proj))
