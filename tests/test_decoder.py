"""Attentional LSTM decoder: one step against a straight-line transcription."""
import numpy as np
import pytest

from gradcheck import model_config

from img2latex import tensor as T
from img2latex.decoder import Decoder, DecoderState, StepOutput
from img2latex.tensor import Tensor


def make(vocab=6, d=8, hidden=8, attn=8, out=8, emb=4, **kw):
    cfg = model_config(vocab, d=d, d_emb=emb, hidden=hidden,
                       attn_dim=attn, out_dim=out, dropout=0.0, **kw)
    return Decoder(cfg, np.random.default_rng(0)), cfg


def make_entries(b=2, length=3, d=8, seed=1):
    return Tensor(np.random.default_rng(seed).normal(size=(b, length, d)))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gate_block(w, name, n_in):
    """Per-gate block of a fused LSTM matrix: name is e.g. "ix" or "fh".

    Columns hold the gates i, f, o, c in that order; rows [0, n_in) take
    the layer input x and the rest the previous hidden state.
    """
    hidden = w.shape[1] // 4
    k = "ifoc".index(name[0])
    cols = w[:, k * hidden:(k + 1) * hidden]
    if len(name) == 1:
        return cols
    return cols[:n_in] if name[1] == "x" else cols[n_in:]


def step_reference(dec, entries, h, c, o_prev, tokens, standard_cell):
    """The documented step, re-derived with plain numpy end to end."""
    P = {k: p.data for k, p in dec.params.items()}
    x = np.concatenate([P["dec.embed"][tokens], o_prev], axis=1)
    hs, cs = [], []
    for layer in (1, 2):
        w = lambda g: gate_block(P[f"dec.lstm{layer}.w"], g, x.shape[1])
        b = lambda g: gate_block(P[f"dec.lstm{layer}.b"][None], g, 1)[0]
        hin, cin = h[layer - 1], c[layer - 1]
        i = sigmoid(x @ w("ix") + hin @ w("ih") + b("i"))
        f = sigmoid(x @ w("fx") + hin @ w("fh") + b("f"))
        o = sigmoid(x @ w("ox") + hin @ w("oh") + b("o"))
        g = np.tanh(x @ w("cx") + hin @ w("ch") + b("c"))
        c_new = f * cin + i * g
        h_new = o * (np.tanh(c_new) if standard_cell else c_new)
        hs.append(h_new)
        cs.append(c_new)
        x = h_new
    # attention queries the PREVIOUS top-layer hidden state
    query = h[1]
    proj = entries.reshape(-1, entries.shape[2]) @ P["dec.attn.w2"]
    proj = proj.reshape(entries.shape[0], entries.shape[1], -1)
    act = np.tanh((query @ P["dec.attn.w1"])[:, None, :] + proj)
    scores = act @ P["dec.attn.beta"]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    ctx = (alpha[:, :, None] * entries).sum(axis=1)
    out = np.tanh(np.concatenate([hs[1], ctx], axis=1) @ P["dec.w3"])
    logits = out @ P["dec.w4"]
    return logits, alpha, hs, cs, out


@pytest.mark.parametrize("standard_cell", [False, True])
def test_step_matches_straight_line_reference(standard_cell):
    dec, cfg = make(standard_cell_output=standard_cell)
    entries = make_entries()
    state = dec.init_state(entries)
    tokens = np.array([2, 4])
    got = dec.step(state, tokens)
    want_logits, want_alpha, want_h, want_c, want_o = step_reference(
        dec, entries.data, [s.data for s in state.h],
        [s.data for s in state.c], state.o_prev.data, tokens, standard_cell)
    assert np.allclose(got.logits.data, want_logits, atol=1e-12)
    assert np.allclose(got.alpha.data, want_alpha, atol=1e-12)
    for layer in range(2):
        assert np.allclose(got.state.h[layer].data, want_h[layer], atol=1e-12)
        assert np.allclose(got.state.c[layer].data, want_c[layer], atol=1e-12)
    assert np.allclose(got.state.o_prev.data, want_o, atol=1e-12)


def test_init_state_from_mean_annotation():
    dec, cfg = make()
    entries = make_entries()
    state = dec.init_state(entries)
    mean = entries.data.mean(axis=1)
    P = {k: p.data for k, p in dec.params.items()}
    for layer in (1, 2):
        want_h = np.tanh(mean @ P[f"dec.init.h{layer}.w"] + P[f"dec.init.h{layer}.b"])
        want_c = np.tanh(mean @ P[f"dec.init.c{layer}.w"] + P[f"dec.init.c{layer}.b"])
        assert np.allclose(state.h[layer - 1].data, want_h, atol=1e-12)
        assert np.allclose(state.c[layer - 1].data, want_c, atol=1e-12)
    assert np.array_equal(state.o_prev.data, np.zeros((2, 8)))


def test_alpha_is_a_distribution_over_memory():
    dec, _ = make()
    out = dec.step(dec.init_state(make_entries(length=5)), np.array([2, 2]))
    assert out.alpha.shape == (2, 5)
    assert np.allclose(out.alpha.data.sum(axis=1), 1.0, atol=1e-12)


def test_cell_modes_differ():
    dec_lit, _ = make(standard_cell_output=False)
    dec_std, _ = make(standard_cell_output=True)
    entries = make_entries()
    a = dec_lit.step(dec_lit.init_state(entries), np.array([2, 2]))
    b = dec_std.step(dec_std.init_state(entries), np.array([2, 2]))
    assert not np.allclose(a.logits.data, b.logits.data)


def test_attend_current_hidden_changes_query():
    dec_prev, _ = make(attend_current_hidden=False)
    dec_cur, _ = make(attend_current_hidden=True)
    entries = make_entries()
    a = dec_prev.step(dec_prev.init_state(entries), np.array([2, 2]))
    b = dec_cur.step(dec_cur.init_state(entries), np.array([2, 2]))
    assert not np.allclose(a.alpha.data, b.alpha.data)


def test_init_state_projects_the_keys_once_and_keep_rows_cuts_them():
    dec, _ = make()
    entries = make_entries(b=3)
    state = dec.init_state(entries)
    want = np.einsum("bld,da->bla", entries.data, dec.params["dec.attn.w2"].data)
    assert state.entries is entries
    assert np.allclose(state.proj.data, want, atol=1e-12)
    # every later state of the sequence shares the one projection
    later = dec.step(dec.step(state, np.array([2, 2, 2])).state, np.array([3, 3, 3])).state
    assert later.proj is state.proj and later.entries is entries
    for rows, kept in (([2, 0], [2, 0]), (2, [0, 1])):
        cut = dec.keep_rows(later, rows)
        assert np.array_equal(cut.proj.data, state.proj.data[kept])
        assert np.array_equal(cut.entries.data, entries.data[kept])
        assert dec.step(cut, np.array([4, 4])).state.proj is cut.proj


def test_dropout_only_active_in_train():
    dec, _ = make()
    dec.config.dropout = 0.5
    state = dec.init_state(make_entries())
    rng = np.random.default_rng(7)
    a = dec.step(state, np.array([2, 2]), train=False)
    b = dec.step(state, np.array([2, 2]), train=False)
    assert np.array_equal(a.logits.data, b.logits.data)
    c = dec.step(state, np.array([2, 2]), train=True, rng=rng)
    assert not np.array_equal(a.logits.data, c.logits.data)


def test_input_feeding_dimensions():
    # layer-1 input is [embedding | previous output head]
    dec, cfg = make()
    n_in1 = cfg.d_emb + cfg.out_dim
    assert gate_block(dec.params["dec.lstm1.w"].data, "ix", n_in1).shape == (n_in1, cfg.hidden)
    assert gate_block(dec.params["dec.lstm2.w"].data, "ix", cfg.hidden).shape == (cfg.hidden,
                                                                                cfg.hidden)
    assert dec.params["dec.lstm1.w"].data.shape == (n_in1 + cfg.hidden, 4 * cfg.hidden)
    assert dec.params["dec.lstm2.b"].data.shape == (4 * cfg.hidden,)
    assert dec.params["dec.w3"].data.shape == (cfg.hidden + cfg.d, cfg.out_dim)
    assert dec.params["dec.w4"].data.shape == (cfg.out_dim, cfg.vocab_size)


def test_f32_decoder_stays_f32():
    cfg32 = model_config(6, d=8, d_emb=4, hidden=8, attn_dim=8,
                         out_dim=8, dropout=0.0, dtype="f32")
    dec32 = Decoder(cfg32, np.random.default_rng(0))
    entries = np.random.default_rng(1).normal(size=(1, 3, 8)).astype(np.float32)
    out = dec32.step(dec32.init_state(Tensor(entries)), np.array([2]))
    assert out.logits.dtype == np.float32


def test_fused_gates_keep_the_per_gate_initial_draws():
    # gate by gate (i, f, o, c), input block then recurrent block: the
    # draw order of the per-gate layout, so a fresh model computes the
    # same function in either layout
    dec, cfg = make(vocab=6, d=8, hidden=8, out=8, emb=4)
    rng = np.random.default_rng(0)
    a = np.sqrt(6.0 / (6 + cfg.d_emb))
    rng.uniform(-a, a, size=(6, cfg.d_emb))                  # dec.embed
    for layer, n_in in ((1, cfg.d_emb + cfg.out_dim), (2, cfg.hidden)):
        w = dec.params[f"dec.lstm{layer}.w"].data
        for gate in "ifoc":
            a = np.sqrt(6.0 / (n_in + cfg.hidden))
            want_x = rng.uniform(-a, a, size=(n_in, cfg.hidden))
            a = np.sqrt(6.0 / (2 * cfg.hidden))
            want_h = rng.uniform(-a, a, size=(cfg.hidden, cfg.hidden))
            assert np.array_equal(gate_block(w, gate + "x", n_in), want_x)
            assert np.array_equal(gate_block(w, gate + "h", n_in), want_h)
        assert not dec.params[f"dec.lstm{layer}.b"].data.any()


# ---------------------------------------------------------------------
# the generic-op chain that tensor.lstm_cell and tensor.attention_scores
# fuse, kept as the bit-identity reference
# ---------------------------------------------------------------------

def gates_record(z, c, standard_output):
    """The gates-only LSTM record: [h' | c'] from pre-activations z (B, 4h)
    and cell state c (B, h), the last of the four records one fused
    tensor.lstm_cell replaces."""
    h = c.shape[1]
    ifo = T._logistic(z.data[:, :3 * h])
    i, f, o = ifo[:, :h], ifo[:, h:2 * h], ifo[:, 2 * h:]
    g = np.tanh(z.data[:, 3 * h:])
    c_prev = c.data
    c_new = f * c_prev + i * g
    s = np.tanh(c_new) if standard_output else c_new
    out = Tensor(np.concatenate([o * s, c_new], axis=1))

    def bwd(grad):
        gh, gc = grad[:, :h], grad[:, h:]
        ds = gh * o
        dc = gc + (ds * (1.0 - s * s) if standard_output else ds)
        dz = np.empty_like(z.data)
        dz[:, :h] = dc * g * i * (1.0 - i)
        dz[:, h:2 * h] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * h:3 * h] = gh * s * o * (1.0 - o)
        dz[:, 3 * h:] = dc * i * (1.0 - g * g)
        return dz, dc * f

    return T._record("lstm_cell", out, (z, c), bwd)


def unfused_step_reference(dec, state, tokens, train=False, rng=None):
    """Decoder.step built from generic tape ops: 28 records per step in
    eval mode, against Decoder.step's 14."""
    cfg, p = dec.config, dec.params.__getitem__
    emb = T.dropout(T.embedding_lookup(p("dec.embed"), np.asarray(tokens)),
                    cfg.dropout, train, rng)
    x = T.concat([emb, state.o_prev], axis=1)
    hs, cs = [], []
    for layer in (1, 2):
        z = (T.concat([x, state.h[layer - 1]], axis=1) @ p(f"dec.lstm{layer}.w")
             + p(f"dec.lstm{layer}.b"))
        hc = gates_record(z, state.c[layer - 1], cfg.standard_cell_output)
        x = T.slice_cols(hc, 0, cfg.hidden)
        hs.append(x)
        cs.append(T.slice_cols(hc, cfg.hidden, 2 * cfg.hidden))
    query = hs[1] if cfg.attend_current_hidden else state.h[1]
    b, length, d = state.entries.shape
    a = cfg.attn_dim
    qp = T.reshape(query @ p("dec.attn.w1"), (b, 1, a))
    act = T.reshape(T.tanh(qp + state.proj), (b * length, a))
    scores = T.reshape(act @ T.reshape(p("dec.attn.beta"), (a, 1)), (b, length))
    alpha = T.softmax(scores)
    ctx = T.attention_context(alpha, state.entries)
    o = T.dropout(T.tanh(T.concat([hs[1], ctx], axis=1) @ p("dec.w3")), cfg.dropout, train, rng)
    return StepOutput(logits=o @ p("dec.w4"), alpha=alpha,
                      state=DecoderState(h=hs, c=cs, o_prev=o, entries=state.entries,
                                         proj=state.proj))


def fused_step(dec, state, tokens, train=False, rng=None):
    return dec.step(state, tokens, train=train, rng=rng)


def teacher_forced_pass(step_fn, dec, entries, train):
    """Six teacher-forced steps over four rows, cut to the first three rows
    (head_rows views) before step 2 and to rows [2, 0] (take_rows) before
    step 4, with a loss on the logits and on alpha.  Returns the forward
    arrays of every step, then each parameter's and the entries' gradient,
    all as bytes."""
    for prm in dec.params.values():
        prm.zero_grad()
    leaf = Tensor(entries.copy(), requires_grad=True)
    state = dec.init_state(leaf)
    rng = np.random.default_rng(11) if train else None
    seq = np.random.default_rng(12).integers(0, dec.config.vocab_size, size=(4, 6))
    r = np.random.default_rng(13).normal(size=(4, entries.shape[1])).astype(entries.dtype)
    rows = np.arange(4)
    forward, loss = [], None
    for t in range(seq.shape[1]):
        cut = {2: 3, 4: [2, 0]}.get(t)
        if cut is not None:
            state = dec.keep_rows(state, cut)
            rows = rows[:cut] if isinstance(cut, int) else rows[cut]
        out = step_fn(dec, state, seq[rows, t], train=train, rng=rng)
        state = out.state
        forward += [out.logits.data, out.alpha.data, out.state.o_prev.data]
        forward += [v.data for v in out.state.h + out.state.c]
        step_loss = (T.cross_entropy(out.logits, seq[rows, (t + 1) % 6]).sum()
                     + (out.alpha * Tensor(r[rows])).sum())
        loss = step_loss if loss is None else loss + step_loss
    loss.backward()
    grads = {name: prm.grad for name, prm in dec.params.items()}
    grads["entries"] = leaf.grad
    return [a.tobytes() for a in forward], {k: g.tobytes() for k, g in grads.items()}


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("standard_cell,attend_current,train",
                         [(False, False, False), (True, True, False), (False, True, True)])
def test_fused_step_is_bit_identical_to_the_unfused_chain(dtype, standard_cell,
                                                          attend_current, train):
    dec, cfg = make(vocab=7, d=8, hidden=6, attn=5, out=7, emb=4, dtype=dtype,
                    standard_cell_output=standard_cell, attend_current_hidden=attend_current)
    cfg.dropout = 0.3 if train else 0.0
    entries = np.random.default_rng(14).normal(size=(4, 5, 8)).astype(cfg.np_dtype())
    fwd_fused, grads_fused = teacher_forced_pass(fused_step, dec, entries, train)
    fwd_ref, grads_ref = teacher_forced_pass(unfused_step_reference, dec, entries, train)
    assert len(fwd_fused) == len(fwd_ref) == 6 * 7
    assert fwd_fused == fwd_ref
    assert sorted(grads_fused) == sorted(grads_ref)
    for name in grads_ref:
        assert grads_fused[name] == grads_ref[name], name


def records(fn, *args):
    """Tape records one call of fn(*args) puts on the tape, and its result."""
    start = next(T._op_counter)
    out = fn(*args)
    return next(T._op_counter) - start - 1, out


def test_init_state_records_the_key_projection_and_every_step_14_ops_not_28():
    dec, _ = make()
    entries = make_entries()
    entries.requires_grad = True
    # reduce_mean, then matmul, add and tanh for each of h1, c1, h2, c2:
    # 13 records, and 3 more for the key projection
    n, state = records(dec.init_state, entries)
    assert n == 13 + 3
    for tokens in ([2, 4], [3, 5]):
        n, out = records(fused_step, dec, state, np.array(tokens))
        assert n == 14
        assert records(unfused_step_reference, dec, state, np.array(tokens))[0] == 28
        state = out.state
