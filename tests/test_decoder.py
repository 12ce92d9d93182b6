"""Attentional LSTM decoder: one step against a straight-line transcription."""
import re
import tracemalloc

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


def test_init_state_projects_the_keys_once_and_keep_rows_indexes_them():
    dec, _ = make()
    entries = make_entries(b=3)
    state = dec.init_state(entries)
    want = np.einsum("bld,da->bla", entries.data, dec.params["dec.attn.w2"].data)
    assert state.entries is entries and state.mem_rows == 3
    assert np.allclose(state.proj.data, want, atol=1e-12)
    # every later state of the sequence shares the one projection
    later = dec.step(dec.step(state, np.array([2, 2, 2])).state, np.array([3, 3, 3])).state
    assert later.proj is state.proj and later.entries is entries
    # keep_rows cuts only the index: the memory objects are the same, and
    # cuts compose (a prefix, then indices into it, then a prefix again)
    for cuts, kept in (([[2, 0]], [2, 0]), ([2], 2), ([[1, 2], 1], [1]), ([2, [1]], [1])):
        cut = later
        for rows in cuts:
            cut = dec.keep_rows(cut, rows)
        assert cut.proj is state.proj and cut.entries is entries
        assert np.array_equal(cut.mem_rows, kept)
        # a prefix of a prefix stays an int, so the attention reads a view
        assert isinstance(cut.mem_rows, int) == isinstance(kept, int)
        n = kept if isinstance(kept, int) else len(kept)
        assert cut.h[0].shape[0] == n
        stepped = dec.step(cut, np.full(n, 4)).state
        assert stepped.proj is state.proj and np.array_equal(stepped.mem_rows, kept)
    assert not hasattr(T, "head_rows")


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


def attention_chain(query, w1, proj, beta):
    """The nine generic records tensor.attention_scores fuses: matmul,
    reshape, add, tanh, reshape, reshape (of beta), matmul, reshape and
    softmax."""
    b, length, a = proj.shape
    qp = T.reshape(query @ w1, (b, 1, a))
    act = T.reshape(T.tanh(qp + proj), (b * length, a))
    return T.softmax(T.reshape(act @ T.reshape(beta, (a, 1)), (b, length)))


def memory_rows(state, mem):
    """The running rows' memory, cut with one take_rows record, or mem
    itself while every row of it is running in order."""
    if isinstance(state.mem_rows, int) and state.mem_rows == mem.shape[0]:
        return mem
    return T.take_rows(mem, state.mem_rows)


def unfused_step_reference(dec, state, tokens, train=False, rng=None):
    """Decoder.step built from generic tape ops: 28 records per step in
    eval mode, against Decoder.step's 14, and one take_rows of each
    memory tensor once the state is cut."""
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
    alpha = attention_chain(query, p("dec.attn.w1"), memory_rows(state, state.proj),
                            p("dec.attn.beta"))
    ctx = T.attention_context(alpha, memory_rows(state, state.entries))
    o = T.dropout(T.tanh(T.concat([hs[1], ctx], axis=1) @ p("dec.w3")), cfg.dropout, train, rng)
    return StepOutput(logits=o @ p("dec.w4"), alpha=alpha,
                      state=DecoderState(h=hs, c=cs, o_prev=o, entries=state.entries,
                                         proj=state.proj, mem_rows=state.mem_rows))


def fused_step(dec, state, tokens, train=False, rng=None):
    return dec.step(state, tokens, train=train, rng=rng)


def teacher_forced_pass(step_fn, dec, entries, train):
    """Six teacher-forced steps over four rows, cut to the first three rows
    (a prefix, read in place) before step 2 and to rows [2, 0] (a gather)
    before step 4, with a loss on the logits and on alpha.  Returns the forward
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


def attention_inputs(bsz, length, a, dtype, seed=15):
    rng = np.random.default_rng(seed)
    shapes = [(bsz, 9), (9, a), (bsz, length, a), (a,)]
    return [rng.normal(size=s).astype(dtype) for s in shapes]


def attention_bytes(op, arrays, cot):
    """op's forward output, then the gradients of query, w1, proj and beta
    for the cotangent cot, all as bytes."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    alpha = op(*leaves)
    (alpha * Tensor(cot)).sum().backward()
    return [alpha.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("bsz,dtype", [(160, np.float32), (97, np.float64)])
def test_attention_scores_is_bit_identical_to_the_chain_at_desk_size(bsz, dtype):
    # the desk shape: L = 154 memory entries, A = 64 attention units, at
    # rl-desk's 160 rollout rows in f32 and at 97 rows in f64
    length, a = 154, 64
    arrays = attention_inputs(bsz, length, a, dtype)
    # tied values, zeros of both signs and distinct values in one cotangent
    cot = np.random.default_rng(16).normal(size=(bsz, length)).astype(dtype)
    cot[:, ::4] = 0.25
    cot[::3, 1::4] = -0.0
    cot[1::3, 1::4] = 0.0
    fused = attention_bytes(T.attention_scores, arrays, cot)
    assert fused == attention_bytes(attention_chain, arrays, cot)
    # gathered memory rows equal a take_rows of the memory: five more
    # memory rows than queries, read in a shuffled order
    memory = np.random.default_rng(18).normal(size=(bsz + 5, length, a)).astype(dtype)
    rows = np.random.default_rng(19).permutation(bsz + 5)[:bsz]
    arrays[2] = memory
    gathered = attention_bytes(lambda q, w, p, b: T.attention_scores(q, w, p, b, rows),
                               arrays, cot)
    chain = attention_bytes(lambda q, w, p, b: attention_chain(q, w, T.take_rows(p, rows), b),
                            arrays, cot)
    assert gathered == chain


def context_bytes(alpha, memory, rows, cot):
    """attention_context's output and its alpha and entries gradients for
    the cotangent cot, then the same three from one stacked matmul over
    memory[rows] and a broadcast outer product, all as bytes."""
    index = slice(0, rows) if isinstance(rows, int) else rows
    a, e = Tensor(alpha, requires_grad=True), Tensor(memory, requires_grad=True)
    out = T.attention_context(a, e, rows)
    (out * Tensor(cot)).sum().backward()
    want = np.zeros_like(memory, dtype=np.result_type(alpha, cot))
    want[index] = alpha[:, :, None] * cot[:, None, :]
    return ([out.data.tobytes(), a.grad.tobytes(), e.grad.tobytes()],
            [np.matmul(alpha[:, None, :], memory[index])[:, 0].tobytes(),
             np.matmul(memory[index], cot[:, :, None])[:, :, 0].tobytes(), want.tobytes()])


@pytest.mark.parametrize("bsz,dtype", [(160, np.float32), (97, np.float64)])
def test_attention_context_is_bit_identical_to_one_stacked_matmul_at_desk_size(bsz, dtype):
    # the desk memory, L = 154 entries of d = 64, read as a prefix and
    # gathered in a shuffled order
    length, d = 154, 64
    r = np.random.default_rng(20)
    memory = r.normal(size=(bsz + 7, length, d)).astype(dtype)
    alpha = r.random((bsz, length)).astype(dtype)
    cot = r.normal(size=(bsz, d)).astype(dtype)
    for rows in (bsz, r.permutation(bsz + 7)[:bsz]):
        got, want = context_bytes(alpha, memory, rows, cot)
        assert got == want


@pytest.mark.parametrize("prefix", [True, False])
def test_f64_queries_over_an_f32_memory_give_f64_bits_of_the_chain(prefix):
    # an f64 query and w1 over an f32 key projection and f32 entries: both
    # ops promote as the chain does, whether the memory rows are a prefix
    # read in place or gathered in a shuffled order
    bsz, length, a, d = 12, 154, 64, 64
    arrays = attention_inputs(bsz, length, a, np.float64)
    r = np.random.default_rng(25)
    arrays[2] = r.normal(size=(bsz + 3, length, a)).astype(np.float32)
    arrays[3] = arrays[3].astype(np.float32)
    entries = r.normal(size=(bsz + 3, length, d)).astype(np.float32)
    rows = bsz if prefix else r.permutation(bsz + 3)[:bsz]
    cot = r.normal(size=(bsz, length))
    fused = attention_bytes(lambda q, w, p, b: T.attention_scores(q, w, p, b, rows),
                            arrays, cot)
    chain = attention_bytes(lambda q, w, p, b: attention_chain(q, w, T.take_rows(p, rows), b),
                            arrays, cot)
    assert fused == chain
    leaves = [Tensor(x, requires_grad=True) for x in arrays]
    alpha = T.attention_scores(*leaves, rows)
    ctx = T.attention_context(alpha, Tensor(entries), rows)
    assert alpha.data.dtype == ctx.data.dtype == np.float64
    got, want = context_bytes(alpha.data, entries, rows, r.normal(size=(bsz, d)))
    assert got == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bsz,memory_rows,rows", [(1, 1, None), (1, 1, 1), (3, 5, 3)])
def test_an_int_prefix_gives_the_bits_of_the_same_rows_as_indices(bsz, memory_rows, rows,
                                                                    dtype):
    # a decode step's few rows read a prefix of the memory as a view; the
    # same rows given as indices are gathered and must give the same bytes
    length, a = 154, 64
    arrays = attention_inputs(bsz, length, a, dtype)
    arrays[2] = np.random.default_rng(21).normal(size=(memory_rows, length, a)).astype(dtype)
    cot = np.random.default_rng(22).normal(size=(bsz, length)).astype(dtype)
    alpha = np.random.default_rng(23).random((bsz, length)).astype(dtype)
    cot_d = np.random.default_rng(24).normal(size=(bsz, a)).astype(dtype)

    def both(pick):
        scores = attention_bytes(lambda q, w, p, b: T.attention_scores(q, w, p, b, pick),
                                 arrays, cot)
        weights, memory = Tensor(alpha, requires_grad=True), Tensor(arrays[2],
                                                                    requires_grad=True)
        out = T.attention_context(weights, memory, pick)
        (out * Tensor(cot_d)).sum().backward()
        return scores + [out.data.tobytes(), weights.grad.tobytes(), memory.grad.tobytes()]

    assert both(rows) == both(np.arange(bsz))


def copies_case(seed, dtype):
    """A rollout-shaped cut over b per-image memories read by k copies: row
    j * b + i is copy j of image i, and each row is kept at random, in
    order.  Returns (kept rows of the k * b, b, k, and the op inputs:
    query, w1, proj, beta, alpha, entries).  Half the seeds store proj
    and entries transposed, as the encoder's output is."""
    r = np.random.default_rng(300 + seed)
    b, k, length, a, d = (int(r.integers(1, 6)), int(r.integers(1, 6)),
                          int(r.integers(1, 30)), 8, 6)
    kept = np.flatnonzero(r.random(k * b) < r.uniform(0.2, 1.0))
    if not kept.size:
        kept = np.array([int(r.integers(k * b))])
    n = kept.size

    def memory(width):
        if seed % 2:
            return r.normal(size=(b, width, length)).astype(dtype).transpose(0, 2, 1)
        return r.normal(size=(b, length, width)).astype(dtype)

    inputs = [r.normal(size=(n, 9)).astype(dtype), r.normal(size=(9, a)).astype(dtype),
              memory(a), r.normal(size=(a,)).astype(dtype),
              r.random((n, length)).astype(dtype), memory(d)]
    return kept, b, k, inputs


def tile(memory, k):
    """memory repeated k times over, copy-major, in memory's own layout."""
    if memory.flags.c_contiguous:
        return np.tile(memory, (k, 1, 1))
    return np.tile(memory.transpose(0, 2, 1), (k, 1, 1)).transpose(0, 2, 1)


def both_attention_ops(query, w1, proj, beta, alpha, entries, rows, seed):
    """Both ops' outputs and the query, proj, alpha and entries gradients
    for fixed random cotangents."""
    r = np.random.default_rng(seed)
    leaves = [Tensor(x, requires_grad=True) for x in (query, w1, proj, beta, alpha, entries)]
    scores = T.attention_scores(*leaves[:4], rows)
    ctx = T.attention_context(leaves[4], leaves[5], rows)
    cot_s = r.normal(size=scores.shape).astype(scores.dtype)
    cot_c = r.normal(size=ctx.shape).astype(ctx.dtype)
    ((scores * Tensor(cot_s)).sum() + (ctx * Tensor(cot_c)).sum()).backward()
    return scores.data, ctx.data, {name: leaves[i].grad for name, i in
                                   (("query", 0), ("proj", 2), ("alpha", 4), ("entries", 5))}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(12))
def test_copies_over_one_memory_per_image_equal_a_tiled_memory(seed, dtype):
    # memory rows that repeat are read run by run; the reference reads the
    # memory tiled k times, a distinct row for every copy
    kept, b, k, (query, w1, proj, beta, alpha, entries) = copies_case(seed, dtype)
    runs = both_attention_ops(query, w1, proj, beta, alpha, entries, kept % b, seed)
    tiled = both_attention_ops(query, w1, tile(proj, k), beta, alpha, tile(entries, k), kept,
                               seed)
    assert runs[0].tobytes() == tiled[0].tobytes()
    assert runs[1].tobytes() == tiled[1].tobytes()
    for name, got in runs[2].items():
        want = tiled[2][name]
        if name in ("proj", "entries"):
            want = want.reshape((k, b) + want.shape[1:]).sum(axis=0)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name


def test_a_one_row_prefix_reads_the_memory_in_place(monkeypatch):
    # a decode step's one row takes the int path: no index is built
    assert T._row_runs(1, 4, "op", 1) == ((slice(0, 1), slice(0, 1)),)
    query, w1, proj, beta = attention_inputs(1, 154, 64, np.float32)
    memory = np.random.default_rng(26).normal(size=(4, 154, 64)).astype(np.float32)
    proj = np.concatenate([proj, memory[1:]])
    tensors = [Tensor(x) for x in (query, w1, proj, beta, memory)]

    def ops(rows):
        with T.no_grad():
            alpha = T.attention_scores(*tensors[:4], rows)
            ctx = T.attention_context(alpha, tensors[4], rows)
        return alpha.data.tobytes(), ctx.data.tobytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a 1-row prefix built an index")

    want = ops(np.array([0]))
    for name in ("asarray", "unique", "diff", "flatnonzero"):
        monkeypatch.setattr(np, name, refuse)
    got = ops(1)
    monkeypatch.undo()
    assert got == want


@pytest.mark.parametrize("rows,message", [
    (0, "a prefix of 0 rows is not in 1..3"),
    (np.int64(4), "a prefix of 4 rows is not in 1..3"),
    ([[0, 1]], "rows must be 1-D indices into 3 rows"),
    ([0, 3], "rows must be 1-D indices into 3 rows"),
    ([-1, 0], "rows must be 1-D indices into 3 rows"),
    (1, "2 rows attend but 1 memory rows are picked"),
    ([0, 1, 2], "2 rows attend but 3 memory rows are picked"),
])
def test_memory_rows_are_refused_with_the_row_index_messages(rows, message):
    query, w1, proj, beta = (Tensor(x) for x in attention_inputs(2, 4, 8, np.float64))
    proj = Tensor(np.zeros((3, 4, 8)))
    with pytest.raises(T.ShapeError, match=re.escape(f"attention_scores: {message}")):
        T.attention_scores(query, w1, proj, beta, rows)
    with pytest.raises(T.ShapeError, match=re.escape(f"attention_context: {message}")):
        T.attention_context(Tensor(np.zeros((2, 4))), proj, rows)


def test_memory_rows_may_repeat_but_taken_rows_may_not():
    proj = Tensor(np.zeros((3, 4, 8)))
    query, w1, _, beta = (Tensor(x) for x in attention_inputs(2, 4, 8, np.float64))
    assert T.attention_scores(query, w1, proj, beta, [1, 1]).shape == (2, 4)
    assert T.attention_context(Tensor(np.zeros((2, 4))), proj, [1, 1]).shape == (2, 8)
    with pytest.raises(T.ShapeError, match="take_rows: rows must be distinct"):
        T.take_rows(proj, [1, 1])


def test_attention_scores_keeps_no_activations_on_the_tape():
    # the record may keep its inputs, the (B, 1, A) query projection and
    # alpha; the (B, L, A) tanh activations (1.26 MB here) are recomputed
    # by the VJP
    bsz, length, a = 32, 154, 64
    leaves = [Tensor(x, requires_grad=True)
              for x in attention_inputs(bsz, length, a, np.float32)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alpha = T.attention_scores(*leaves)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert alpha.requires_grad
    assert kept <= alpha.data.nbytes + bsz * a * 4 + 32 * 1024, kept


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
