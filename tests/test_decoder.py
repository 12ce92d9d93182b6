"""Attentional LSTM decoder: one step against a straight-line transcription."""
import numpy as np
import pytest

from gradcheck import model_config

from img2latex.decoder import Decoder
from img2latex.encoder import MemoryBank
from img2latex.tensor import Tensor


def make(vocab=6, d=8, hidden=8, attn=8, out=8, emb=4, **kw):
    cfg = model_config(vocab, d=d, d_emb=emb, hidden=hidden,
                       attn_dim=attn, out_dim=out, dropout=0.0, **kw)
    return Decoder(cfg, np.random.default_rng(0)), cfg


def make_bank(b=2, length=3, d=8, seed=1):
    entries = np.random.default_rng(seed).normal(size=(b, length, d))
    return MemoryBank(entries=Tensor(entries), h_prime=1, w_prime=length)


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
    bank = make_bank()
    state = dec.init_state(bank)
    tokens = np.array([2, 4])
    got = dec.step(bank, state, tokens)
    want_logits, want_alpha, want_h, want_c, want_o = step_reference(
        dec, bank.entries.data, [s.data for s in state.h],
        [s.data for s in state.c], state.o_prev.data, tokens, standard_cell)
    assert np.allclose(got.logits.data, want_logits, atol=1e-12)
    assert np.allclose(got.alpha.data, want_alpha, atol=1e-12)
    for layer in range(2):
        assert np.allclose(got.state.h[layer].data, want_h[layer], atol=1e-12)
        assert np.allclose(got.state.c[layer].data, want_c[layer], atol=1e-12)
    assert np.allclose(got.state.o_prev.data, want_o, atol=1e-12)


def test_init_state_from_mean_annotation():
    dec, cfg = make()
    bank = make_bank()
    state = dec.init_state(bank)
    mean = bank.entries.data.mean(axis=1)
    P = {k: p.data for k, p in dec.params.items()}
    for layer in (1, 2):
        want_h = np.tanh(mean @ P[f"dec.init.h{layer}.w"] + P[f"dec.init.h{layer}.b"])
        want_c = np.tanh(mean @ P[f"dec.init.c{layer}.w"] + P[f"dec.init.c{layer}.b"])
        assert np.allclose(state.h[layer - 1].data, want_h, atol=1e-12)
        assert np.allclose(state.c[layer - 1].data, want_c, atol=1e-12)
    assert np.array_equal(state.o_prev.data, np.zeros((2, 8)))


def test_alpha_is_a_distribution_over_memory():
    dec, _ = make()
    bank = make_bank(length=5)
    out = dec.step(bank, dec.init_state(bank), np.array([2, 2]))
    assert out.alpha.shape == (2, 5)
    assert np.allclose(out.alpha.data.sum(axis=1), 1.0, atol=1e-12)


def test_cell_modes_differ():
    dec_lit, _ = make(standard_cell_output=False)
    dec_std, _ = make(standard_cell_output=True)
    bank = make_bank()
    a = dec_lit.step(bank, dec_lit.init_state(bank), np.array([2, 2]))
    b = dec_std.step(bank, dec_std.init_state(bank), np.array([2, 2]))
    assert not np.allclose(a.logits.data, b.logits.data)


def test_attend_current_hidden_changes_query():
    dec_prev, _ = make(attend_current_hidden=False)
    dec_cur, _ = make(attend_current_hidden=True)
    bank = make_bank()
    a = dec_prev.step(bank, dec_prev.init_state(bank), np.array([2, 2]))
    b = dec_cur.step(bank, dec_cur.init_state(bank), np.array([2, 2]))
    assert not np.allclose(a.alpha.data, b.alpha.data)


def test_projection_cache_filled_once_and_reused():
    dec, _ = make()
    bank = make_bank()
    assert bank.proj is None
    state = dec.init_state(bank)
    out1 = dec.step(bank, state, np.array([2, 2]))
    proj = bank.proj
    assert proj is not None
    dec.step(bank, out1.state, np.array([3, 3]))
    assert bank.proj is proj


def test_dropout_only_active_in_train():
    dec, _ = make()
    dec.config.dropout = 0.5
    bank = make_bank()
    state = dec.init_state(bank)
    rng = np.random.default_rng(7)
    a = dec.step(bank, state, np.array([2, 2]), train=False)
    b = dec.step(bank, state, np.array([2, 2]), train=False)
    assert np.array_equal(a.logits.data, b.logits.data)
    c = dec.step(bank, state, np.array([2, 2]), train=True, rng=rng)
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
    bank = MemoryBank(entries=Tensor(entries), h_prime=1, w_prime=3)
    out = dec32.step(bank, dec32.init_state(bank), np.array([2]))
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
