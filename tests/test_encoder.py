"""Encoder shape law, positional-encoding values, memory-entry layout."""
import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import model_config

from img2latex import tensor as T
from img2latex.data import END_ID, PAD_ID, RESERVED, pad_for_model, round_up
from img2latex.encoder import _CONV_PLAN, BN_EPS, DOWNSAMPLE, Encoder, positional_encoding
from img2latex.model import Model
from img2latex.optim import Adam
from img2latex.tensor import Tensor
from img2latex.training import mle_loss


def make_encoder(d=16, dtype="f64", seed=0):
    return Encoder(model_config(1, d=d, dtype=dtype), np.random.default_rng(seed))


def pe_reference(height, width, d, timescale):
    """Scalar transcription of the documented formula, loop by loop."""
    pe = np.zeros((d, height, width))
    for i in range(d // 4):
        rate = timescale ** (-4.0 * i / d)
        for y in range(height):
            for x in range(width):
                pe[2 * i, y, x] = math.sin(x * rate)
                pe[2 * i + 1, y, x] = math.cos(x * rate)
                pe[d // 2 + 2 * i, y, x] = math.sin(y * rate)
                pe[d // 2 + 2 * i + 1, y, x] = math.cos(y * rate)
    return pe


def test_positional_encoding_matches_scalar_reference():
    got = positional_encoding(5, 7, 16, 10000.0)
    assert np.max(np.abs(got - pe_reference(5, 7, 16, 10000.0))) <= 1e-12


def test_positional_encoding_axis_split():
    pe = positional_encoding(6, 9, 32, 10000.0)
    # column-index channels do not vary along y; row-index channels not along x
    assert np.max(np.abs(pe[:16] - pe[:16, :1, :])) == 0.0
    assert np.max(np.abs(pe[16:] - pe[16:, :, :1])) == 0.0


def test_positional_encoding_rejects_bad_width():
    with pytest.raises(ValueError):
        positional_encoding(4, 4, 18, 10000.0)
    with pytest.raises(ValueError):
        positional_encoding(0, 4, 16, 10000.0)


@pytest.mark.parametrize("h,w,hp,wp", [(64, 128, 8, 16), (40, 320, 5, 40),
                                       (8, 8, 1, 1)])
def test_encode_shape_law(h, w, hp, wp):
    enc = make_encoder(d=16)
    assert enc.encode(np.ones((1, 1, h, w))).shape == (1, hp * wp, 16)


def test_downsampling_is_one_factor_derived_from_the_pools():
    pools = [pool for *_, pool in _CONV_PLAN if pool]
    assert DOWNSAMPLE == math.prod(kh for kh, _ in pools) == math.prod(kw for _, kw in pools) == 8
    # the padding rule rounds up to the factor the encoder divides by
    assert [round_up(n) for n in (1, 8, 9, 17)] == [8, 8, 16, 24]
    padded, misfit = pad_for_model(np.zeros((9, 17)), None)
    assert padded.shape == (16, 24) and not misfit
    assert make_encoder(d=8).encode(padded[None, None]).shape == (1, 2 * 3, 8)


def test_encode_requires_multiples_of_8():
    enc = make_encoder()
    with pytest.raises(Exception, match="multiple of 8"):
        enc.encode(np.ones((1, 1, 30, 64)))


def test_encode_takes_only_a_batch_of_one_channel_images():
    enc = make_encoder()
    for shape in ((16, 16), (1, 16, 16), (1, 2, 16, 16)):
        with pytest.raises(T.TensorError, match=r"\(B, 1, H, W\)"):
            enc.encode(np.ones(shape))


def test_memory_entries_follow_row_major_order():
    # feed a batch through and check entry l really is feature cell divmod(l, W')
    enc = make_encoder(d=8)
    img = np.random.default_rng(5).random((1, 1, 16, 24))
    entries = enc.encode(img)
    feats = enc.cnn_forward(Tensor(img))
    pe = positional_encoding(2, 3, 8, 10000.0)
    grid = feats.data[0] + pe
    assert entries.shape == (1, 2 * 3, 8)
    for l in range(entries.shape[1]):
        r, c = divmod(l, 3)
        assert np.allclose(entries.data[0, l], grid[:, r, c], atol=1e-12)


def test_batch_and_single_agree():
    enc = make_encoder(d=8)
    rng = np.random.default_rng(6)
    a = rng.random((16, 16))
    b = rng.random((16, 16))
    batch = enc.encode(np.stack([a, b])[:, None, :, :])
    single = enc.encode(a[None, None])
    assert np.allclose(batch.data[0], single.data[0], atol=1e-12)


def test_train_mode_updates_bn_buffers_eval_does_not():
    enc = make_encoder(d=8)
    before = {k: v.copy() for k, v in enc.buffers.items()}
    enc.encode(np.random.default_rng(7).random((1, 1, 16, 16)), train=False)
    for k in before:
        assert np.array_equal(enc.buffers[k], before[k])
    enc.encode(np.random.default_rng(7).random((1, 1, 16, 16)), train=True)
    changed = sum(not np.array_equal(enc.buffers[k], before[k]) for k in before)
    assert changed == len(before)


def test_a_recorded_encode_makes_one_record_per_layer_and_only_it_finds_pool_winners(
        monkeypatch):
    enc = make_encoder(d=8)
    images = np.random.default_rng(8).random((2, 1, 16, 24))
    calls = []
    winner = T._pool_winner
    monkeypatch.setattr(T, "_pool_winner", lambda *a: calls.append(1) or winner(*a))
    for train in (True, False):
        with T.no_grad():
            enc.encode(images, train=train)
    assert calls == []
    with T.profile() as prof:
        enc.encode(images, train=True)
    assert prof.records == {"conv_layer": len(_CONV_PLAN), "add": 1, "transpose": 1,
                            "reshape": 1}
    assert len(calls) == sum(pool is not None for *_, pool in _CONV_PLAN)


def kept_bytes(enc, batch, h, w):
    """Bytes of the arrays a recorded encode of a (batch, 1, h, w) image
    batch keeps until backward: the image, then per layer batch norm's
    xhat and inv_std, one uint8 pool winner per output cell and the
    output, then the positional signal and the output plus it (the
    flattened memory is a view of that sum)."""
    size = np.dtype(enc.config.np_dtype()).itemsize
    kept = batch * h * w * size
    for kernel, _, bn, pool in enc.layers:
        c = kernel.shape[0]
        if bn is not None:
            kept += (batch * c * h * w + c) * size
        if pool is not None:
            h, w = h // pool[0], w // pool[1]
            kept += batch * c * h * w
        kept += batch * c * h * w * size
    return kept + (1 + batch) * c * h * w * size


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_a_recorded_encode_keeps_only_what_its_layers_backward_reads(dtype):
    # the records' Python objects take about 20 kB here; the four-op chain
    # per layer, which keeps every conv, batch-norm and pool output and a
    # ReLU mask, held 2.6 times the bound
    enc = make_encoder(d=32, dtype=dtype)
    images = np.random.default_rng(9).random((4, 1, 32, 96))
    enc.encode(images, train=True)          # fill the conv block tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = enc.encode(images, train=True)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert entries._op is not None
    bound = kept_bytes(enc, 4, 32, 96) + 32 * 1024
    assert live <= bound, (live, bound)


def test_channel_plan_scales_with_d():
    enc = make_encoder(d=64)
    shapes = [enc.params[f"enc.conv{i}.w"].data.shape for i in range(1, 7)]
    assert [s[0] for s in shapes] == [8, 16, 32, 32, 64, 64]
    assert [s[1] for s in shapes] == [1, 8, 16, 32, 32, 64]
    # batch norm on the three deepest convolutions only
    assert sorted(int(k[6]) for k in enc.buffers if k.endswith("mean")) == [3, 5, 6]


def test_d_must_be_multiple_of_8():
    with pytest.raises(ValueError):
        make_encoder(d=12)


def test_f32_encoder_produces_f32_entries():
    enc = make_encoder(d=8, dtype="f32")
    assert enc.encode(np.ones((1, 1, 8, 8))).dtype == np.float32


def test_pe_addition_is_position_dependent():
    # two identical white images at different grid cells must differ
    enc = make_encoder(d=8)
    entries = enc.encode(np.ones((1, 1, 16, 16)))
    assert not np.allclose(entries.data[0, 0], entries.data[0, 1])


def relu_before_pool(self, x, train=False):
    """Encoder.cnn_forward with each layer's ReLU ahead of its max pool:
    conv -> batch norm (if any) -> ReLU -> pool (if any)."""
    out = x
    for w, b, bn, pool in self.layers:
        out = T.conv2d(out, w, b)
        if bn is not None:
            out = T.batchnorm2d(out, *bn, momentum=self.config.bn_momentum, eps=BN_EPS,
                                train=train)
        out = T.relu(out)
        if pool is not None:
            out = T.maxpool2d(out, pool)
    return out


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_relu_before_the_pool_trains_to_the_same_bytes(dtype, monkeypatch):
    vocab = list(RESERVED) + ["x", "y", "+", "2"]
    r = np.random.default_rng(41)
    images = r.random((4, 1, 24, 40))
    seq = np.array([[4, 5, 6, END_ID], [7, END_ID, PAD_ID, PAD_ID],
                    [5, 5, END_ID, PAD_ID], [6, 4, 7, END_ID]])
    trained = []
    for forward in (Encoder.cnn_forward, relu_before_pool):
        monkeypatch.setattr(Encoder, "cnn_forward", forward)
        model = Model(model_config(len(vocab), d=16, d_emb=4, hidden=8, attn_dim=8,
                                   out_dim=8, dropout=0.0, dtype=dtype, seed=3), vocab)
        opt = Adam(model.params, lr=1e-2)
        for _ in range(5):
            loss, _ = mle_loss(model, images, seq, train=True)
            model.zero_grad()
            loss.backward()
            opt.step()
        state = {name: p.data.tobytes() for name, p in model.params.items()}
        state.update((name, a.tobytes()) for name, a in model.buffers.items())
        trained.append(state)
    assert trained[0] == trained[1]
