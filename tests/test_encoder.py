"""Encoder shape law, positional-encoding values, memory-entry layout."""
import math

import numpy as np
import pytest

from gradcheck import model_config

from img2latex import tensor as T
from img2latex.data import END_ID, PAD_ID, RESERVED
from img2latex.encoder import BN_EPS, Encoder, positional_encoding
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
    assert enc.encode(np.ones((h, w))).shape == (1, hp * wp, 16)


def test_encode_requires_multiples_of_8():
    enc = make_encoder()
    with pytest.raises(Exception, match="multiple of 8"):
        enc.encode(np.ones((30, 64)))


def test_memory_entries_follow_row_major_order():
    # feed a batch through and check entry l really is feature cell divmod(l, W')
    enc = make_encoder(d=8)
    img = np.random.default_rng(5).random((16, 24))
    entries = enc.encode(img)
    feats = enc.cnn_forward(Tensor(img[None, None, :, :]))
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
    single = enc.encode(a)
    assert np.allclose(batch.data[0], single.data[0], atol=1e-12)


def test_train_mode_updates_bn_buffers_eval_does_not():
    enc = make_encoder(d=8)
    before = {k: v.copy() for k, v in enc.buffers.items()}
    enc.encode(np.random.default_rng(7).random((16, 16)), train=False)
    for k in before:
        assert np.array_equal(enc.buffers[k], before[k])
    enc.encode(np.random.default_rng(7).random((16, 16)), train=True)
    changed = sum(not np.array_equal(enc.buffers[k], before[k]) for k in before)
    assert changed == len(before)


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
    assert enc.encode(np.ones((8, 8))).dtype == np.float32


def test_pe_addition_is_position_dependent():
    # two identical white images at different grid cells must differ
    enc = make_encoder(d=8)
    entries = enc.encode(np.ones((16, 16)))
    assert not np.allclose(entries.data[0, 0], entries.data[0, 1])


def relu_before_pool(self, x, train=False):
    """Encoder.cnn_forward with each layer's ReLU ahead of its max pool:
    conv -> batch norm (if any) -> ReLU -> pool (if any)."""
    out = x
    for w, b, bn, pool in self.layers:
        out = T.conv2d(out, w, b, stride=1, padding=1)
        if bn is not None:
            out = T.batchnorm2d(out, *bn, momentum=self.config.bn_momentum, eps=BN_EPS,
                                train=train)
        out = T.relu(out)
        if pool is not None:
            out = T.maxpool2d(out, pool, pool)
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
