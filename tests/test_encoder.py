"""Encoder shape law, positional-encoding values, memory-bank layout."""
import math

import numpy as np
import pytest

from gradcheck import model_config

from img2latex.encoder import Encoder, positional_encoding
from img2latex.tensor import Tensor


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
    bank = enc.encode(np.ones((h, w)))
    assert (bank.h_prime, bank.w_prime) == (hp, wp)
    assert bank.entries.shape == (1, hp * wp, 16)


def test_encode_requires_multiples_of_8():
    enc = make_encoder()
    with pytest.raises(Exception, match="multiple of 8"):
        enc.encode(np.ones((30, 64)))


def test_memory_entries_follow_row_major_order():
    # feed a batch through and check entry l really is feature cell divmod(l, W')
    enc = make_encoder(d=8)
    img = np.random.default_rng(5).random((16, 24))
    bank = enc.encode(img)
    feats = enc.cnn_forward(Tensor(img[None, None, :, :]))
    pe = positional_encoding(2, 3, 8, 10000.0)
    grid = feats.data[0] + pe
    for l in range(bank.entries.shape[1]):
        r, c = divmod(l, bank.w_prime)
        assert np.allclose(bank.entries.data[0, l], grid[:, r, c], atol=1e-12)


def test_batch_and_single_agree():
    enc = make_encoder(d=8)
    rng = np.random.default_rng(6)
    a = rng.random((16, 16))
    b = rng.random((16, 16))
    batch = enc.encode(np.stack([a, b])[:, None, :, :])
    single = enc.encode(a)
    assert np.allclose(batch.entries.data[0], single.entries.data[0], atol=1e-12)


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
    bank = enc.encode(np.ones((8, 8)))
    assert bank.entries.dtype == np.float32


def test_pe_addition_is_position_dependent():
    # two identical white images at different grid cells must differ
    enc = make_encoder(d=8)
    bank = enc.encode(np.ones((16, 16)))
    assert not np.allclose(bank.entries.data[0, 0], bank.entries.data[0, 1])
