"""Binary checkpoint format: bit-exact round trips and corruption errors."""
import os
import re
import struct

import numpy as np
import pytest

from img2latex.checkpoint import (CheckpointError, CheckpointNotFound, MAGIC,
                                  load_checkpoint, save_checkpoint)


def sample_params(dtype=np.float64):
    rng = np.random.default_rng(3)
    return {
        "dec.embed": rng.normal(size=(5, 3)).astype(dtype),
        "enc.conv1.w": rng.normal(size=(2, 1, 3, 3)).astype(dtype),
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_roundtrip_is_bit_exact(tmp_path, dtype):
    path = str(tmp_path / "m.ckpt")
    params = sample_params(dtype)
    buffers = {"enc.bn1.running_mean": np.linspace(0, 1, 4)}
    opt = {"step_count": 7,
           "m": {k: np.full_like(a, 0.5) for k, a in params.items()},
           "v": {k: np.full_like(a, 2.0) for k, a in params.items()}}
    save_checkpoint(path, {"step": 7, "phase": "mle"}, params, buffers, opt)
    ckpt = load_checkpoint(path)
    assert ckpt.meta == {"step": 7, "phase": "mle"}
    for name, arr in params.items():
        assert ckpt.params[name].dtype == dtype
        assert np.array_equal(ckpt.params[name], arr)
    assert np.array_equal(ckpt.buffers["enc.bn1.running_mean"],
                          buffers["enc.bn1.running_mean"])
    assert ckpt.optimizer["step_count"] == 7
    assert np.array_equal(ckpt.optimizer["v"]["dec.embed"], opt["v"]["dec.embed"])


def test_no_optimizer_section_roundtrip(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"step": 0}, sample_params())
    ckpt = load_checkpoint(path)
    assert ckpt.optimizer is None
    assert ckpt.buffers == {}


def test_same_content_same_bytes(tmp_path):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, {"step": 1}, sample_params())
    save_checkpoint(b, {"step": 1}, sample_params())
    assert open(a, "rb").read() == open(b, "rb").read()


def test_bad_magic_reports_offset(tmp_path):
    path = str(tmp_path / "m.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncation_reports_byte_offset(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"step": 1}, sample_params())
    blob = open(path, "rb").read()
    cut = len(blob) // 2
    with open(path, "wb") as f:
        f.write(blob[:cut])
    with pytest.raises(CheckpointError, match="byte"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"step": 1}, sample_params())
    with open(path, "ab") as f:
        f.write(b"leftover")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"step": 1}, sample_params())
    save_checkpoint(path, {"step": 2}, sample_params())
    assert load_checkpoint(path).meta["step"] == 2
    assert os.listdir(tmp_path) == ["m.ckpt"]


@pytest.mark.parametrize("dtype", [">f8", np.int64])
def test_an_array_of_another_dtype_is_a_one_line_checkpoint_error(tmp_path, dtype):
    # only native float32 and float64 are written; a big-endian float64
    # is not one of them, and neither is an int array
    params = dict(sample_params(), **{"enc.bad": np.arange(6).astype(dtype)})
    with pytest.raises(CheckpointError) as err:
        save_checkpoint(str(tmp_path / "m.ckpt"), {"step": 0}, params)
    assert "\n" not in str(err.value)
    assert "'enc.bad'" in str(err.value) and "unsupported dtype" in str(err.value)
    assert not (tmp_path / "m.ckpt").exists()


def test_magic_is_stable():
    # freezing the on-disk layout: the header is part of the contract
    assert MAGIC == b"I2LCKPT\x00"


def _full_checkpoint(path):
    params = sample_params()
    opt = {"step_count": 3,
           "m": {k: np.zeros_like(a) for k, a in params.items()},
           "v": {k: np.ones_like(a) for k, a in params.items()}}
    save_checkpoint(path, {"step": 3, "config": {"d": 8}, "vocab": ["a", "b"]},
                    params, {"enc.bn1.running_mean": np.linspace(0, 1, 4)}, opt)
    return bytearray(open(path, "rb").read())


def _first_dims_offset(blob):
    """Byte offset of the first dimension field of the first parameter."""
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    record = len(MAGIC) + 12 + mlen + 4
    (nlen,) = struct.unpack_from("<H", blob, record)
    return record + 2 + nlen + 2


def _overflowing_dims(blob):
    # (2**32 - 1)**2 elements: a product in int64 wraps to a negative length
    struct.pack_into("<II", blob, _first_dims_offset(blob), 0xFFFFFFFF, 0xFFFFFFFF)


def _huge_dim(blob):
    struct.pack_into("<I", blob, _first_dims_offset(blob), 0xFFFFFFFF)


def _bad_meta_byte(blob):
    blob[len(MAGIC) + 12] = 0xFF                        # not UTF-8


def _huge_meta_length(blob):
    struct.pack_into("<Q", blob, len(MAGIC) + 4, 1 << 60)


def _broken_meta_json(blob):
    blob[len(MAGIC) + 12] = ord("[")


def _meta_not_an_object(blob):
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    blob[len(MAGIC) + 12:len(MAGIC) + 12 + mlen] = b" " * (mlen - 1) + b"7"


@pytest.mark.parametrize("corrupt", [_overflowing_dims, _huge_dim, _bad_meta_byte,
                                     _huge_meta_length, _broken_meta_json,
                                     _meta_not_an_object])
def test_corrupt_field_is_a_one_line_checkpoint_error(tmp_path, corrupt):
    path = str(tmp_path / "m.ckpt")
    blob = _full_checkpoint(path)
    corrupt(blob)
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)


def test_fuzzed_checkpoints_raise_only_checkpoint_error(tmp_path):
    # seeded truncations and byte flips: a truncated file always fails, a
    # flipped one loads (the damage hit a payload) or fails, and every
    # failure is a one-line CheckpointError
    blob = bytes(_full_checkpoint(str(tmp_path / "good.ckpt")))
    rng = np.random.default_rng(20261018)
    path = str(tmp_path / "bad.ckpt")

    def load(case):
        with open(path, "wb") as f:
            f.write(case)
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert "\n" not in str(exc)
            return False
        return True

    for n in rng.integers(0, len(blob), size=60):
        assert not load(blob[:n])
    for _ in range(400):
        b = bytearray(blob)
        for pos in rng.integers(0, len(b), size=rng.integers(1, 4)):
            if rng.random() < 0.5:
                b[pos] ^= 1 << int(rng.integers(0, 8))
            else:
                b[pos] = int(rng.integers(0, 256))
        load(bytes(b))


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


def test_a_refused_save_leaves_the_directory_as_it_was(tmp_path):
    # an int64 array is refused mid-write; its temp file used to stay behind
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"step": 1}, sample_params())
    before = tree(tmp_path)
    with pytest.raises(CheckpointError, match="array 'a' has unsupported dtype int64"):
        save_checkpoint(path, {"step": 2}, {"a": np.zeros(3, np.int64)})
    assert tree(tmp_path) == before
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(str(tmp_path / "new.ckpt"), {}, {"a": np.zeros(3, np.int64)})
    assert tree(tmp_path) == before


def test_a_missing_checkpoint_is_named(tmp_path):
    path = str(tmp_path / "none.ckpt")
    with pytest.raises(CheckpointNotFound, match=f"^checkpoint not found: {re.escape(path)}$"):
        load_checkpoint(path)
    assert issubclass(CheckpointNotFound, CheckpointError)
