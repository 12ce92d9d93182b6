"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   8 bytes  b"I2LCKPT\\0"
    version u32      2; version 1 held per-gate LSTM matrices, which
                     the fused decoder layout replaced (no converter)
    meta    u64 length + UTF-8 JSON (config, seed, step, vocab, ...)
    params  named-array section
    buffers named-array section (batchnorm running statistics)
    opt     u8 flag; if 1: u64 step_count + two named-array sections (m, v)

A named-array section is a u32 count followed by records of
u16 name-length, name bytes, u8 dtype code (0=f64, 1=f32), u8 ndim,
u32 per dim, then the raw array payload.  Arrays round-trip bit-exactly
because payloads are written in their native dtype.

Files are written to a temp path and moved into place, so an interrupted
save never clobbers the previous checkpoint.  The reader checks every
length field against the bytes left in the file and maps every decode
failure to CheckpointError, so a corrupt file fails with one line.
What the arrays must hold to be loaded is `check_arrays`' one rule.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"I2LCKPT\x00"
VERSION = 2

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.float64, 1: np.float32}


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    meta: dict
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    optimizer: dict | None = None


def _write_arrays(f, arrays: dict[str, np.ndarray]) -> None:
    f.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"array '{name}' has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<I", d))
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        f.write(arr.tobytes())


def _read_exact(f, n: int) -> bytes:
    # a length field is checked against the bytes left before reading, so
    # a corrupt one can neither ask for a huge allocation nor read short
    at = f.tell()
    left = os.fstat(f.fileno()).st_size - at
    if n > left:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {at}, {left} left")
    return f.read(n)


def _read_arrays(f) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<I", _read_exact(f, 4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", _read_exact(f, 2))
        at = f.tell()
        try:
            name = _read_exact(f, nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"array name at offset {at} is not UTF-8") from None
        code, ndim = struct.unpack("<BB", _read_exact(f, 2))
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"array '{name}' has unknown dtype code {code}")
        shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
        dtype = np.dtype(_CODE_DTYPES[code]).newbyteorder("<")
        payload = _read_exact(f, math.prod(shape) * dtype.itemsize)
        try:
            arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except ValueError as exc:       # more dimensions than numpy supports
            raise CheckpointError(f"array '{name}' has shape {shape}: {exc}") from None
        arrays[name] = arr.astype(arr.dtype.newbyteorder("="))
    return arrays


def check_arrays(what: str, arrays: dict[str, np.ndarray], like: dict,
                 non_negative=()) -> None:
    """The rule for every array set a checkpoint loads: `arrays` must hold
    exactly the names of `like`, each at the shape of its `like` entry
    (an array or a Tensor), with finite values, and no negative value in
    the arrays named in `non_negative`.  Else CheckpointError, naming
    the array after `what`."""
    missing, extra = like.keys() - arrays.keys(), arrays.keys() - like.keys()
    if missing or extra:
        raise CheckpointError(f"{what} mismatch: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
    for name, ours in like.items():
        arr = np.asarray(arrays[name])
        if arr.shape != ours.shape:
            raise CheckpointError(f"{what} '{name}' has shape {arr.shape}, not {ours.shape}")
        if name in non_negative:
            if not (np.isfinite(arr).all() and (arr >= 0).all()):
                raise CheckpointError(f"{what} '{name}' must be finite and non-negative")
        elif not np.isfinite(arr).all():
            raise CheckpointError(f"{what} '{name}' must be finite")


def save_checkpoint(path, meta: dict, params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray] | None = None,
                    optimizer: dict | None = None) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        f.write(struct.pack("<Q", len(meta_bytes)))
        f.write(meta_bytes)
        _write_arrays(f, params)
        _write_arrays(f, buffers or {})
        if optimizer is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<Q", int(optimizer["step_count"])))
            _write_arrays(f, optimizer["m"])
            _write_arrays(f, optimizer["v"])
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    path = os.fspath(path)
    with open(path, "rb") as f:
        magic = _read_exact(f, len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version} "
                                  f"(this build reads version {VERSION})")
        (mlen,) = struct.unpack("<Q", _read_exact(f, 8))
        raw = _read_exact(f, mlen)
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as exc:       # UnicodeDecodeError or JSONDecodeError
            raise CheckpointError(f"{path}: corrupt meta block: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta block is not a JSON object")
        params = _read_arrays(f)
        buffers = _read_arrays(f)
        (flag,) = struct.unpack("<B", _read_exact(f, 1))
        optimizer = None
        if flag:
            (step_count,) = struct.unpack("<Q", _read_exact(f, 8))
            m = _read_arrays(f)
            v = _read_arrays(f)
            optimizer = {"step_count": step_count, "m": m, "v": v}
        trailing = f.read(1)
        if trailing:
            raise CheckpointError(f"{path}: trailing bytes after checkpoint payload")
    return Checkpoint(meta=meta, params=params, buffers=buffers, optimizer=optimizer)
