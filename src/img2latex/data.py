"""Vocabulary, PGM image I/O, manifests and bucketing.

File formats (all plain text or PGM):
  manifest  one example per line, `relative/path.pgm<TAB>tok tok tok`
  buckets   one `W H` pair per line, width first, multiples of 8
            (encoder.DOWNSAMPLE)
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .encoder import DOWNSAMPLE

PAD_ID = 0
UNK_ID = 1
START_ID = 2
END_ID = 3
RESERVED = ("<PAD>", "<UNK>", "<START>", "<END>")


class DataError(Exception):
    pass


class Vocabulary:
    """Token text <-> id map with the four reserved ids pinned first."""

    def __init__(self, tokens: list[str]):
        if not all(isinstance(t, str) for t in tokens):
            raise DataError("vocabulary tokens must be strings")
        if tuple(tokens[:4]) != RESERVED:
            raise DataError(f"vocabulary must begin with {RESERVED}, got {tokens[:4]}")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary contains duplicate tokens")
        self.tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_corpus(cls, sequences) -> "Vocabulary":
        distinct = sorted({t for seq in sequences for t in seq} - set(RESERVED))
        return cls(list(RESERVED) + distinct)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, tokens) -> list[int]:
        return [self.id_of(t) for t in tokens]


def build_vocab(manifests) -> Vocabulary:
    """Vocabulary over all token sequences in the given manifests."""
    sequences = []
    for path in manifests:
        sequences.extend(tokens for _, tokens in load_manifest(path))
    return Vocabulary.from_corpus(sequences)


# ---------------------------------------------------------------------
# PGM image I/O
# ---------------------------------------------------------------------

class PgmError(DataError):
    pass


def _pgm_scan(data: bytes, pos: int, path) -> tuple[bytes, int]:
    """Next whitespace-delimited field, skipping # comments; returns (field, new pos)."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"{path}: unexpected end of header at byte offset {pos}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def read_pgm_raw(path) -> tuple[np.ndarray, int]:
    """PGM file -> (integer array (H, W), maxval).  Accepts P2 and P5."""
    with open(path, "rb") as f:
        data = f.read()
    magic, pos = _pgm_scan(data, 0, path)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: bad magic {magic!r} at byte offset 0 (want P2 or P5)")
    fields = []
    for _ in range(3):
        field, pos = _pgm_scan(data, pos, path)
        if not field.isdigit():
            raise PgmError(f"{path}: non-numeric header field {field!r} at byte offset {pos - len(field)}")
        fields.append(int(field))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"{path}: non-positive dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise PgmError(f"{path}: maxval {maxval} out of range [1, 65535]")
    count = width * height
    if magic == b"P5":
        pos += 1   # exactly one whitespace byte after maxval
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        raster = data[pos:pos + need]
        if len(raster) != need:
            raise PgmError(f"{path}: raster truncated at byte offset {pos + len(raster)} "
                           f"(want {need} bytes)")
        dt = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pixels = np.frombuffer(raster, dtype=dt).astype(np.int64)
        if pos + need != len(data):
            raise PgmError(f"{path}: trailing bytes after raster at offset {pos + need}")
    else:
        vals = []
        while len(vals) < count:
            field, pos = _pgm_scan(data, pos, path)
            if not field.isdigit():
                raise PgmError(f"{path}: non-numeric sample {field!r} at byte offset {pos - len(field)}")
            vals.append(int(field))
        pixels = np.array(vals, dtype=np.int64)
    if pixels.max(initial=0) > maxval:
        raise PgmError(f"{path}: sample value {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(height, width), maxval


def read_pgm(path) -> np.ndarray:
    """PGM file -> float64 array in [0, 1] (1 = white background)."""
    pixels, maxval = read_pgm_raw(path)
    return pixels.astype(np.float64) / maxval


def write_pgm(path, image: np.ndarray, maxval: int = 255, comments=()) -> None:
    """Write a [0, 1] grayscale array as a binary (P5) PGM."""
    if image.ndim != 2 or image.size == 0:
        raise PgmError(f"write_pgm: need a non-empty 2-D image, got shape {image.shape}")
    if not 0 < maxval < 65536:
        raise PgmError(f"write_pgm: maxval {maxval} out of range [1, 65535]")
    q = np.clip(np.rint(np.asarray(image, dtype=np.float64) * maxval), 0, maxval).astype(np.int64)
    h, w = q.shape
    header = [b"P5"]
    header.extend(("# " + c).encode("ascii") for c in comments)
    header.append(f"{w} {h}".encode("ascii"))
    header.append(str(maxval).encode("ascii"))
    with open(path, "wb") as f:
        f.write(b"\n".join(header) + b"\n")
        dt = np.uint8 if maxval < 256 else np.dtype(">u2")
        f.write(q.astype(dt).tobytes())


# ---------------------------------------------------------------------
# manifests and datasets
# ---------------------------------------------------------------------

@dataclass
class Example:
    id: str                 # relative image path, doubles as the example id
    image: np.ndarray       # (H, W) float in [0, 1]
    tokens: list[str]


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; DataError when it is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def load_manifest(path) -> list[tuple[str, list[str]]]:
    """Manifest lines -> [(relative image path, token list), ...].  A
    reserved token (<PAD>, <UNK>, <START>, <END>) is not content, and a
    line holding one is a DataError."""
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected TAB between path and tokens")
        rel, toks = line.split("\t", 1)
        if "\0" in rel:
            raise DataError(f"{path}:{lineno}: image path holds a NUL byte")
        tokens = toks.split()
        reserved = [t for t in tokens if t in RESERVED]
        if reserved:
            raise DataError(f"{path}:{lineno}: token {reserved[0]!r} is reserved "
                            "and cannot appear in a manifest")
        out.append((rel, tokens))
    return out


def write_manifest(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rel, tokens in entries:
            f.write(f"{rel}\t{' '.join(tokens)}\n")


def load_dataset(manifest_path) -> list[Example]:
    """Manifest + referenced PGM files -> in-memory examples."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    examples = []
    for rel, tokens in load_manifest(manifest_path):
        examples.append(Example(id=rel, image=read_pgm(os.path.join(base, rel)),
                                tokens=tokens))
    return examples


# ---------------------------------------------------------------------
# bucketing
# ---------------------------------------------------------------------

def load_buckets(path) -> list[tuple[int, int]]:
    """Bucket file -> [(width, height), ...], validated multiples of
    DOWNSAMPLE."""
    buckets = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise DataError(f"{path}:{lineno}: expected 'W H', got {line!r}")
        w, h = int(parts[0]), int(parts[1])
        if w % DOWNSAMPLE or h % DOWNSAMPLE or w == 0 or h == 0:
            raise DataError(f"{path}:{lineno}: bucket {w}x{h} must be positive "
                            f"multiples of {DOWNSAMPLE}")
        buckets.append((w, h))
    if not buckets:
        raise DataError(f"{path}: no buckets defined")
    return buckets


def assign_bucket(height: int, width: int, buckets) -> tuple[int, int] | None:
    """Smallest bucket (by area, then width) containing the image, or None."""
    fitting = [(bw * bh, bw, bh) for bw, bh in buckets if bw >= width and bh >= height]
    if not fitting:
        return None
    _, bw, bh = min(fitting)
    return bw, bh


def pad_image(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Pad with white (1.0) on the bottom/right to the requested size."""
    h, w = image.shape
    if h > height or w > width:
        raise DataError(f"pad_image: image {h}x{w} larger than target {height}x{width}")
    out = np.ones((height, width), dtype=image.dtype)
    out[:h, :w] = image
    return out


def round_up(n: int) -> int:
    """n rounded up to a multiple of DOWNSAMPLE, the encoder's factor."""
    return -(-n // DOWNSAMPLE) * DOWNSAMPLE


def model_size(height: int, width: int, buckets) -> tuple[int, int, bool]:
    """(height, width, misfit): the size the model takes an image of
    height x width at.

    The one padding policy of training, validation, predict, evaluate and
    inspect: the smallest bucket that holds the image (`assign_bucket`),
    else, with no buckets or when none fits, the next multiples of
    DOWNSAMPLE (`round_up`).  misfit is True when buckets were given but
    none fits.
    """
    if buckets:
        fit = assign_bucket(height, width, buckets)
        if fit is not None:
            return fit[1], fit[0], False
    return round_up(height), round_up(width), bool(buckets)


def pad_for_model(image: np.ndarray, buckets) -> tuple[np.ndarray, bool]:
    """Pad an (H, W) image white, bottom/right, to its `model_size`.
    Returns (padded, misfit)."""
    height, width, misfit = model_size(*image.shape, buckets)
    return pad_image(image, height, width), misfit


@dataclass
class Batch:
    images: np.ndarray      # (B, 1, H, W)
    seq: np.ndarray         # (B, T) int ids: [tokens END PAD...]


def plan_batches(examples, buckets, batch_size: int) -> tuple[list[list[Example]], int]:
    """Group examples into same-bucket batches of at most batch_size,
    padding nothing.

    Returns (plan, dropped): each batch's examples, batches in bucket
    order (width, then height) and examples in input order within a
    bucket, so shuffling the examples reshuffles the batches; images
    that fit no bucket (`model_size`) are dropped, and dropped counts
    them.
    """
    grouped: dict[tuple[int, int], list[Example]] = {}
    dropped = 0
    for ex in examples:
        height, width, misfit = model_size(*ex.image.shape, buckets)
        if misfit:
            dropped += 1
        else:
            grouped.setdefault((width, height), []).append(ex)
    plan = [items[i:i + batch_size] for _, items in sorted(grouped.items())
            for i in range(0, len(items), batch_size)]
    return plan, dropped


def bucket_and_pad(examples, buckets, batch_size: int,
                   vocab: Vocabulary) -> tuple[list[Batch], int]:
    """The batches of `plan_batches`, padded.

    Images are padded by `pad_for_model`; sequences are encoded as ids,
    terminated with END and padded with PAD to the batch max.  Returns
    (batches, dropped) as `plan_batches` does.  One planned batch, given
    as the examples, comes back as exactly one batch; training pads its
    steps' batches that way, one per step.
    """
    plan, dropped = plan_batches(examples, buckets, batch_size)
    batches = []
    for chunk in plan:
        images = np.stack([pad_for_model(ex.image, buckets)[0] for ex in chunk])[:, None]
        t_max = max(len(ex.tokens) for ex in chunk) + 1    # room for END
        seq = np.full((len(chunk), t_max), PAD_ID, dtype=np.int64)
        for j, ex in enumerate(chunk):
            ids = vocab.encode(ex.tokens)
            seq[j, :len(ids)] = ids
            seq[j, len(ids)] = END_ID
        batches.append(Batch(images=images, seq=seq))
    return batches, dropped
