"""Seeded fuzz of every input file the CLI reads.

Each case mutates one well-formed input (a manifest, a bucket file, a
config file, a `--set` value, a PGM image or a checkpoint) and runs the
command that reads it, in process, through `cli.main`; a mutated
checkpoint is read by `predict`, and also by `train --resume`.  Whatever
the mutant holds, the command must exit 0, or exit 1 or 2 with exactly
one stderr line that starts with `error:`: never a traceback.  A refused
command (exit 1 or 2) leaves the fuzz inputs and its output directory
as it found them, byte for byte (`gradcheck.tree`).  A resumed
run may also exit 3, the same way: a checkpoint's parameters must be
finite, but a flipped exponent bit can leave one finite and so large
that the first loss overflows.

The `state` kind rewrites one parameter or buffer of the checkpoint
through the container's own reader and writer, so every mutant passes
the container checks and reaches `Model.load`, which must refuse it:
`predict` exits 1.

The inputs are tiny (two 8x16 images, d=8, hidden=4, one training step),
so a case costs milliseconds.  A config file that lost a line to a
mutation would fall back to the full-scale model, so `train` gets by
`--set` each size key that the config file in use no longer sets; a
size value the file still sets, mutated or not, is the one trained with.
"""
import numpy as np
import pytest

from gradcheck import refusals_leave_no_trace
from img2latex.checkpoint import load_checkpoint, save_checkpoint
from img2latex.cli import main
from img2latex.config import ConfigError, parse_config_file
from img2latex.data import write_pgm

CASES = 200

BASE_CONFIG = """\
# tiny model over two images
d = 8
d_emb = 4
hidden = 4
attn_dim = 4
out_dim = 4
steps = 1
batch_size = 2
validate_every = 1
max_len = 3
dtype = f32
dropout = 0.1
lr = 0.001
seed = 3
patience = 5
k = 2
standard_cell_output = false
attend_current_hidden = true
bn_momentum = 0.1
timescale = 10000.0
clip_norm = 5.0
"""
SIZE_KEYS = ["d=8", "d_emb=4", "hidden=4", "attn_dim=4", "out_dim=4", "steps=1",
             "batch_size=2", "validate_every=1", "max_len=3"]

# Unicode digits int() or float() parse, or that look like digits, and
# Unicode whitespace str.split() and str.strip() remove
UNICODE_DIGITS = ["\u00b2", "\u0663", "\u07c2", "\u0e53", "\uff18", "\U0001d7e0",
                  "\u2167", "\u00bd"]
UNICODE_SPACES = ["\u00a0", "\u2003", "\u3000", "\u2028", "\u0085", "\x0b", "\x0c",
                  "\x1c"]
# invalid UTF-8, and NUL
STRAY_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80", b"\0"]


def flip_bits(data, rng):
    out = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        i = rng.integers(len(out))
        out[i] ^= 1 << int(rng.integers(8))
    return bytes(out)


def insert(data, rng, piece):
    i = int(rng.integers(len(data) + 1))
    return data[:i] + piece + data[i:]


def replace_digit(data, rng):
    """An ASCII digit (any byte when there is none) becomes a Unicode digit."""
    digits = [i for i, c in enumerate(data) if 48 <= c <= 57] or list(range(len(data)))
    i = int(rng.choice(digits))
    piece = rng.choice(UNICODE_DIGITS).encode("utf-8")
    return data[:i] + piece + data[i + 1:]


def mutate(data, rng, others):
    """One seeded mutation of data; others are the base inputs of the
    other kinds, for one file type in place of another."""
    kind = rng.integers(6)
    if kind == 0:
        return flip_bits(data, rng)
    if kind == 1:
        return data[:rng.integers(len(data))]
    if kind == 2:
        return insert(data, rng, STRAY_BYTES[rng.integers(len(STRAY_BYTES))])
    if kind == 3:
        return replace_digit(data, rng)
    if kind == 4:
        return insert(data, rng, rng.choice(UNICODE_SPACES).encode("utf-8"))
    other = others[rng.integers(len(others))]
    return flip_bits(other, rng) if rng.random() < 0.5 else other


def _resized(arr, rng):
    """arr one longer or one shorter along one axis, zero-filled."""
    shape = list(arr.shape)
    axis = int(rng.integers(len(shape)))
    shape[axis] += 1 if shape[axis] == 0 or rng.random() < 0.5 else -1
    out = np.zeros(shape, dtype=arr.dtype)
    common = tuple(slice(0, min(a, b)) for a, b in zip(arr.shape, shape))
    out[common] = arr[common]
    return out


def mutate_state(checkpoint, rng, scratch):
    """The bytes of `checkpoint` with one parameter or buffer rewritten:
    a NaN or an infinity at a random index, a negative running variance,
    the array dropped, renamed or joined by an extra one, one longer or
    shorter along one axis, or cut to a single element."""
    ckpt = load_checkpoint(checkpoint)
    arrays = ckpt.params if rng.random() < 0.5 else ckpt.buffers
    kind = rng.integers(7)
    if kind == 1:
        arrays = ckpt.buffers
        name = str(rng.choice(sorted(n for n in arrays if n.endswith(".running_var"))))
    else:
        name = str(rng.choice(sorted(arrays)))
    arr = arrays[name].copy()
    if kind == 0:
        arr.flat[rng.integers(arr.size)] = rng.choice([np.nan, np.inf, -np.inf])
        arrays[name] = arr
    elif kind == 1:
        arr.flat[rng.integers(arr.size)] = -rng.uniform(1e-3, 10.0)
        arrays[name] = arr
    elif kind == 2:
        del arrays[name]
    elif kind == 3:
        arrays[name + ".old"] = arrays.pop(name)
    elif kind == 4:
        arrays[name + ".extra"] = arr
    elif kind == 5:
        arrays[name] = _resized(arr, rng)
    else:
        one = arr.reshape(-1)[:1]
        arrays[name] = one if one.shape != arr.shape else one.reshape(1, 1)
    save_checkpoint(scratch, ckpt.meta, ckpt.params, ckpt.buffers, ckpt.optimizer)
    with open(scratch, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Two tiny images, their manifest, a bucket file, the base config and
    a checkpoint trained from it; returns the paths and each input's bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "images").mkdir()
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        write_pgm(root / "images" / f"{name}.pgm", rng.random((8, 16)))
    (root / "manifest.tsv").write_text("images/a.pgm\tx + y\nimages/b.pgm\ty ^ 2\n",
                                       encoding="utf-8")
    (root / "buckets.txt").write_text("16 8\n", encoding="utf-8")
    (root / "base.cfg").write_text(BASE_CONFIG, encoding="utf-8")
    run = root / "run"
    assert main(["train", "--train-manifest", str(root / "manifest.tsv"),
                 "--buckets", str(root / "buckets.txt"), "--out", str(run),
                 "--config", str(root / "base.cfg")]) == 0
    inputs = {
        "manifest": (root / "manifest.tsv").read_bytes(),
        "buckets": (root / "buckets.txt").read_bytes(),
        "config": (root / "base.cfg").read_bytes(),
        "pgm": (root / "images" / "a.pgm").read_bytes(),
        "checkpoint": (run / "last.ckpt").read_bytes(),
    }
    return {"root": root, "ckpt": str(run / "last.ckpt"), "inputs": inputs}


def predict_argv(base, out, checkpoint=None, manifest=None, buckets=None):
    root = base["root"]
    return ["predict", "--checkpoint", checkpoint or base["ckpt"],
            "--manifest", manifest or str(root / "manifest.tsv"),
            "--buckets", buckets or str(root / "buckets.txt"),
            "--out", str(out / "pred.tsv"), "--greedy", "--max-len", "3"]


def file_keys(config):
    """The keys a config file sets as `key = value` lines, as the config
    reader sees them; none when the reader refuses the file."""
    try:
        return parse_config_file(config)
    except ConfigError:
        return {}


def train_argv(base, out, config=None, override=None):
    root = base["root"]
    config = config or str(root / "base.cfg")
    argv = ["train", "--train-manifest", str(root / "manifest.tsv"),
            "--buckets", str(root / "buckets.txt"), "--out", str(out / "run"),
            "--config", config]
    keys = file_keys(config)
    argv += [f"--set={kv}" for kv in SIZE_KEYS if kv.split("=")[0] not in keys]
    if override is not None:
        argv.append(f"--set={override}")
    return argv


def argv_for(kind, base, out, mutant):
    """The command that reads the mutant; file mutants sit beside the
    images so a manifest's relative paths still resolve."""
    if kind == "set":
        # argv arrives decoded with surrogateescape, and cannot hold NUL
        return train_argv(base, out, override=mutant.replace(b"\0", b"").decode(
            "utf-8", "surrogateescape"))
    path = base["root"] / f"mutant.{kind}"
    path.write_bytes(mutant)
    if kind == "manifest":
        return predict_argv(base, out, manifest=str(path))
    if kind == "buckets":
        return predict_argv(base, out, buckets=str(path))
    if kind in ("checkpoint", "state"):
        return predict_argv(base, out, checkpoint=str(path))
    if kind == "resume":
        return train_argv(base, out, override="steps=2") + ["--resume", str(path)]
    if kind == "config":
        return train_argv(base, out, config=str(path))
    assert kind == "pgm"
    return ["inspect", "--checkpoint", base["ckpt"], "--image", str(path),
            "--out", str(out / "inspect"), "--max-len", "3"]


KINDS = ["manifest", "buckets", "config", "set", "pgm", "checkpoint", "resume", "state"]
# the exit codes a kind's command may give, where they are not 0, 1 and 2
EXITS = {"resume": (0, 1, 2, 3), "state": (1,)}


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_input_exits_cleanly(kind, base, tmp_path, capfd):
    # capfd, not capsys: like the interpreter's own stderr, its stream
    # survives the lone surrogates an undecodable argv byte becomes
    inputs = base["inputs"]
    source = "checkpoint" if kind == "resume" else kind
    if kind == "set":
        pool = [line.encode("utf-8").replace(b" = ", b"=")
                for line in BASE_CONFIG.splitlines()[1:]]
        others = list(inputs.values())
    else:
        others = [data for name, data in inputs.items() if name != source]
    seed = KINDS.index(kind)
    checked_main = refusals_leave_no_trace(main, [base["root"], tmp_path])
    codes = []
    for case in range(CASES):
        rng = np.random.default_rng((seed, case))
        if kind == "state":
            mutant = mutate_state(base["ckpt"], rng, str(tmp_path / "state.ckpt"))
        else:
            data = pool[rng.integers(len(pool))] if kind == "set" else inputs[source]
            mutant = mutate(data, rng, others)
        capfd.readouterr()
        rc = checked_main(argv_for(kind, base, tmp_path, mutant))
        err = capfd.readouterr().err
        assert rc in EXITS.get(kind, (0, 1, 2)), (case, mutant[:200], rc, err)
        if rc:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (
                case, mutant[:200], err)
        codes.append(rc)
    # the mutants reach both sides: some are accepted, some refused (every
    # state mutant is refused)
    assert kind == "state" or 0 < codes.count(0) < CASES
