"""Golden outputs: a fixed tiny CLI script and the SHA-256 of all it writes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_run.py WORKDIR
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_run.py WORKDIR --write

The first prints the table as JSON; the second also rewrites
tests/golden_outputs.json, for a change that moves output bits on
purpose, and lists on stderr each output whose digest moved against the
table it replaces, as "name old -> new" with 12-character prefixes ("-"
for an output one side lacks), ready to paste where the change names
each digest that moved, and why.  WORKDIR must be empty or absent.

The script runs, in WORKDIR and with relative paths only: gen-data; an
MLE train with validation and dropout; a same-phase --resume of it; an
RL train --init from it with leave_one_out; predict greedy, beam 5 and
beam 5 with --length-normalize; evaluate; and inspect with --dump-pe and
--dump-features.  Every file written is hashed, and so is each command's
stdout.  train_log.tsv loses its wall-time column first, and every
occurrence of WORKDIR's absolute path is cut from text before hashing.
Training checkpoints depend on the BLAS thread count, so run it with
one thread, as tests/test_golden_outputs.py does.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

from img2latex import cli

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

MODEL = [arg for kv in ("d=16", "d_emb=8", "hidden=16", "attn_dim=16", "out_dim=16",
                        "dtype=f32", "lr=0.01", "batch_size=4", "patience=99",
                        "max_len=20", "seed=1", "k=2", "validate_every=10")
         for arg in ("--set", kv)]
DECODE = ["--buckets", "data/buckets.txt", "--max-len", "20"]

SCRIPT = [
    ("gen-data", ["gen-data", "--out", "data", "--count", "12", "--seed", "5",
                  "--max-depth", "1", "--max-terms", "2", "--formula-max-len", "12"]),
    ("train-mle", ["train", "--train-manifest", "data/manifest.tsv",
                   "--val-manifest", "data/manifest.tsv", "--buckets", "data/buckets.txt",
                   "--out", "mle", "--set", "steps=30", "--set", "dropout=0.1"] + MODEL),
    ("train-mle-resume", ["train", "--train-manifest", "data/manifest.tsv",
                          "--buckets", "data/buckets.txt", "--out", "resumed",
                          "--resume", "mle/last.ckpt", "--set", "steps=40",
                          "--set", "dropout=0.1"] + MODEL),
    ("train-rl", ["train", "--phase", "rl", "--train-manifest", "data/manifest.tsv",
                  "--buckets", "data/buckets.txt", "--out", "rl", "--init", "resumed/best.ckpt",
                  "--set", "steps=3", "--set", "leave_one_out=true"] + MODEL),
    ("predict-greedy", ["predict", "--checkpoint", "resumed/last.ckpt",
                        "--manifest", "data/manifest.tsv", "--out", "greedy.tsv",
                        "--greedy"] + DECODE),
    ("predict-beam5", ["predict", "--checkpoint", "resumed/last.ckpt",
                       "--manifest", "data/manifest.tsv", "--out", "beam5.tsv",
                       "--beam", "5"] + DECODE),
    ("predict-beam5-normalized", ["predict", "--checkpoint", "resumed/last.ckpt",
                                  "--manifest", "data/manifest.tsv", "--out", "beam5_norm.tsv",
                                  "--beam", "5", "--length-normalize"] + DECODE),
    ("evaluate", ["evaluate", "--checkpoint", "rl/last.ckpt", "--manifest", "data/manifest.tsv",
                  "--out", "evaluate.tsv", "--beam", "5"] + DECODE),
    ("inspect", ["inspect", "--checkpoint", "resumed/last.ckpt",
                 "--image", "data/images/0000.pgm", "--out", "inspect",
                 "--dump-pe", "--dump-features"] + DECODE),
]


def environment() -> dict:
    """What the digests depend on besides the code: numpy and its BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_config": blas.get("openblas configuration", "unknown")}


def _digest(rel: str, data: bytes, root: str) -> str:
    data = data.replace(root.encode(), b"<workdir>")
    if os.path.basename(rel) == "train_log.tsv":
        # step, phase, value, validation metric; not the wall time
        data = b"".join(b"\t".join(line.split(b"\t")[:4]) + b"\n"
                        for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def run(workdir: str) -> dict:
    """Run SCRIPT in workdir; returns {"environment": ..., "outputs": {name: sha256}}."""
    root = os.path.abspath(workdir)
    os.makedirs(root, exist_ok=True)
    if os.listdir(root):
        raise SystemExit(f"error: {root} is not empty")
    outputs = {}
    here = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in SCRIPT:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"error: {name} exited {code}")
            outputs[f"stdout/{name}"] = _digest(name, out.getvalue().encode(), root)
    finally:
        os.chdir(here)
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                outputs[rel] = _digest(rel, fh.read(), root)
    return {"environment": environment(), "outputs": dict(sorted(outputs.items()))}


def moved(old: dict, new: dict) -> list[str]:
    """"name old -> new" for each output whose digest differs between two
    {name: sha256} tables, in name order, with 12-character prefixes and
    "-" for the side that lacks it."""
    return [f"{name} {old.get(name, '-')[:12]} -> {new.get(name, '-')[:12]}"
            for name in sorted(set(old) | set(new)) if old.get(name) != new.get(name)]


def main(argv) -> int:
    if len(argv) not in (1, 2) or (len(argv) == 2 and argv[1] != "--write"):
        print(__doc__, file=sys.stderr)
        return 2
    table = run(argv[0])
    text = json.dumps(table, indent=1) + "\n"
    if len(argv) == 2:
        old = {}
        if os.path.exists(TABLE):
            with open(TABLE, encoding="utf-8") as fh:
                old = json.load(fh)["outputs"]
        for line in moved(old, table["outputs"]):
            print(line, file=sys.stderr)
        with open(TABLE, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
