"""End-to-end command-line behavior: outputs, determinism, exit codes."""
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from gradcheck import desk_config, misfeed_rollouts

from img2latex import cli, training
from img2latex.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from img2latex.cli import build_parser, main
from img2latex.config import SCHEMA, ModelConfig, full_defaults, load_config
from img2latex.data import (assign_bucket, build_vocab, load_buckets, load_dataset,
                            pad_for_model, read_pgm_raw, write_pgm)
from img2latex.decoding import DecodeResult, greedy_decode
from img2latex.encoder import Encoder
from img2latex.metrics import MetricReport
from img2latex.model import Model

TINY = []
for kv in ("d=8", "d_emb=4", "hidden=8", "attn_dim=8", "out_dim=8",
           "dropout=0.0", "lr=0.001", "steps=2", "batch_size=6",
           "validate_every=2", "patience=99", "max_len=20", "seed=1", "k=2"):
    TINY += ["--set", kv]


def gen(out, count=6, seed=3):
    return main(["gen-data", "--out", str(out), "--count", str(count),
                 "--seed", str(seed), "--max-depth", "1", "--max-terms", "2",
                 "--formula-max-len", "12"])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Dataset plus a briefly trained checkpoint, built once per module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert gen(data) == 0
    run = root / "run"
    rc = main(["train", "--train-manifest", str(data / "manifest.tsv"),
               "--buckets", str(data / "buckets.txt"), "--out", str(run)] + TINY)
    assert rc == 0
    return {"data": data, "manifest": str(data / "manifest.tsv"),
            "buckets": str(data / "buckets.txt"),
            "ckpt": str(run / "best.ckpt"), "run": run}


# ---------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------

def test_gen_data_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert gen(a) == 0
    assert gen(b) == 0
    out = capsys.readouterr().out
    assert "generated count=6" in out and "bucket=" in out
    for rel in ["manifest.tsv", "buckets.txt"] + sorted(
            os.listdir(a / "images")):
        pa = a / rel if not rel.endswith(".pgm") else a / "images" / rel
        pb = b / rel if not rel.endswith(".pgm") else b / "images" / rel
        assert pa.read_bytes() == pb.read_bytes(), rel
    assert len(os.listdir(a / "images")) == 6


def test_gen_data_zero_count(tmp_path, capsys):
    out = tmp_path / "empty"
    assert gen(out, count=0) == 0
    assert (out / "manifest.tsv").read_text() == ""
    assert (out / "buckets.txt").read_text() == "8 8\n"
    assert "count=0" in capsys.readouterr().out


# each used to exit 1 (the I/O code) with a GrammarConfig repr, or, for
# --count, exit 0 with "generated count=-3", or, for --seed, a traceback
@pytest.mark.parametrize("flag,value,rule", [
    ("--max-depth", "-1", "at least 0"), ("--max-terms", "0", "at least 1"),
    ("--formula-max-len", "0", "at least 1"), ("--count", "-3", "at least 0"),
    ("--seed", "-1", "at least 0")])
def test_gen_data_bad_flag_value_is_a_one_line_usage_error(tmp_path, capsys, flag, value,
                                                           rule):
    out = tmp_path / "data"
    rc = main(["gen-data", "--out", str(out), flag, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag} must be {rule}, got {value}\n"
    assert not out.exists()


# ---------------------------------------------------------------------
# train
# ---------------------------------------------------------------------

def test_train_writes_checkpoints_and_effective_config(ws):
    run = ws["run"]
    for name in ("best.ckpt", "last.ckpt", "effective.cfg", "train_log.tsv"):
        assert (run / name).exists(), name
    expected = full_defaults()
    expected.update(d=8, d_emb=4, hidden=8, attn_dim=8, out_dim=8,
                    dropout=0.0, lr=0.001, steps=2, batch_size=6,
                    validate_every=2, patience=99, max_len=20, seed=1, k=2)
    assert load_config(str(run / "effective.cfg"), []) == expected


def test_train_echoes_config_and_outcome(ws, tmp_path, capsys):
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
               ws["buckets"], "--out", str(tmp_path / "echo")]
              + TINY + ["--set", "steps=1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# effective config" in out
    assert "d = 8" in out
    assert "trained steps=1" in out


def test_train_unknown_key_is_a_usage_error(ws, tmp_path, capsys):
    # beam and threshold are predict's and evaluate's flags, not config keys
    for key in ("bogus=1", "beam=3", "threshold=0.5"):
        rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
                   ws["buckets"], "--out", str(tmp_path / "x")] + TINY + ["--set", key])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


def test_train_rl_without_init_is_a_usage_error(ws, tmp_path, capsys):
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
               ws["buckets"], "--out", str(tmp_path / "x"),
               "--phase", "rl"] + TINY)
    assert rc == 2
    assert "rl phase requires" in capsys.readouterr().err


def tree(root):
    """Every directory and file under root, by relative path, with a file's
    bytes (None for a directory)."""
    found = {}
    for d, dirs, files in os.walk(root):
        found.update((os.path.relpath(os.path.join(d, name), root), None) for name in dirs)
        for name in files:
            with open(os.path.join(d, name), "rb") as fh:
                found[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return found


@pytest.mark.parametrize("case", ["empty-val-manifest", "missing-resume", "missing-init"])
def test_a_refused_train_leaves_the_tree_as_it_found_it(ws, tmp_path, capsys, case):
    # each used to leave an empty run directory behind, and a missing
    # checkpoint read "[Errno 2] No such file or directory"
    (tmp_path / "empty.tsv").write_text("")
    missing = str(tmp_path / "no.ckpt")
    extra, code, message = {
        "empty-val-manifest": (["--val-manifest", str(tmp_path / "empty.tsv")], 2,
                               f"{tmp_path / 'empty.tsv'}: no validation examples"),
        "missing-resume": (["--resume", missing], 1, f"checkpoint not found: {missing}"),
        "missing-init": (["--phase", "rl", "--init", missing], 1,
                         f"checkpoint not found: {missing}"),
    }[case]
    before, run = (tree(tmp_path), tree(ws["run"])), tmp_path / "run"
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
               "--out", str(run)] + TINY + extra)
    assert rc == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (tree(tmp_path), tree(ws["run"])) == before and not run.exists()


def profile_table(path):
    """The --profile TSV as {op: (records, out_bytes, vjp_s)}, in file order."""
    header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
    assert header == ["op", "records", "out_bytes", "vjp_s"]
    table = {op: (int(n), int(nbytes), float(secs)) for op, n, nbytes, secs in rows}
    assert len(table) == len(rows)
    return table


def without_wall_time(log):
    return [line.rsplit("\t", 1)[0] for line in log.read_text().splitlines()]


@pytest.mark.parametrize("phase", ["mle", "rl"])
def test_train_profile_writes_the_first_steps_ops_and_changes_no_output(ws, tmp_path, phase):
    base = ["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
            "--phase", phase] + TINY + (["--init", ws["ckpt"]] if phase == "rl" else [])
    assert main(base + ["--out", str(tmp_path / "plain")]) == 0
    assert main(base + ["--out", str(tmp_path / "two"), "--profile",
                        str(tmp_path / "two.tsv")]) == 0
    assert main(base + ["--out", str(tmp_path / "one"), "--profile", str(tmp_path / "one.tsv"),
                        "--set", "steps=1"]) == 0
    plain, two = tmp_path / "plain", tmp_path / "two"
    for name in ("best.ckpt", "last.ckpt", "effective.cfg"):
        assert (plain / name).read_bytes() == (two / name).read_bytes(), name
    assert without_wall_time(plain / "train_log.tsv") == without_wall_time(two / "train_log.tsv")
    table = profile_table(tmp_path / "two.tsv")
    assert {"attention_scores", "attention_context", "lstm_cell", "conv2d",
            "cross_entropy"} <= set(table)
    assert all(n > 0 and nbytes > 0 and secs >= 0.0 for n, nbytes, secs in table.values())
    secs = [s for _, _, s in table.values()]
    assert secs == sorted(secs, reverse=True) and sum(secs) > 0.0
    # only the first step is profiled: a one-step run records the same ops
    one = profile_table(tmp_path / "one.tsv")
    assert {op: v[:2] for op, v in one.items()} == {op: v[:2] for op, v in table.items()}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_a_profile_path_that_cannot_be_written_is_refused_before_any_input_is_read(
        tmp_path, capsys, where):
    # the manifest and bucket file do not exist: reading either would exit 1
    path = tmp_path / "none" / "p.tsv" if where == "missing-directory" else tmp_path
    before = tree(tmp_path)
    rc = main(["train", "--train-manifest", str(tmp_path / "no.tsv"), "--buckets",
               str(tmp_path / "no.txt"), "--out", str(tmp_path / "run"), "--profile",
               str(path)] + TINY)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: --profile {path}"), err
    assert tree(tmp_path) == before


def poisoned_checkpoint(ws, tmp_path):
    """The ws checkpoint with dec.w4 at the dtype's largest finite value:
    it loads, and its logits overflow at the first step."""
    model, _ = Model.load(ws["ckpt"])
    w4 = model.params["dec.w4"].data
    w4[:] = np.finfo(w4.dtype).max
    poisoned = tmp_path / "poisoned.ckpt"
    model.save(str(poisoned))
    return str(poisoned)


def train_to_divergence(ws, tmp_path, capsys, *phase):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
                   ws["buckets"], "--out", str(tmp_path / "x"), *phase,
                   "--init", poisoned_checkpoint(ws, tmp_path)] + TINY + ["--set", "steps=1"])
    assert rc == 3
    assert "non-finite loss nan at step 1" in capsys.readouterr().err


def test_train_divergence_exit_code(ws, tmp_path, capsys):
    train_to_divergence(ws, tmp_path, capsys)


def test_train_rl_divergence_exit_code(ws, tmp_path, capsys):
    train_to_divergence(ws, tmp_path, capsys, "--phase", "rl")


def test_train_rl_input_feed_violation_is_a_one_line_usage_error(ws, tmp_path, capsys,
                                                                 monkeypatch):
    misfeed_rollouts(monkeypatch)
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
               ws["buckets"], "--out", str(tmp_path / "x"), "--phase", "rl",
               "--init", ws["ckpt"]] + TINY + ["--set", "steps=1"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "input-feed audit failed at step 1" in err[0]


def test_rl_validation_decodes_what_predict_decodes(ws, tmp_path, capsys, monkeypatch):
    # buckets that pad most images past the next multiple of 8 and leave
    # the widest without a bucket
    examples = load_dataset(ws["manifest"])
    widths = sorted(-(-ex.image.shape[1] // 8) * 8 for ex in examples)
    height = max(-(-ex.image.shape[0] // 8) * 8 for ex in examples)
    buckets = tmp_path / "buckets.txt"
    buckets.write_text(f"{widths[2]} {height}\n{widths[-1] - 8} {height}\n")
    misfits = sum(assign_bucket(*ex.image.shape, load_buckets(str(buckets))) is None
                  for ex in examples)
    assert misfits >= 1
    decoded = []

    def recorded(model, image, max_len):
        res = greedy_decode(model, image, max_len=max_len)
        decoded.append(" ".join(model.vocab[i] for i in res.tokens))
        return res

    monkeypatch.setattr(training, "greedy_decode", recorded)
    run = tmp_path / "rl"
    assert main(["train", "--train-manifest", ws["manifest"], "--buckets", str(buckets),
                 "--out", str(run), "--phase", "rl", "--init", ws["ckpt"]]
                + TINY + ["--set", "steps=1", "--set", "validate_every=1"]) == 0
    assert len(decoded) == len(examples)
    # best.ckpt holds the model the validation pass decoded with
    out = tmp_path / "pred.tsv"
    assert main(["predict", "--checkpoint", str(run / "best.ckpt"), "--manifest",
                 ws["manifest"], "--out", str(out), "--greedy", "--max-len", "20",
                 "--buckets", str(buckets)]) == 0
    assert f"{misfits} fit no bucket" in capsys.readouterr().out
    assert [line.split("\t")[1] for line in out.read_text().splitlines()] == decoded


# ---------------------------------------------------------------------
# resume: what a checkpoint must hold to be continued
# ---------------------------------------------------------------------

def edited_checkpoint(src, dst, edit):
    """A copy of checkpoint `src` at `dst`, after `edit(ckpt)` has changed
    its meta or optimizer state in place."""
    ckpt = load_checkpoint(src)
    edit(ckpt)
    save_checkpoint(str(dst), ckpt.meta, ckpt.params, ckpt.buffers, ckpt.optimizer)
    return str(dst)


def resume(ws, tmp_path, checkpoint, *extra):
    return main(["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
                 "--out", str(tmp_path / "resumed"), "--resume", checkpoint]
                + TINY + ["--set", "steps=3", *extra])


def _flatten_first_matrix(moments):
    name = next(n for n, m in moments.items() if m.ndim == 2 and min(m.shape) > 1)
    moments[name] = moments[name].reshape(-1)


# each used to escape cli.main as a traceback (KeyError, ValueError,
# TypeError, OptimError, a broadcast error in Adam.step), or to resume
# with a fresh optimizer and exit 0
UNRESUMABLE = {
    "no-step": lambda c: c.meta.pop("step"),
    "text-step": lambda c: c.meta.update(step="x"),
    "text-best-metric": lambda c: c.meta.update(best_metric="x"),
    "list-stale-validations": lambda c: c.meta.update(stale_validations=[1]),
    "no-optimizer-state": lambda c: setattr(c, "optimizer", None),
    "no-second-moment": lambda c: c.optimizer.update(v={}),
    "first-moment-of-another-parameter": lambda c: c.optimizer["m"].update(
        {"other": c.optimizer["m"].pop(sorted(c.optimizer["m"])[0])}),
    "mis-shaped-moment": lambda c: _flatten_first_matrix(c.optimizer["v"]),
}


@pytest.mark.parametrize("case", sorted(UNRESUMABLE))
def test_unresumable_checkpoint_is_a_one_line_io_error(ws, tmp_path, capsys, case):
    bad = edited_checkpoint(ws["run"] / "last.ckpt", tmp_path / "bad.ckpt", UNRESUMABLE[case])
    assert_one_line_error(capsys, resume(ws, tmp_path, bad), 1)


def test_resuming_an_mle_checkpoint_as_the_rl_phase_points_to_init(ws, tmp_path, capsys):
    # it used to carry the mle Adam moments and step count into REINFORCE
    rc = resume(ws, tmp_path, str(ws["run"] / "last.ckpt"), "--phase", "rl")
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--init" in err, err


def test_init_and_resume_together_are_a_one_line_usage_error(ws, tmp_path, capsys):
    # --resume used to win silently
    rc = resume(ws, tmp_path, str(ws["run"] / "last.ckpt"), "--init", ws["ckpt"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--init" in err, err
    assert not (tmp_path / "resumed" / "last.ckpt").exists()


def test_resume_past_steps_is_a_one_line_usage_error(ws, tmp_path, capsys):
    # it used to run no step, print trained steps=2 and rewrite last.ckpt
    last = tmp_path / "resumed" / "last.ckpt"
    last.parent.mkdir()
    last.write_bytes((ws["run"] / "last.ckpt").read_bytes())
    rc = resume(ws, tmp_path, str(last), "--set", "steps=1")
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "step 2" in err and "steps=1" in err, err
    assert last.read_bytes() == (ws["run"] / "last.ckpt").read_bytes()
    # a checkpoint at exactly `steps` still resumes, running no step
    assert resume(ws, tmp_path, str(last), "--set", "steps=2") == 0
    assert "trained steps=2" in capsys.readouterr().out


@pytest.mark.parametrize("start", ["--init", "--resume"])
def test_effective_cfg_holds_the_model_keys_of_the_checkpoint(ws, tmp_path, capsys, start):
    # the desk preset's d = 64 used to be written for the d = 8 model
    ckpt = str(ws["run"] / "last.ckpt")
    run = tmp_path / "run"
    assert main(["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
                 "--out", str(run), "--config", os.path.join(
                     os.path.dirname(__file__), "..", "configs", "desk.cfg"),
                 start, ckpt, "--set", "steps=3", "--set", "seed=5"]) == 0
    expected = dict(desk_config(), steps=3, seed=5)
    expected.update((f.name, getattr(Model.load(ckpt)[0].config, f.name))
                    for f in fields(ModelConfig) if f.name not in ("vocab_size", "seed"))
    assert expected["d"] == 8 and expected["dtype"] == "f64"
    assert load_config(str(run / "effective.cfg"), []) == expected
    assert "\nd = 8\n" in capsys.readouterr().out


# ---------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------

def predict(ws, out, *extra):
    return main(["predict", "--checkpoint", ws["ckpt"], "--manifest",
                 ws["manifest"], "--out", str(out), "--max-len", "8",
                 "--buckets", ws["buckets"], *extra])


def test_predict_writes_one_scored_row_per_example(ws, tmp_path):
    out = tmp_path / "pred.tsv"
    assert predict(ws, out, "--greedy") == 0
    model, _ = Model.load(ws["ckpt"])
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        ex_id, tokens, score = line.split("\t")
        assert ex_id.startswith("images/")
        assert float(score) <= 0.0
        for tok in tokens.split():
            assert tok in model.vocab


def test_predict_beam_one_file_equals_greedy_file(ws, tmp_path):
    g, b = tmp_path / "g.tsv", tmp_path / "b.tsv"
    assert predict(ws, g, "--greedy") == 0
    assert predict(ws, b, "--beam", "1") == 0
    assert g.read_bytes() == b.read_bytes()


def test_predict_summary_counts_decodes_stopped_at_max_len(ws, tmp_path, capsys):
    model, _ = Model.load(ws["ckpt"])
    buckets = load_buckets(ws["buckets"])
    images = [pad_for_model(ex.image, buckets)[0] for ex in load_dataset(ws["manifest"])]
    counts = []
    for max_len in ("1", "8"):
        expected = sum(not greedy_decode(model, im, int(max_len)).finished for im in images)
        assert predict(ws, tmp_path / "p.tsv", "--greedy", "--max-len", max_len) == 0
        assert f"({expected} stopped at --max-len, 0 fit no bucket" in capsys.readouterr().out
        counts.append(expected)
    assert counts[0] > 0


def test_predict_and_evaluate_name_the_decodes_cut_off_on_stderr(ws, tmp_path, capsys,
                                                                 monkeypatch):
    ids = [ex.id for ex in load_dataset(ws["manifest"])]
    real = cli.greedy_decode
    calls = []

    def every_other_finishes(model, image, max_len):
        # the briefly trained model never samples END, so mark every other
        # decode finished to see a mix of both
        res = real(model, image, max_len)
        calls.append(None)
        return DecodeResult(res.tokens, res.score, len(calls) % 2 == 0, res.alphas)

    for patched, cut in ((False, ids), (True, ids[::2])):
        if patched:
            monkeypatch.setattr(cli, "greedy_decode", every_other_finishes)
        for command in ("predict", "evaluate"):
            calls.clear()
            assert main([command, "--checkpoint", ws["ckpt"], "--manifest", ws["manifest"],
                         "--out", str(tmp_path / "o.tsv"), "--greedy", "--buckets",
                         ws["buckets"], "--max-len", "3"]) == 0
            captured = capsys.readouterr()
            assert captured.err == f"cut off at --max-len 3: {' '.join(cut)}\n"
            # stdout keeps its one summary line, which counts them
            assert f"({len(cut)} stopped at --max-len, 0 fit no bucket" in captured.out
            assert len(captured.out.splitlines()) == 1
    monkeypatch.setattr(cli, "greedy_decode", lambda model, image, max_len: DecodeResult(
        [], 0.0, True))
    assert main(["predict", "--checkpoint", ws["ckpt"], "--manifest", ws["manifest"],
                 "--out", str(tmp_path / "o.tsv"), "--greedy"]) == 0
    assert capsys.readouterr().err == ""


def test_predict_missing_checkpoint_is_a_usage_error(ws, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(tmp_path / "no.ckpt"),
               "--manifest", ws["manifest"], "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "checkpoint not found" in capsys.readouterr().err


def test_predict_missing_manifest_is_an_io_error(ws, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", ws["ckpt"],
               "--manifest", str(tmp_path / "no.tsv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_version_1_checkpoint_is_refused_in_one_line(ws, tmp_path, capsys):
    # version 1 stored per-gate LSTM matrices; there is no converter
    blob = bytearray(open(ws["ckpt"], "rb").read())
    blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 1)
    old = tmp_path / "v1.ckpt"
    old.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        Model.load(str(old))
    rc = main(["predict", "--checkpoint", str(old), "--manifest", ws["manifest"],
               "--out", str(tmp_path / "o.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "version 1" in err
    assert err.count("\n") == 1


def _overflow_first_dims(blob):
    # both dimensions of the first parameter set to 2**32 - 1
    (mlen,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    record = len(MAGIC) + 12 + mlen + 4
    (nlen,) = struct.unpack_from("<H", blob, record)
    struct.pack_into("<II", blob, record + 2 + nlen + 2, 0xFFFFFFFF, 0xFFFFFFFF)
    return blob


def _rename_meta_key(blob):
    # still valid JSON, but the model config lacks a field
    return blob.replace(b'"vocab_size"', b'"vocab_sizE"', 1)


def _zero_width_model(blob):
    # one bit flip ('8' ^ 0x08 is '0'): a model of width 0, which used to
    # divide by zero in the weight initialisation
    return blob.replace(b'"d": 8,', b'"d": 0,', 1)


@pytest.mark.parametrize("corrupt,message", [(_overflow_first_dims, "truncated checkpoint"),
                                             (_rename_meta_key, "does not describe a model"),
                                             (_zero_width_model, "d must be a positive")])
def test_corrupted_checkpoint_is_refused_in_one_line(ws, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(corrupt(bytearray(open(ws["ckpt"], "rb").read()))))
    rc = main(["predict", "--checkpoint", str(bad), "--manifest", ws["manifest"],
               "--out", str(tmp_path / "o.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def _first_set_to(value):
    def make(arr):
        arr.flat[0] = value
        return arr
    return make


# model state a checkpoint may not hold, as (section, array, the array's
# replacement or None to drop it): each used to exit 0 with different
# tokens or NaN scores, or to escape as a traceback
BAD_STATES = {
    "one-element-buffer": ("buffers", "enc.bn3.running_var", lambda a: a[:1]),
    "three-element-buffer": ("buffers", "enc.bn3.running_var", lambda a: a[:3]),
    "missing-buffer": ("buffers", "enc.bn3.running_var", lambda a: None),
    "nan-parameter": ("params", "dec.w4", _first_set_to(np.nan)),
    "negative-running-var": ("buffers", "enc.bn3.running_var", _first_set_to(-1.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_STATES))
def test_checkpoint_with_bad_model_state_is_a_one_line_io_error(ws, tmp_path, capsys, case):
    section, name, make = BAD_STATES[case]

    def edit(ckpt):
        arrays = getattr(ckpt, section)
        arr = make(arrays.pop(name).copy())
        if arr is not None:
            arrays[name] = arr

    bad = edited_checkpoint(ws["ckpt"], tmp_path / "bad.ckpt", edit)
    rc = main(["predict", "--checkpoint", bad, "--manifest", ws["manifest"],
               "--out", str(tmp_path / "o.tsv"), "--greedy", "--max-len", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:") and name in err, err
    assert not (tmp_path / "o.tsv").exists()


# vocabularies a checkpoint's meta may not hold: each used to crash
# predict or evaluate with a traceback, or exit 0 with nonsense tokens
BAD_VOCABS = {
    "ints": lambda v: list(range(len(v))),
    "nested-lists": lambda v: [[t] for t in v],
    "no-reserved-tokens": lambda v: [f"r{i}" for i in range(4)] + v[4:],
    "one-token-repeated": lambda v: ["x"] * len(v),
}


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("case", sorted(BAD_VOCABS))
def test_checkpoint_with_a_bad_vocabulary_is_a_one_line_io_error(ws, tmp_path, capsys,
                                                                 case, command):
    bad = edited_checkpoint(ws["ckpt"], tmp_path / "bad.ckpt",
                            lambda c: c.meta.update(vocab=BAD_VOCABS[case](c.meta["vocab"])))
    rc = main([command, "--checkpoint", bad, "--manifest", ws["manifest"],
               "--out", str(tmp_path / "o.tsv"), "--greedy", "--max-len", "4"])
    assert_one_line_error(capsys, rc, 1)
    assert not (tmp_path / "o.tsv").exists()


# ---------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------

def test_evaluate_reports_per_example_and_aggregate_rows(ws, tmp_path):
    out = tmp_path / "eval.tsv"
    rc = main(["evaluate", "--checkpoint", ws["ckpt"], "--manifest",
               ws["manifest"], "--out", str(out), "--greedy",
               "--max-len", "8", "--buckets", ws["buckets"]])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id\t" + "\t".join(MetricReport.COLUMNS)
    assert len(lines) == 1 + 6 + 1
    assert lines[-1].startswith("ALL\t")
    for cell in lines[-1].split("\t")[1:]:
        assert 0.0 <= float(cell) <= 1.0


def test_evaluate_summary_counts_images_that_fit_no_bucket(ws, tmp_path, capsys):
    small = tmp_path / "small.txt"
    small.write_text("8 8\n")
    outs = []
    for extra in (["--buckets", str(small)], []):
        out = tmp_path / f"eval{len(extra)}.tsv"
        assert main(["evaluate", "--checkpoint", ws["ckpt"], "--manifest", ws["manifest"],
                     "--out", str(out), "--greedy", "--max-len", "8", *extra]) == 0
        outs.append((out.read_bytes(), capsys.readouterr().out))
    # no image fits 8x8, so all six fall back to the padding used when no
    # bucket file is given, and only the bucket-file run counts them
    assert "6 fit no bucket" in outs[0][1]
    assert "0 fit no bucket" in outs[1][1]
    assert outs[0][0] == outs[1][0]


def test_evaluate_bad_threshold_is_a_usage_error(ws, tmp_path, capsys):
    rc = main(["evaluate", "--checkpoint", ws["ckpt"], "--manifest",
               ws["manifest"], "--out", str(tmp_path / "o"), "--greedy",
               "--max-len", "4", "--threshold", "1.5"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


BAD_DECODE_FLAGS = [("predict", ["--beam", "0"], "beam size must be >= 1"),
                    ("evaluate", ["--beam", "0"], "beam size must be >= 1"),
                    ("predict", ["--beam", "-2", "--greedy"], "beam size must be >= 1"),
                    ("predict", ["--max-len", "0"], "max_len must be >= 1"),
                    ("evaluate", ["--max-len", "0"], "max_len must be >= 1"),
                    ("evaluate", ["--threshold", "7"], "threshold must be in (0, 1)")]


@pytest.mark.parametrize("manifest", ["empty", "six-examples"])
@pytest.mark.parametrize("command,flags,rule", BAD_DECODE_FLAGS,
                         ids=["".join([c, *f]) for c, f, _ in BAD_DECODE_FLAGS])
def test_bad_decode_flag_is_refused_before_the_checkpoint_is_read(
        ws, tmp_path, capsys, monkeypatch, command, flags, rule, manifest):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    loads = []
    monkeypatch.setattr(cli, "_load_model", lambda path: loads.append(path))
    out = tmp_path / "out.tsv"
    rc = main([command, "--checkpoint", ws["ckpt"], "--manifest",
               str(empty) if manifest == "empty" else ws["manifest"], "--out", str(out),
               *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and rule in err, err
    assert loads == [] and not out.exists()


def test_inspect_refuses_a_bad_max_len_before_writing(ws, tmp_path, capsys):
    out = tmp_path / "inspect"
    rc = main(["inspect", "--checkpoint", ws["ckpt"], "--out", str(out), "--max-len", "0",
               "--image", str(ws["data"] / "images" / "0000.pgm")])
    assert_one_line_error(capsys, rc, 2)
    assert not out.exists()


# ---------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------

def test_inspect_dumps_recoverable_heatmaps(ws, tmp_path):
    out = tmp_path / "inspect"
    image = str(ws["data"] / "images" / "0000.pgm")
    rc = main(["inspect", "--checkpoint", ws["ckpt"], "--image", image,
               "--out", str(out), "--max-len", "6", "--buckets",
               ws["buckets"], "--dump-pe", "--dump-features"])
    assert rc == 0
    steps = (out / "steps.tsv").read_text().splitlines()
    assert steps[0] == "step\ttoken_id\ttoken\theatmap"
    maps = sorted(p for p in os.listdir(out) if p.startswith("step_"))
    assert len(maps) == len(steps) - 1 >= 1
    for name in maps:
        raw = (out / name).read_bytes()
        m = re.search(rb"# alpha-pixel-total (\d+)", raw)
        assert m, "missing total comment"
        total = int(m.group(1))
        pixels, maxval = read_pgm_raw(str(out / name))
        assert maxval == 65535
        assert pixels.shape[0] % 8 == 0 and pixels.shape[1] % 8 == 0
        # weights are spread over constant 8x8 blocks and their sum is
        # recoverable exactly from the recorded total
        blocks = pixels[::8, ::8]
        assert np.array_equal(np.kron(blocks, np.ones((8, 8), dtype=int)), pixels)
        assert pixels.sum() == total
        assert abs(blocks.sum() / (total / 64) - 1.0) < 1e-12
    # one map per PE channel / feature channel at d=8
    assert len([p for p in os.listdir(out) if p.startswith("pe_")]) == 8
    assert len([p for p in os.listdir(out) if p.startswith("feature_")]) == 8


def test_inspect_encodes_again_only_for_feature_maps(ws, tmp_path, monkeypatch):
    calls = []
    encode = Encoder.encode

    def counted(self, images, train=False):
        calls.append(1)
        return encode(self, images, train=train)

    monkeypatch.setattr(Encoder, "encode", counted)
    image = str(ws["data"] / "images" / "0001.pgm")
    counts, files = [], []
    for extra in ([], ["--dump-features"]):
        out = tmp_path / f"inspect{len(extra)}"
        calls.clear()
        assert main(["inspect", "--checkpoint", ws["ckpt"], "--image", image, "--out",
                     str(out), "--max-len", "6", "--buckets", ws["buckets"],
                     "--dump-pe"] + extra) == 0
        counts.append(len(calls))
        files.append({p: (out / p).read_bytes() for p in os.listdir(out)})
    # one encode for the greedy decode, a second only for the feature maps
    assert counts == [1, 2]
    plain, full = files
    assert {p: full[p] for p in plain} == plain
    assert sorted(set(full) - set(plain)) == [f"feature_{c:03d}.pgm" for c in range(8)]


def test_inspect_missing_image_is_an_io_error(ws, tmp_path, capsys):
    rc = main(["inspect", "--checkpoint", ws["ckpt"], "--image",
               str(tmp_path / "no.pgm"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------
# malformed input files: one line on stderr, never a traceback
# ---------------------------------------------------------------------

def assert_one_line_error(capsys, rc, code):
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_non_utf8_config_file_is_a_one_line_usage_error(ws, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# r\xe9glage\nd = 8\n".encode("latin-1"))
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
               "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert_one_line_error(capsys, rc, 2)


def test_non_utf8_manifest_is_a_one_line_io_error(ws, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"images/0000.pgm\tx \xff y\n")
    rc = main(["predict", "--checkpoint", ws["ckpt"], "--manifest", str(manifest),
               "--out", str(tmp_path / "o.tsv")])
    assert_one_line_error(capsys, rc, 1)


def test_nul_byte_in_manifest_path_is_a_one_line_io_error(ws, tmp_path, capsys):
    # open() refuses a path with NUL with a ValueError, not an OSError
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"images/00\x0000.pgm\ta b\n")
    rc = main(["predict", "--checkpoint", ws["ckpt"], "--manifest", str(manifest),
               "--out", str(tmp_path / "o.tsv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {manifest}:1: image path holds a NUL byte\n"


@pytest.mark.parametrize("token", ["<PAD>", "<UNK>", "<START>", "<END>"])
def test_reserved_token_in_manifest_is_a_one_line_io_error(ws, tmp_path, capsys, token):
    # <PAD> used to fail as "teacher forcing: row 3 has PAD before a
    # target" (exit 2), and the other three trained as content
    lines = [f"{ws['data'] / line}"
             for line in (ws["data"] / "manifest.tsv").read_text().splitlines()]
    lines[2] += f" {token}"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--train-manifest", str(manifest), "--buckets", ws["buckets"],
               "--out", str(tmp_path / "x")] + TINY)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {manifest}:3: token {token!r} is reserved "
                   "and cannot appear in a manifest\n")


def test_train_refuses_a_validation_set_that_fits_no_bucket(ws, tmp_path, capsys):
    # it used to validate over no example, log 0.000000 at every
    # validation, save best.ckpt and stop early
    width = int((ws["data"] / "buckets.txt").read_text().split()[0])
    val = tmp_path / "val"
    val.mkdir()
    tokens = (ws["data"] / "manifest.tsv").read_text().splitlines()[0].split("\t")[1]
    for i in range(3):
        write_pgm(str(val / f"{i}.pgm"), np.ones((16, width + 8)))
    (val / "manifest.tsv").write_text("".join(f"{i}.pgm\t{tokens}\n" for i in range(3)))
    out = tmp_path / "x"
    rc = main(["train", "--train-manifest", ws["manifest"], "--val-manifest",
               str(val / "manifest.tsv"), "--buckets", ws["buckets"], "--out", str(out)]
              + TINY + ["--set", "steps=4", "--set", "patience=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {val / 'manifest.tsv'}: no validation example fits a bucket "
                   f"of {ws['buckets']}\n")
    assert not (out / "best.ckpt").exists() and not (out / "train_log.tsv").exists()


def test_error_that_quotes_a_line_break_is_one_line(ws, tmp_path, capsys):
    # the key is quoted as given, and str.splitlines also breaks at \x0c
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets", ws["buckets"],
               "--out", str(tmp_path / "x"), "--set", "# a\nd\x0ce=8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: --set # a\\nd\\x0ce: unknown config key '# a\\nd\\x0ce'\n"


def test_pgm_passed_as_manifest_is_a_one_line_io_error(ws, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", ws["ckpt"], "--manifest",
               str(ws["data"] / "images" / "0000.pgm"), "--out", str(tmp_path / "o.tsv")])
    assert_one_line_error(capsys, rc, 1)


def test_superscript_digit_bucket_line_is_a_one_line_io_error(ws, tmp_path, capsys):
    # '²'.isdigit() is True, but int('²') raises
    buckets = tmp_path / "buckets.txt"
    buckets.write_text("\u00b2 8\n", encoding="utf-8")
    rc = predict(ws, tmp_path / "o.tsv", "--buckets", str(buckets))
    assert_one_line_error(capsys, rc, 1)


def test_non_utf8_bucket_file_is_a_one_line_io_error(ws, tmp_path, capsys):
    buckets = tmp_path / "buckets.txt"
    buckets.write_bytes(b"\xff 8\n")
    rc = predict(ws, tmp_path / "o.tsv", "--buckets", str(buckets))
    assert_one_line_error(capsys, rc, 1)


# ---------------------------------------------------------------------
# configuration surface
# ---------------------------------------------------------------------

def test_help_documents_every_config_key():
    text = build_parser().format_help()
    for key in SCHEMA:
        assert key in text, key
    # full-scale defaults only: configs/desk.cfg is the one desk preset
    assert "configs/desk.cfg is the desk preset" in text
    assert "  d (default 512): encoder feature" in text


# each value used to crash train with a traceback, exit 3 as "diverged",
# train without a word in float64, with inverted gradient steps or with
# running statistics that grow without bound, or exit 0 unchecked
# (steps=0 wrote an untrained best.ckpt, patience=0 stopped at the first
# validation, and k=1 only failed later, in the rl phase)
BAD_VALUES = [("d", "12", []), ("d", "0", []), ("d", "-8", []), ("hidden", "0", []),
              ("batch_size", "0", []), ("validate_every", "0", []),
              ("dropout", "1.5", []), ("dropout", "-0.1", []),
              ("max_len", "0", ["--phase", "rl", "--init"]),
              ("dtype", "f16", []), ("dtype", "F32", []), ("timescale", "0", []),
              ("lr", "0", []), ("rl_lr", "-1", ["--phase", "rl", "--init"]),
              ("clip_norm", "-1", []), ("bn_momentum", "2", []), ("seed", "-1", []),
              ("steps", "0", []), ("patience", "0", []), ("k", "1", [])]


@pytest.mark.parametrize("via", ["set", "file"])
@pytest.mark.parametrize("key,value,extra", BAD_VALUES,
                         ids=[f"{k}={v}" for k, v, _ in BAD_VALUES])
def test_bad_config_value_is_a_one_line_usage_error(ws, tmp_path, capsys,
                                                    key, value, extra, via):
    if via == "set":
        source = ["--set", f"{key}={value}"]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        source = ["--config", str(cfg)]
    extra = extra + [ws["ckpt"]] if extra else []
    rc = main(["train", "--train-manifest", ws["manifest"], "--buckets",
               ws["buckets"], "--out", str(tmp_path / "x")] + TINY + extra + source)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and repr(key) in err, err


def test_checkpoint_config_keys_are_stable(ws):
    # the keys a VERSION 2 checkpoint's meta and meta["config"] carry;
    # renaming or adding one makes every existing checkpoint unloadable
    _, ckpt = Model.load(ws["ckpt"])
    assert set(ckpt.meta) == {"config", "vocab", "step", "phase", "best_metric",
                              "stale_validations"}
    assert set(ckpt.meta["config"]) == {
        "vocab_size", "d", "d_emb", "hidden", "attn_dim", "out_dim", "dropout",
        "standard_cell_output", "attend_current_hidden", "bn_momentum",
        "timescale", "dtype", "seed"}


def test_every_model_config_field_is_a_schema_key():
    names = {f.name for f in fields(ModelConfig)} - {"vocab_size"}
    assert names <= set(SCHEMA)


# ---------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------

def test_decoding_is_byte_identical_across_blas_thread_counts(tmp_path):
    # desk width and a 152x48 bucket: at this size one desk training step
    # already writes a different checkpoint at 1 and 2 threads
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--count", "8", "--seed", "9"]) == 0
    (data / "buckets.txt").write_text("152 48\n")
    manifest = str(data / "manifest.tsv")
    vocab = build_vocab([manifest])
    ckpt = str(tmp_path / "desk.ckpt")
    Model(ModelConfig.from_cfg(desk_config(), len(vocab)), vocab.tokens).save(ckpt)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for command, flag in (("predict", ["--beam", "5"]), ("evaluate", ["--greedy"])):
            out = tmp_path / f"{command}-{threads}.tsv"
            subprocess.run([sys.executable, "-m", "img2latex.cli", command,
                            "--checkpoint", ckpt, "--manifest", manifest,
                            "--out", str(out), "--max-len", "12",
                            "--buckets", str(data / "buckets.txt")] + flag,
                           env=env, check=True, capture_output=True)
            outputs[command, threads] = out.read_bytes()
    for command in ("predict", "evaluate"):
        assert outputs[command, "1"] == outputs[command, "2"], command
