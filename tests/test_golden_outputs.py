"""The byte-identity contract: every output of a fixed tiny CLI script
matches the digest table tests/golden_outputs.json.

tests/golden_run.py holds the script and regenerates the table.  The
script runs in a subprocess so that OPENBLAS_NUM_THREADS=1 is set before
numpy loads.  A different numpy or BLAS build fails the test with both
sides named: the digests are only promised on the recorded build.
"""
import json
import os
import subprocess
import sys

import golden_run

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_every_output_matches_the_golden_table(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "golden_run.py"),
                           str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    with open(os.path.join(HERE, "golden_outputs.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert got["environment"] == want["environment"], (
        f"the golden table was made with {want['environment']}, "
        f"this run has {got['environment']}; the digests hold only on the recorded build")
    missing = sorted(set(want["outputs"]) - set(got["outputs"]))
    extra = sorted(set(got["outputs"]) - set(want["outputs"]))
    moved = sorted(k for k in set(want["outputs"]) & set(got["outputs"])
                   if want["outputs"][k] != got["outputs"][k])
    assert not (missing or extra or moved), (
        f"missing: {missing}; not in the table: {extra}; moved: "
        + ", ".join(f"{k} {want['outputs'][k][:12]} -> {got['outputs'][k][:12]}"
                    for k in moved))


def test_write_lists_each_moved_digest_on_stderr(tmp_path, monkeypatch, capsys):
    env = {"numpy": "x", "blas": "y", "blas_config": "z"}
    table = tmp_path / "golden_outputs.json"
    table.write_text(json.dumps({"environment": env, "outputs": {
        "a": "1" * 64, "b": "2" * 64, "c": "3" * 64}}))
    new = {"environment": env, "outputs": {"a": "1" * 64, "b": "4" * 64, "d": "5" * 64}}
    monkeypatch.setattr(golden_run, "TABLE", str(table))
    monkeypatch.setattr(golden_run, "run", lambda workdir: new)
    assert golden_run.main([str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(table.read_text())["outputs"]["b"] == "2" * 64
    assert golden_run.main([str(tmp_path / "run"), "--write"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["b 222222222222 -> 444444444444",
                                         "c 333333333333 -> -",
                                         "d - -> 555555555555"]
    assert json.loads(table.read_text()) == new == json.loads(captured.out)
    # a table with nothing moved lists nothing
    assert golden_run.main([str(tmp_path / "run"), "--write"]) == 0
    assert capsys.readouterr().err == ""
