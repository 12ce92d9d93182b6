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
