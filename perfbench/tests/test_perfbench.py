"""Tiny-size self-test of the benchmark harness.

Runs every workload, untraced and traced, on 8 images with a 2-step
set-up checkpoint, and checks that every metric BENCHMARK.json names
comes out finite and with a unit, and that the output checks ran.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import run  # noqa: E402

TINY = harness.Sizes(images=8, decode_slice=4, build_steps=2,
                     overrides=("max_len=8", "batch_size=4", "k=2"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_metric_emitted_and_checks_pass(workload, trace, work):
    record = harness.run(workload, 3, 0.3, trace, ROOT, work, TINY)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert m["unit"]
        assert math.isfinite(record["metrics"][m["name"]]), m["name"]
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]
    expected = {"setup_reproducible"} | ({"train_log_rows"} if workload != "decode-desk" else {
        "predict_rows", "evaluate_all_row", "beam1_equals_greedy"})
    assert set(record["checks"]) == expected and all(record["checks"].values())
    assert record["bucket_misfits"] == 0

    lines = run.report(record, SPEC, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") for line in lines)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload, work):
    plain, traced = (harness.run(workload, 5, 0.5, trace, ROOT, work, TINY)["digests"]
                     for trace in (0, 1))
    key = "train_log_head" if workload != "decode-desk" else "predictions_predict_beam5_head"
    assert plain[key] == traced[key]


def test_decode_layers_are_traced(work):
    layers = harness.run("decode-desk", 3, 0.3, 1, ROOT, work, TINY)["metrics"]
    assert layers["decoder.step_rows"] == 1.0
    assert layers["encoder.encode_calls"] == 3 * TINY.decode_slice
    assert layers["model.decode_step_calls"] > 0
    assert layers["decoding.beam.self_ms"] > 0
    assert layers["metrics.levenshtein_ms"] > 0 or layers["evaluate.rendered_share"] == 0
    assert layers["tensor.backward_ms"] == 0.0


def test_rl_layers_are_traced(work):
    layers = harness.run("rl-desk", 3, 0.3, 1, ROOT, work, TINY)["metrics"]
    assert layers["decoder.step_rows"] > 0
    assert layers["tensor.backward_ms"] > 0
    assert layers["training.reinforce_step_ms"] > 0
    assert layers["metrics.sentence_bleu4_ms"] > 0
    assert 0.0 <= layers["rl.truncated_share"] <= 1.0


def test_bucket_misfits_are_counted(tmp_path):
    sizes = harness.Sizes(images=4, bucket=(8, 8))
    inputs = harness.set_up("mle-desk", 3, str(tmp_path / "data"), sizes, None)
    assert inputs.misfits == 4


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(range(1, 41)) == (30, 75.0)
    assert harness.tail([5, 1, 3]) == (3, 50.0)
    assert harness.tail(range(20)) == (9.5, 50.0)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mle-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
