"""img2latex benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload mle-desk --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones in BENCHMARK.json, with --trace 1 the
per-layer ones.  Lines before it name every metric with its unit and
record the environment, digests and checks; the full record is also
written under .perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the core count.

    The desk-size matrices gain little from a second thread (MLE steps
    moved by about 6% on two cores), and OpenBLAS results depend on the
    thread count, so a fixed count keeps the output digests comparable
    between machines.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def alias_lines(record) -> list[tuple[str, str]]:
    """The end-to-end figures under their per-workload names, with units."""
    workload, fig = record["workload"], record["figures"]
    tail_note = f"(p{fig['tail_percentile']:.1f} of {fig['samples']} samples)"
    lines = [("failed_ratio", f"{record['failed'] / record['attempted']:.6g} "
                              f"({record['failed']} of {record['attempted']} operations)")]
    if workload == "decode-desk":
        rates = record["command_rates"]
        lines += [
            ("predict.greedy.images_per_s",
             f"{rates['cli.predict_greedy.images_per_s']:.6g} 1/s"),
            ("predict.beam5.images_per_s",
             f"{rates['cli.predict_beam5.images_per_s']:.6g} 1/s"),
            ("evaluate.examples_per_s", f"{rates['cli.evaluate.examples_per_s']:.6g} 1/s"),
            ("decode.round_ms.p50", f"{fig['step_ms.p50']:.6g} ms"),
            ("decode.round_ms.tail", f"{fig['step_ms.tail']:.6g} ms {tail_note}"),
        ]
    else:
        prefix, items = ("mle", "examples") if workload == "mle-desk" else ("rl", "rollouts")
        lines += [
            (f"{prefix}.{items}_per_s", f"{fig['items_per_s']:.6g} 1/s"),
            (f"{prefix}.step_ms.p50", f"{fig['step_ms.p50']:.6g} ms"),
            (f"{prefix}.step_ms.tail", f"{fig['step_ms.tail']:.6g} ms {tail_note}"),
        ]
    return lines


def report(record: dict, spec: dict, trace: int) -> list[str]:
    """Readable lines naming every metric with its unit; the last is the JSON result."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    fig = record["figures"]
    lines = [
        f"env: {json.dumps(record['env'], sort_keys=True)}",
        f"build: {json.dumps(record['build'], sort_keys=True)}",
        f"setup runs (s): {', '.join(f'{t:.4f}' for t in record['setup_times_s'])}; "
        f"bucket misfits: {record['bucket_misfits']}",
        f"step samples: {fig['samples']}; tail = p{fig['tail_percentile']:.1f}",
    ]
    lines += [f"  {name} = {value}" for name, value in alias_lines(record)]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"check {name}: {'ok' if ok else 'FAILED'}"
              for name, ok in sorted(record["checks"].items())]
    lines += [f"problem: {problem}" for problem in record["problems"]]
    lines.append(f"digests: {json.dumps(record['digests'], sort_keys=True)}")
    lines.append(json.dumps({"correct": record["failed"] == 0,
                             "attempted": record["attempted"],
                             "failed": record["failed"], "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join("src", "img2latex", "__init__.py"),
                 os.path.join("configs", "desk.cfg")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from an img2latex checkout",
                  file=sys.stderr)
            return 2
    pin_blas_threads()                    # before numpy is imported
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench")
    record = harness.run(args.workload, args.seed, args.seconds, args.trace, ROOT, work)
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(f"record: {os.path.relpath(path, ROOT)}")

    for line in report(record, spec, args.trace):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
