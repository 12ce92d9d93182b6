"""Set-up, workloads, output checks and statistics of the img2latex benchmark.

The benchmark drives the package's public entry points in-process:
`cli.main` for gen-data, predict and evaluate, and `training.train` with
a `log_fn` that timestamps every optimizer step.  One process runs one
workload with one caller in a closed loop: the next step or command
starts when the previous one has returned.

A run is: build (once per checkout, in a child process), set-up
(several times, timed), then the workload for `seconds`.  With tracing
on, the tracer is installed for every other step (or round) after the
first, so traced and untraced steps share the machine's conditions and
their difference measures the tracing overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from img2latex import cli, data, metrics, training
from img2latex.config import load_config
from img2latex.data import assign_bucket
from img2latex.model import Model

import tracing

WORKLOADS = ("mle-desk", "rl-desk", "decode-desk")

# Seed of the fixed corpus the set-up checkpoint is trained on.  The
# checkpoint must not depend on --seed: how long its decodes run sets
# the cost of rl-desk and decode-desk, and it swings widely between
# briefly trained models.
CORPUS_SEED = 1908
CORPUS_IMAGES = 64        # corpus behind the set-up checkpoint
VAL_IMAGES = 64           # the first examples of a data set, also its validation set
VALIDATE_EVERY = 5        # mle-desk steps between validation passes
BEAM_CHECK_IMAGES = 4     # slice on which --beam 1 must equal --greedy
SETUP_REPEATS = 3         # set-ups before the workload, and again after it
MIN_STEPS = 5             # training steps every run makes; their log rows are digested
MIN_ROUNDS = 3            # decode rounds every run makes; their slices' outputs are digested


@dataclass(frozen=True)
class Sizes:
    """Sizes the self-test shrinks; the defaults are the benchmark."""
    images: int = 512                 # examples per generated data set
    bucket: tuple[int, int] = (176, 56)   # (W, H) every input is padded to
    decode_slice: int = 8             # images per predict / evaluate command
    build_steps: int = 150            # MLE steps behind the set-up checkpoint
    overrides: tuple[str, ...] = ()   # extra config overrides on top of desk.cfg


class _Stop(Exception):
    """Raised from log_fn to end a training run at a step boundary."""


def _quiet(argv) -> int:
    """cli.main with its stdout silenced; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tail(values) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would lie under the median; the
    tail is then reported as the median, percentile 50.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------
# build: the set-up checkpoint, once per checkout and source state
# ---------------------------------------------------------------------

def _config(root, sizes: Sizes, extra=()) -> dict:
    return load_config(os.path.join(root, "configs", "desk.cfg"),
                       list(sizes.overrides) + list(extra))


def _write_buckets(path, sizes: Sizes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{sizes.bucket[0]} {sizes.bucket[1]}\n")


def build(root, work, sizes: Sizes) -> dict:
    """The desk MLE checkpoint rl-desk and decode-desk start from.

    Keyed by the package sources, desk.cfg and the recipe, so a change
    to any of them builds afresh and an unchanged checkout reuses it.
    The build trains in a child process, so the workload's peak RSS
    leaves it out.
    """
    recipe = (CORPUS_SEED, CORPUS_IMAGES, sizes.bucket, sizes.build_steps, sizes.overrides)
    h = hashlib.sha256(repr(recipe).encode())
    src = os.path.join(root, "src", "img2latex")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    with open(os.path.join(root, "configs", "desk.cfg"), "rb") as fh:
        h.update(fh.read())
    final = os.path.join(work, "build", h.hexdigest()[:16])
    info_path = os.path.join(final, "build.json")
    reused = os.path.exists(info_path)
    if not reused:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            pool.submit(_build, root, final, sizes).result()
    with open(info_path, encoding="utf-8") as fh:
        info = json.load(fh)
    return dict(info, checkpoint=os.path.join(final, "desk-mle.ckpt"), reused=reused)


def _build(root, final, sizes: Sizes) -> None:
    """Train the set-up checkpoint into `final`, via a temporary directory."""
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    corpus = os.path.join(tmp, "corpus")
    code = _quiet(["gen-data", "--out", corpus, "--count", CORPUS_IMAGES,
                   "--seed", CORPUS_SEED])
    if code != 0:
        raise RuntimeError(f"build: gen-data exited {code}")
    _write_buckets(os.path.join(corpus, "buckets.txt"), sizes)
    cfg = _config(root, sizes, [f"steps={sizes.build_steps}", "patience=1000000",
                                f"validate_every={sizes.build_steps}"])
    outcome = training.train(cfg, os.path.join(corpus, "manifest.tsv"), None,
                             os.path.join(corpus, "buckets.txt"), os.path.join(tmp, "run"))
    info = {"sha256": sha256_file(outcome.last_path),
            "build_s": time.perf_counter() - start, "steps": outcome.steps_run,
            "vocab": Model.load(outcome.last_path)[0].vocab}
    os.replace(outcome.last_path, os.path.join(tmp, "desk-mle.ckpt"))
    shutil.rmtree(corpus)
    shutil.rmtree(os.path.join(tmp, "run"))
    with open(os.path.join(tmp, "build.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    os.replace(tmp, final)


# ---------------------------------------------------------------------
# set-up: inputs from the seed
# ---------------------------------------------------------------------

@dataclass
class Inputs:
    manifest: str
    val_manifest: str
    buckets: str
    misfits: int                    # images larger than the bucket
    slices: list[str] = field(default_factory=list)
    beam_check: str = ""


def set_up(workload, seed, data_dir, sizes: Sizes, built: dict | None) -> Inputs:
    """gen-data from the seed, the bucket file, and the workload's own inputs."""
    code = _quiet(["gen-data", "--out", data_dir, "--count", sizes.images, "--seed", seed])
    if code != 0:
        raise RuntimeError(f"set-up: gen-data exited {code}")
    manifest = os.path.join(data_dir, "manifest.tsv")
    buckets = os.path.join(data_dir, "bench_buckets.txt")
    _write_buckets(buckets, sizes)
    examples = data.load_dataset(manifest)
    misfits = sum(assign_bucket(*ex.image.shape, [sizes.bucket]) is None for ex in examples)
    with open(manifest, encoding="utf-8") as fh:
        lines = fh.readlines()
    val_manifest = os.path.join(data_dir, "val.tsv")
    with open(val_manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:VAL_IMAGES])
    inputs = Inputs(manifest, val_manifest, buckets, misfits)
    if workload == "mle-desk":
        return inputs
    if sha256_file(built["checkpoint"]) != built["sha256"]:
        raise RuntimeError("set-up: checkpoint does not match its build record")
    unknown = sorted({t for ex in examples for t in ex.tokens} - set(built["vocab"]))
    if unknown:
        raise RuntimeError(f"set-up: tokens missing from the checkpoint vocabulary: {unknown}")
    if workload == "decode-desk":
        n = sizes.decode_slice
        for k in range(0, len(lines) - n + 1, n):
            path = os.path.join(data_dir, f"slice{k // n}.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[k:k + n])
            inputs.slices.append(path)
        inputs.beam_check = os.path.join(data_dir, "beam_check.tsv")
        with open(inputs.beam_check, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:BEAM_CHECK_IMAGES])
    return inputs


# ---------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    checks: dict = field(default_factory=dict)    # check name -> passed

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, name: str, ok: bool, what: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.op(ok, f"{name}: {what}")


# ---------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------

@dataclass
class Segment:
    """Timestamps of one training run, step by step."""
    stamps: list[float] = field(default_factory=list)    # one per logged step
    values: list[float] = field(default_factory=list)
    validated: list[bool] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    log_rows: list[str] = field(default_factory=list)
    ckpt_bytes: bytes = b""

    def step_ms(self) -> list[float]:
        """Step times from step 2 on; step 1 also loads data and model."""
        return [1000.0 * (b - a) for a, b in zip(self.stamps, self.stamps[1:])]


def train_segment(root, inputs: Inputs, out_dir, workload, seed, sizes: Sizes, built,
                  tally: Tally, seconds: float, tracer=None) -> Segment:
    """Run training.train for `seconds` after step 1 (and MIN_STEPS steps at least).

    With a tracer, even steps run traced: step 1, which also loads the
    data and the model, is left out like every other figure leaves it out.
    """
    phase = "rl" if workload == "rl-desk" else "mle"
    # rl-desk does not validate within a run: a validation step (greedy
    # decodes of the validation set, about a second more) would skew the
    # ~11 step times a run holds
    every = VALIDATE_EVERY if phase == "mle" else 100000000
    cfg = _config(root, sizes, [f"seed={seed}", "steps=100000000", "patience=100000000",
                                f"validate_every={every}"])
    seg = Segment()
    last_ckpt = os.path.join(out_dir, "last.ckpt")

    def log_fn(line):
        now = time.perf_counter()
        step, _, value, val_metric, _ = line.split("\t")
        seg.stamps.append(now)
        seg.values.append(float(value))
        seg.validated.append(bool(val_metric))
        seg.traced.append(tracer is not None and tracer.installed)
        seg.log_rows.append(line)
        if int(step) == every + 1:
            with open(last_ckpt, "rb") as fh:      # state after the first validation
                seg.ckpt_bytes = fh.read()
        # at least two untraced and two traced steps after the warm-up step
        if len(seg.stamps) >= MIN_STEPS and now - seg.stamps[0] >= seconds:
            raise _Stop
        if tracer is not None:
            tracer.toggle()

    try:
        training.train(cfg, inputs.manifest, inputs.val_manifest, inputs.buckets, out_dir,
                       phase=phase,
                       init=built["checkpoint"] if phase == "rl" else None,
                       log_fn=log_fn,
                       reward_fn=tracer.reward_fn if tracer else metrics.sentence_bleu4)
    except _Stop:
        pass
    except training.DivergenceError as exc:
        tally.op(False, f"step {exc.step}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    for i, value in enumerate(seg.values, start=1):
        ok = math.isfinite(value) and (phase == "mle" or 0.0 <= value <= 1.0)
        tally.op(ok, f"step {i}: {'loss' if phase == 'mle' else 'reward'} {value}")
    with open(os.path.join(out_dir, "train_log.tsv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    tally.check("train_log_rows", rows == seg.log_rows,
                f"{len(rows)} log rows for {len(seg.log_rows)} steps")
    return seg


def _items_per_step(inputs: Inputs, workload, root, sizes: Sizes) -> float:
    """Mean examples (mle) or rollouts (rl) per step over an epoch."""
    cfg = _config(root, sizes)
    kept = sizes.images - inputs.misfits
    per_epoch = math.ceil(kept / int(cfg["batch_size"]))
    return kept / per_epoch * (int(cfg["k"]) if workload == "rl-desk" else 1)


def training_figures(seg: Segment, items_per_step: float, traced: bool = False) -> dict:
    """Figures over the untraced (or the traced) steps from step 2 on."""
    rows = [(t, v) for t, v, tr in zip(seg.step_ms(), seg.validated[1:], seg.traced[1:])
            if tr == traced]
    times = [t for t, _ in rows]
    plain = [t for t, v in rows if not v]
    p_tail, pct = tail(times)
    return {
        "items_per_s": 1000.0 * items_per_step * len(plain) / sum(plain),
        "step_ms.p50": statistics.median(times),
        "step_ms.tail": p_tail,
        "tail_percentile": pct,
        "samples": len(times),
        "samples_ms": times,
    }


def training_digests(seg: Segment) -> dict:
    # the wall-time column differs between runs; step, phase, value and
    # validation metric do not
    rows = [r.rsplit("\t", 1)[0] for r in seg.log_rows[:MIN_STEPS]]
    out = {"train_log_head": hashlib.sha256("\n".join(rows).encode()).hexdigest()}
    if seg.ckpt_bytes:
        out["checkpoint_after_first_validation"] = hashlib.sha256(seg.ckpt_bytes).hexdigest()
    return out


# ---------------------------------------------------------------------
# decode workload
# ---------------------------------------------------------------------

COMMANDS = (
    ("predict_greedy", "predict", ["--greedy"]),
    ("predict_beam5", "predict", ["--beam", "5"]),
    ("evaluate", "evaluate", ["--greedy"]),
)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_predictions(path, ids, tally: Tally, what: str) -> None:
    """One `id<TAB>tokens<TAB>score` row per manifest example, finite score."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    for i, ex_id in enumerate(ids):
        parts = rows[i].split("\t") if i < len(rows) else []
        tally.op(len(parts) == 3 and parts[0] == ex_id and _finite(parts[2]),
                 f"{what}: bad or missing row for {ex_id}")
    tally.check("predict_rows", len(rows) == len(ids), f"{what}: {len(rows)} rows")


def check_metrics_tsv(path, ids, tally: Tally, what: str) -> None:
    """Header, one finite row per example, then the ALL row."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    body = rows[1:1 + len(ids)]
    for i, ex_id in enumerate(ids):
        parts = body[i].split("\t") if i < len(body) else []
        tally.op(len(parts) == 5 and parts[0] == ex_id and all(map(_finite, parts[1:])),
                 f"{what}: bad or missing row for {ex_id}")
    last = rows[-1].split("\t") if rows else []
    tally.check("evaluate_all_row",
                len(rows) == len(ids) + 2 and last[0] == "ALL" and all(map(_finite, last[1:])),
                f"{what}: no well-formed ALL row")


@dataclass
class DecodeRun:
    rounds: list[float] = field(default_factory=list)          # seconds per round
    traced: list[bool] = field(default_factory=list)
    command_s: dict = field(default_factory=lambda: {c[0]: 0.0 for c in COMMANDS})
    command_images: dict = field(default_factory=lambda: {c[0]: 0 for c in COMMANDS})
    first_pass: dict = field(default_factory=dict)             # (command, slice) -> bytes


def decode_segment(inputs: Inputs, out_dir, built, max_len: int,
                   tally: Tally, seconds: float, tracer=None) -> DecodeRun:
    """Rounds of predict --greedy, predict --beam 5 and evaluate --greedy, one slice each.

    Round r decodes slice r mod (number of slices); with a tracer, odd
    rounds are traced.  Stops `seconds` after round 1 ends, and after
    MIN_ROUNDS rounds at least.
    """
    run = DecodeRun()
    ids = {}
    for sl in inputs.slices:
        with open(sl, encoding="utf-8") as fh:
            ids[sl] = [line.split("\t", 1)[0] for line in fh]
    common = ["--checkpoint", built["checkpoint"], "--buckets", inputs.buckets,
              "--max-len", max_len]
    first_end = None
    r = 0
    while True:
        k = r % len(inputs.slices)
        sl = inputs.slices[k]
        round_start = time.perf_counter()
        for name, command, flags in COMMANDS:
            out = os.path.join(out_dir, f"{name}.tsv")
            t0 = time.perf_counter()
            code = _quiet([command, "--manifest", sl, "--out", out] + common + flags)
            if r > 0 and not (tracer and tracer.installed):     # round 1 warms caches
                run.command_s[name] += time.perf_counter() - t0
                run.command_images[name] += len(ids[sl])
            if code != 0:
                for ex_id in ids[sl]:
                    tally.op(False, f"{name}: exit {code} on {ex_id}")
                continue
            if command == "predict":
                check_predictions(out, ids[sl], tally, f"{name} slice {k}")
            else:
                check_metrics_tsv(out, ids[sl], tally, f"{name} slice {k}")
            if (name, k) not in run.first_pass:
                with open(out, "rb") as fh:
                    run.first_pass[(name, k)] = fh.read()
        now = time.perf_counter()
        run.rounds.append(now - round_start)
        run.traced.append(tracer is not None and tracer.installed)
        r += 1
        if first_end is None:
            first_end = now
        if r >= MIN_ROUNDS and now - first_end >= seconds:
            return run
        if tracer is not None:
            tracer.toggle()


def beam_one_check(inputs: Inputs, out_dir, built, max_len, tally: Tally) -> None:
    """--beam 1 and --greedy must write byte-identical predictions."""
    outs = []
    for flags in (["--greedy"], ["--beam", "1"]):
        out = os.path.join(out_dir, f"beam_check_{flags[-1]}.tsv")
        code = _quiet(["predict", "--checkpoint", built["checkpoint"], "--manifest",
                          inputs.beam_check, "--out", out, "--buckets", inputs.buckets,
                          "--max-len", max_len] + flags)
        if code != 0:
            outs.append(None)
            continue
        with open(out, "rb") as fh:
            outs.append(fh.read())
    tally.check("beam1_equals_greedy", outs[0] is not None and outs[0] == outs[1],
                "predict --beam 1 differs from --greedy")


def decode_figures(run: DecodeRun, sizes: Sizes, traced: bool = False) -> dict:
    """Figures over the untraced (or the traced) rounds from round 2 on."""
    steady = [t for t, tr in zip(run.rounds[1:], run.traced[1:]) if tr == traced]
    p_tail, pct = tail(steady)
    return {
        "items_per_s": len(COMMANDS) * sizes.decode_slice * len(steady) / sum(steady),
        "step_ms.p50": 1000.0 * statistics.median(steady),
        "step_ms.tail": 1000.0 * p_tail,
        "tail_percentile": pct,
        "samples": len(steady),
        "samples_ms": [1000.0 * t for t in steady],
    }


def command_rates(run: DecodeRun) -> dict:
    return {
        "cli.predict_greedy.images_per_s":
            run.command_images["predict_greedy"] / run.command_s["predict_greedy"],
        "cli.predict_beam5.images_per_s":
            run.command_images["predict_beam5"] / run.command_s["predict_beam5"],
        "cli.evaluate.examples_per_s":
            run.command_images["evaluate"] / run.command_s["evaluate"],
    }


def decode_digests(run: DecodeRun) -> dict:
    """Digests of each command's outputs on the slices of the first MIN_ROUNDS rounds."""
    out = {}
    for name, _, _ in COMMANDS:
        parts = [run.first_pass[(name, k)] for k in range(MIN_ROUNDS)
                 if (name, k) in run.first_pass]
        key = "metrics_tsv" if name == "evaluate" else f"predictions_{name}"
        out[f"{key}_head"] = hashlib.sha256(b"".join(parts)).hexdigest()
    return out


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------

def run(workload, seed, seconds, trace, root, work, sizes: Sizes = Sizes()) -> dict:
    """Build, set up, run the workload; returns the result record."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    run_dir = os.path.join(work, "runs", f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tracer = tracing.Tracer() if trace else None
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "env": environment(), "sizes": asdict(sizes)}
    try:
        built = build(root, work, sizes)
        record["build"] = {k: built[k] for k in ("sha256", "build_s", "steps", "reused")}

        data_dir = os.path.join(run_dir, "data")
        setup_times, manifests = [], []

        def timed_set_up() -> Inputs:
            shutil.rmtree(data_dir, ignore_errors=True)
            t0 = time.perf_counter()
            inputs = set_up(workload, seed, data_dir, sizes, built)
            setup_times.append(time.perf_counter() - t0)
            manifests.append(sha256_file(inputs.manifest))
            return inputs

        if tracer:
            tracer.install()           # set-up layers: synth, data, checkpoint
        for _ in range(1 if trace else SETUP_REPEATS):
            inputs = timed_set_up()
        if tracer:
            tracer.uninstall()
        record["setup_times_s"] = setup_times
        record["bucket_misfits"] = inputs.misfits
        record["digests"] = {"manifest": manifests[0]}
        if workload != "mle-desk":
            record["digests"]["setup_checkpoint"] = built["sha256"]

        cfg = _config(root, sizes)
        if workload == "decode-desk":
            figures, layers = _run_decode(inputs, run_dir, sizes, built, int(cfg["max_len"]),
                                          tally, seconds, tracer, record)
        else:
            figures, layers = _run_training(root, inputs, run_dir, workload, seed, sizes,
                                            built, tally, seconds, tracer, record)
        if not trace:
            # as many set-ups again after the workload: the machine's speed
            # drifts over seconds, and a median over set-ups from both ends
            # of the run is steadier than one over its first second or two
            for _ in range(SETUP_REPEATS):
                timed_set_up()
        tally.check("setup_reproducible", len(set(manifests)) == 1,
                    "set-ups from one seed wrote different manifests")
    finally:
        if tracer:
            tracer.uninstall()
    record["figures"] = figures
    if trace:
        spans_dir = os.path.join(work, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{workload}-s{seed}-{os.getpid()}.spans.tsv.gz")
        tracer.write_spans(spans_path)
        record["spans_file"] = spans_path
        metrics_out = layers
    else:
        metrics_out = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "items_per_s": figures["items_per_s"],
            "step_ms.p50": figures["step_ms.p50"],
            "step_ms.tail": figures["step_ms.tail"],
        }
    record.update(metrics=metrics_out, attempted=tally.attempted, failed=tally.failed,
                  checks=tally.checks, problems=tally.problems)
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def _run_training(root, inputs, run_dir, workload, seed, sizes, built, tally, seconds,
                  tracer, record):
    per_step = _items_per_step(inputs, workload, root, sizes)
    seg = train_segment(root, inputs, os.path.join(run_dir, "train"), workload, seed,
                        sizes, built, tally, seconds, tracer)
    record["digests"].update(training_digests(seg))
    figures = training_figures(seg, per_step)
    if not tracer:
        return figures, {}
    traced = record["traced_figures"] = training_figures(seg, per_step, traced=True)
    layers = tracing.layer_metrics(tracer, sum(seg.traced))
    layers.update(dict.fromkeys(("cli.predict_greedy.images_per_s",
                                 "cli.predict_beam5.images_per_s",
                                 "cli.evaluate.examples_per_s"), 0.0))
    layers.update(_overhead(tracer, figures["samples_ms"], traced["samples_ms"]))
    return figures, layers


def _run_decode(inputs, run_dir, sizes, built, max_len, tally, seconds, tracer, record):
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    try:
        run = decode_segment(inputs, out_dir, built, max_len, tally, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    beam_one_check(inputs, out_dir, built, max_len, tally)
    record["digests"].update(decode_digests(run))
    record["command_rates"] = command_rates(run)
    figures = decode_figures(run, sizes)
    if not tracer:
        return figures, {}
    traced = record["traced_figures"] = decode_figures(run, sizes, traced=True)
    layers = tracing.layer_metrics(tracer, sum(run.traced))
    layers.update(command_rates(run))
    layers.update(_overhead(tracer, figures["samples_ms"], traced["samples_ms"]))
    return figures, layers


def _overhead(tracer, untraced_ms, traced_ms) -> dict:
    """Measured tracing overhead, and the estimate from per-wrapper cost."""
    op_cost, span_cost = tracing.wrapper_cost()
    estimate = sum(tracer.op_calls.values()) * op_cost + len(tracer.spans) * span_cost
    untraced, traced = statistics.median(untraced_ms), statistics.median(traced_ms)
    return {
        "trace.untraced_step_ms": untraced,
        "trace.traced_step_ms": traced,
        "trace.overhead_share": traced / untraced - 1.0,
        "trace.overhead_est_share": estimate / (sum(traced_ms) / 1000.0 - estimate),
    }
