"""Per-layer tracing of img2latex from outside the program.

The tracer replaces public functions of each package module with thin
wrappers for the duration of a traced segment and puts the originals
back afterwards.  Functions at a layer boundary record a span (id,
parent id, name, start, end); autodiff ops are too many and too small
for spans, so they only add to per-op call counts, forward seconds and
float64-output counts.  Spans stay in memory and are written once, at
exit, by `write_spans`.

Three things about the package decide where wrappers must go:

- A name pulled in with `from .x import y` is looked up in the
  importing module, so it is wrapped there as well as in its home
  module (for example `cli.beam_decode` and `training.greedy_decode`).
- `train(reward_fn=sentence_bleu4)` binds its default when the module
  is imported; a traced RL run passes `tracer.reward_fn` explicitly,
  which records spans only while the tracer is installed.
- Per-op backward time lives in closures no public name reaches, so
  `tensor.backward` is timed as a whole.
"""
from __future__ import annotations

import gzip
import itertools
import os
import time
from collections import Counter, defaultdict

import numpy as np

from img2latex import (checkpoint, cli, data, decoder, decoding, encoder, metrics,
                       model, optim, synth, tensor, training)
from img2latex.data import END_ID

# every differentiable op in img2latex.tensor; all are looked up as
# module attributes at call time (T.conv2d, or a global inside tensor)
OPS = ("add", "multiply", "negative", "matmul", "concat", "reshape", "transpose",
       "repeat_rows", "reduce_sum", "reduce_mean", "relu", "sigmoid", "tanh",
       "softmax", "embedding_lookup", "dropout", "cross_entropy", "conv2d",
       "maxpool2d", "batchnorm2d")
REPORTED_OPS = ("conv2d", "maxpool2d", "batchnorm2d", "matmul", "multiply",
                "softmax", "cross_entropy")

VALIDATE = "training.validate"
_VALIDATING = "validate"          # op-counter key for ops run during validation


class Tracer:
    """Span and counter recorder; `install` / `uninstall` swap the wrappers in."""

    def __init__(self):
        self.spans: list[tuple] = []            # (id, parent, name, start, end)
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        self.validating = 0
        self.op_calls: Counter = Counter()
        self.op_secs: defaultdict = defaultdict(float)
        self.op_f64: Counter = Counter()
        self.decoder_rows = 0
        self.decodes: list[tuple[str, bool, int]] = []   # (kind, finished, tokens)
        self.rollouts = 0
        self.truncated = 0
        self.rendered = 0
        self.checkpoint_bytes: list[int] = []
        self._reward = metrics.sentence_bleu4
        self._traced_reward = self._span("metrics.sentence_bleu4", metrics.sentence_bleu4)

    def reward_fn(self, candidate, reference):
        """The RL reward for train(); records a span only while installed."""
        fn = self._traced_reward if self._patched else self._reward
        return fn(candidate, reference)

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, after=None, validate=False):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0]
            stack.append((sid, name))
            tracer.validating += validate
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.validating -= validate
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _op(self, name, fn):
        calls, secs, f64, clock = self.op_calls, self.op_secs, self.op_f64, time.perf_counter
        tracer = self
        float64 = np.dtype(np.float64)

        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            if out is not args[0]:          # dropout in eval mode returns its input
                key = _VALIDATING if tracer.validating else name
                calls[key] += 1
                secs[key] += elapsed
                if out.data.dtype == float64:
                    f64[key] += 1
            return out

        return wrapper

    def _count_rollout(self, fn):
        stack, tracer = self._stack, self

        def wrapper(row):
            # inside reinforce_step every call strips one sampled rollout;
            # a rollout without END ran into max_len
            if stack[-1][1] == "training.reinforce_step":
                tracer.rollouts += 1
                tracer.truncated += END_ID not in row
            return fn(row)

        return wrapper

    # -- after-hooks ----------------------------------------------------
    def _rows(self, args, out):
        self.decoder_rows += out.logits.shape[0]

    def _decoded(self, kind):
        def after(args, out):
            self.decodes.append((kind, bool(out.finished), len(out.tokens)))
        return after

    def _rendered(self, args, out):
        self.rendered += 1

    def _ckpt_size(self, args, out):
        self.checkpoint_bytes.append(os.path.getsize(args[0]))

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, owners, attr, make):
        for owner in owners:
            self._patch(owner, attr, make(getattr(owner, attr)))

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def toggle(self) -> None:
        if self._patched:
            self.uninstall()
        else:
            self.install()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        s = self._span
        for name in OPS:
            self._patch(tensor, name, self._op(name, getattr(tensor, name)))
        self._patch(tensor, "backward", s("tensor.backward", tensor.backward))
        self._patch(encoder.Encoder, "encode", s("encoder.encode", encoder.Encoder.encode))
        self._patch(decoder.Decoder, "step", s("decoder.step", decoder.Decoder.step,
                                                after=self._rows))
        self._patch(model.Model, "decode_start",
                    s("model.decode_start", model.Model.decode_start))
        self._patch(model.Model, "decode_step",
                    s("model.decode_step", model.Model.decode_step))
        self._patch_everywhere((decoding, cli, training), "greedy_decode",
                               lambda f: s("decoding.greedy", f, after=self._decoded("greedy")))
        self._patch_everywhere((decoding, cli), "beam_decode",
                               lambda f: s("decoding.beam", f, after=self._decoded("beam")))
        self._patch(training, "mle_loss", s("training.mle_loss", training.mle_loss))
        self._patch(training, "reinforce_step",
                    s("training.reinforce_step", training.reinforce_step))
        for name in ("token_accuracy", "greedy_bleu"):
            self._patch(training, name, s(VALIDATE, getattr(training, name), validate=True))
        self._patch(training, "strip_sentinels",
                    self._count_rollout(training.strip_sentinels))
        self._patch(optim.Adam, "step", s("optim.adam", optim.Adam.step))
        self._patch_everywhere((optim, training), "clip_global_norm",
                               lambda f: s("optim.clip", f))
        self._patch_everywhere((metrics, training), "sentence_bleu4",
                               lambda f: s("metrics.sentence_bleu4", f))
        self._patch(metrics, "levenshtein", s("metrics.levenshtein", metrics.levenshtein))
        self._patch_everywhere((metrics, cli), "evaluate_pair",
                               lambda f: s("metrics.evaluate_pair", f))
        self._patch(synth, "rasterize", s("synth.rasterize", synth.rasterize))
        self._patch(cli, "rasterize", s("synth.rasterize", cli.rasterize,
                                        after=self._rendered))
        self._patch_everywhere((data, cli, training), "load_dataset",
                               lambda f: s("data.load_dataset", f))
        self._patch_everywhere((data, training), "bucket_and_pad",
                               lambda f: s("data.bucket_and_pad", f))
        self._patch_everywhere((checkpoint, model), "save_checkpoint",
                               lambda f: s("checkpoint.save", f, after=self._ckpt_size))
        self._patch_everywhere((checkpoint, model), "load_checkpoint",
                               lambda f: s("checkpoint.load", f, after=self._ckpt_size))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def write_spans(self, path) -> None:
        """One `id parent name start_ns end_ns` line per span, gzip TSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\n")


def wrapper_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds added per op-wrapper and per span-wrapper call, measured here."""
    probe = Tracer()
    arg = tensor.Tensor(np.zeros(1))

    def bare(x):
        return tensor.Tensor(x.data)

    def timed(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        return (time.perf_counter() - start) / calls

    base = timed(bare)
    return (max(timed(probe._op("probe", bare)) - base, 0.0),
            max(timed(probe._span("probe", bare)) - base, 0.0))


def layer_metrics(tr: Tracer, steps: int) -> dict[str, float]:
    """Per-layer numbers; `steps` is the traced segment's step (or round) count.

    Per-step figures leave out work done under validation, which is
    reported on its own as training.validate_ms per pass.
    """
    under_val: dict[int, bool] = {0: False}
    names: dict[int, str] = {0: ""}
    dur: defaultdict = defaultdict(float)        # per-step totals, validation excluded
    count: Counter = Counter()
    all_dur: defaultdict = defaultdict(float)    # every call
    all_count: Counter = Counter()
    child_dur: defaultdict = defaultdict(float)  # seconds covered by direct children
    for sid, parent, name, start, end in sorted(tr.spans):
        names[sid] = name
        under_val[sid] = name == VALIDATE or under_val[parent]
        length = end - start
        child_dur[parent] += length
        all_dur[name] += length
        all_count[name] += 1
        if not under_val[sid]:
            dur[name] += length
            count[name] += 1
    beam_self = sum(end - start - child_dur[sid]
                    for sid, _, name, start, end in tr.spans if name == "decoding.beam")

    def per_step_ms(name):
        return 1000.0 * dur[name] / steps

    def per_call_ms(name):
        return 1000.0 * all_dur[name] / all_count[name] if all_count[name] else 0.0

    n_ops = sum(v for k, v in tr.op_calls.items() if k != _VALIDATING)
    n_f64 = sum(v for k, v in tr.op_f64.items() if k != _VALIDATING)
    n_decodes = len(tr.decodes)
    n_beams = sum(1 for kind, _, _ in tr.decodes if kind == "beam")
    out = {
        "tensor.ops_per_step": n_ops / steps,
        "tensor.f64_out_share": n_f64 / n_ops if n_ops else 0.0,
        "tensor.backward_ms": per_step_ms("tensor.backward"),
    }
    for op in REPORTED_OPS:
        out[f"tensor.{op}.calls"] = tr.op_calls[op] / steps
        out[f"tensor.{op}.fwd_ms"] = 1000.0 * tr.op_secs[op] / steps
    out.update({
        "encoder.encode_ms": per_step_ms("encoder.encode"),
        "encoder.encode_calls": count["encoder.encode"] / steps,
        "decoder.step_ms": per_step_ms("decoder.step"),
        "decoder.step_calls": count["decoder.step"] / steps,
        "decoder.step_rows": (tr.decoder_rows / all_count["decoder.step"]
                              if all_count["decoder.step"] else 0.0),
        "model.decode_step_ms": (1000.0 * all_dur["model.decode_step"] / n_decodes
                                 if n_decodes else 0.0),
        "model.decode_step_calls": (all_count["model.decode_step"] / n_decodes
                                    if n_decodes else 0.0),
        "decoding.beam.self_ms": 1000.0 * beam_self / n_beams if n_beams else 0.0,
        "decoding.cutoff_share": (sum(1 for _, fin, _ in tr.decodes if not fin) / n_decodes
                                  if n_decodes else 0.0),
        "decoding.tokens_per_image": (sum(n for _, _, n in tr.decodes) / n_decodes
                                      if n_decodes else 0.0),
        "training.mle_loss_ms": per_step_ms("training.mle_loss"),
        "training.reinforce_step_ms": per_step_ms("training.reinforce_step"),
        "training.validate_ms": per_call_ms(VALIDATE),
        "rl.truncated_share": tr.truncated / tr.rollouts if tr.rollouts else 0.0,
        "optim.adam_ms": per_step_ms("optim.adam"),
        "optim.clip_ms": per_step_ms("optim.clip"),
        "metrics.sentence_bleu4_ms": per_step_ms("metrics.sentence_bleu4"),
        "metrics.levenshtein_ms": per_call_ms("metrics.levenshtein"),
        "metrics.evaluate_pair_ms": per_call_ms("metrics.evaluate_pair"),
        "evaluate.rendered_share": (tr.rendered / all_count["metrics.evaluate_pair"]
                                    if all_count["metrics.evaluate_pair"] else 0.0),
        "synth.rasterize_ms": per_call_ms("synth.rasterize"),
        "data.load_dataset_ms": per_call_ms("data.load_dataset"),
        "data.bucket_and_pad_ms": per_call_ms("data.bucket_and_pad"),
        "checkpoint.save_ms": per_call_ms("checkpoint.save"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load"),
        "checkpoint.bytes": (float(np.mean(tr.checkpoint_bytes))
                             if tr.checkpoint_bytes else 0.0),
        "trace.spans": float(len(tr.spans)),
    })
    return out
