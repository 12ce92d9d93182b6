"""Two-phase training: token-level cross entropy, then REINFORCE.

Both phases run one packed decoder loop (`_run_packed`) and differ in
the token it feeds back.  Phase one (mle) feeds the ground truth and
minimizes summed per-step cross entropy.  Phase two (rl) feeds k samples
per image their own tokens, scores them with a sequence reward (BLEU by
default), subtracts the per-image mean reward as a baseline, and ascends
reward-weighted log-probabilities.

Every source of randomness is derived from (seed, purpose, step,
element) coordinates, never carried between steps, so a resumed run
draws what the uninterrupted run draws (`train` states what else a
resume reproduces).
"""
from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, CheckpointError
from .data import (END_ID, PAD_ID, START_ID, Vocabulary, bucket_and_pad,
                   build_vocab, load_buckets, load_dataset, pad_for_model, plan_batches)
from .decoding import greedy_decode
from .metrics import sentence_bleu4
from .config import ModelConfig
from .decoder import Decoder
from .model import RNG_DROPOUT, RNG_SAMPLE, RNG_SHUFFLE, Model, derive_rng
from .optim import Adam, clip_global_norm
from .tensor import Tensor


class TrainError(Exception):
    pass


class DivergenceError(TrainError):
    """Loss became non-finite; training stops, last checkpoint stands."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step


# ---------------------------------------------------------------------
# the packed decoder loop and the token-level objective
# ---------------------------------------------------------------------

def _target_counts(seq: np.ndarray) -> np.ndarray:
    """Non-PAD ids per row of seq (B, T), laid out as bucket_and_pad writes
    it: [tokens..., END, PAD...].  PAD before a target, or no target at
    all, raises TrainError."""
    live = seq != PAD_ID
    gaps = ~live[:, :-1] & live[:, 1:]
    if gaps.any():
        row = int(np.flatnonzero(gaps.any(axis=1))[0])
        raise TrainError(f"teacher forcing: row {row} has PAD before a target "
                         "(rows must be tokens, END, then PAD)")
    if not live.any():
        raise TrainError("teacher forcing: no target in the batch")
    return live.sum(axis=1)


def _run_packed(decoder: Decoder, entries: Tensor, caps: np.ndarray, choose,
                train: bool = False, rng: np.random.Generator | None = None,
                audit: InputFeedAudit | None = None, copies: int = 1):
    """The decoder loop of both phases, which differ only in the token
    each step chooses.  It runs copies rows per image of entries (B, L,
    d), copies * B in all, laid out as `Decoder.init_state` lays them out
    (row j * B + i is copy j of image i); every row reads its image's one
    memory.  Step t feeds each running row its last token (START at
    t=0) and takes the next from choose(rows, t, logits), rows being the
    running rows' original indices.  A row leaves on the step it chooses
    END or its caps[row]-th token; the state keeps the rest
    (`Decoder.keep_rows`) by count, as views, when they are a prefix, else
    by index.  A matmul row's bits depend on how many rows share the call,
    so the outputs can differ in their last bits from a loop that steps
    all rows to the end.  Recorded on the tape unless run under
    T.no_grad(), which changes no token.  An audit checks each token fed
    after step 0.

    Returns (tokens (copies * B, T), PAD after each row's last; logits
    (N, V); targets (N,); rows (N,)): every step's running rows in step
    order, the token each chose and its original row.
    """
    b = entries.shape[0] * copies
    rows = np.arange(b)                     # original row of each running row
    fed = np.full(b, START_ID, dtype=np.int64)
    tokens = np.full((b, int(caps.max())), PAD_ID, dtype=np.int64)
    steps = []                              # (running rows, logits) per step
    state = decoder.init_state(entries, copies)
    for t in range(tokens.shape[1]):
        out = decoder.step(state, fed, train=train, rng=rng)
        if audit is not None and t:
            audit.check(fed, tokens[rows, t - 1])
        steps.append((rows, out.logits))
        state, chosen = out.state, choose(rows, t, out.logits)
        tokens[rows, t] = chosen
        keep = np.flatnonzero((chosen != END_ID) & (caps[rows] > t + 1))
        if keep.size == 0:
            break
        if keep.size < rows.size:
            state = decoder.keep_rows(state, keep.size if keep[-1] < keep.size else keep)
            rows, chosen = rows[keep], chosen[keep]
        fed = chosen
    owners, logits = zip(*steps)
    targets = np.concatenate([tokens[r, t] for t, r in enumerate(owners)])
    return tokens[:, :len(steps)], T.concat(logits), targets, np.concatenate(owners)


def _teacher_forced(decoder: Decoder, entries: Tensor, seq: np.ndarray, train: bool,
                    rng: np.random.Generator | None = None):
    """`_run_packed` fed the targets, each row's non-PAD ids
    (`_target_counts`), capped at their count; returns (logits (N, V),
    targets (N,)).  The memory entries come encoded, so batch-norm
    statistics keep their bits; their rows are sorted once by count,
    longest first (stable; no gather when already in order), so the rows
    that leave are a suffix and every cut is a view."""
    lengths = _target_counts(seq)
    order = np.argsort(-lengths, kind="stable")
    if (order != np.arange(seq.shape[0])).any():
        entries = T.take_rows(entries, order)
    seq = seq[order]
    _, logits, targets, _ = _run_packed(decoder, entries, lengths[order],
                                        lambda rows, t, _: seq[rows, t], train, rng)
    return logits, targets


def mle_loss(model: Model, images: np.ndarray, seq: np.ndarray,
             train: bool = True, rng: np.random.Generator | None = None):
    """Teacher-forced cross entropy over the packed targets.

    seq is laid out as in `_target_counts`.  Returns (loss Tensor, token
    count): one cross entropy over every packed target, summed and times
    1/B (the batch mean of per-sequence summed cross entropy; PAD is
    never scored), and the number of packed targets.

    Numerics: the loss sums in the packed order, so it and its gradients
    can differ in their last bits from a pass that steps all B rows and
    masks PAD (see `_run_packed`).  With dropout > 0 the masks are drawn
    at the packed shapes, in sorted row order: the same distribution as
    masks drawn for all B rows, but not the same draws.  The pass is a
    pure function of its inputs and the generator, so reruns and resumed
    runs stay byte-identical.
    """
    if images.shape[0] == 0 or seq.size == 0:
        raise TrainError("mle_loss: empty batch")
    entries = model.encoder.encode(images, train=train)
    logits, targets = _teacher_forced(model.decoder, entries, seq, train, rng)
    loss = T.cross_entropy(logits, targets).sum() * (1.0 / seq.shape[0])
    return loss, targets.size


def _descend(model: Model, optimizer: Adam, loss: Tensor, step: int,
             clip_norm: float) -> float:
    """Backward, global-norm clip and one Adam step; returns the loss value.
    A non-finite loss raises DivergenceError before backward."""
    value = loss.item()
    if not np.isfinite(value):
        raise DivergenceError(step, value)
    model.zero_grad()
    loss.backward()
    clip_global_norm(model.params.values(), clip_norm)
    optimizer.step()
    return value


# ---------------------------------------------------------------------
# sampling with exposure-bias instrumentation
# ---------------------------------------------------------------------

@dataclass
class InputFeedAudit:
    """Verifies the sampled-feedback contract, input(t) == sample(t-1):
    `check` counts one checked step per row it is given, and one violation
    per row whose fed token differs from the expected one."""
    steps_checked: int = 0
    violations: int = 0

    def check(self, fed: np.ndarray, expected: np.ndarray) -> None:
        self.steps_checked += int(fed.size)
        self.violations += int((fed != expected).sum())


def _multinomial_rows(probs: np.ndarray, rngs) -> np.ndarray:
    """One draw per row; row i uses its own generator for schedule independence."""
    u = np.array([rng.random() for rng in rngs])
    cum = np.cumsum(probs, axis=1)
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _sample_rollout(decoder: Decoder, entries: Tensor, max_len: int, rngs,
                    audit: InputFeedAudit | None = None, copies: int = 1):
    """`_run_packed` fed its own multinomial samples, in eval mode, for at
    most max_len steps, over copies rows per image (row j * B + i is
    sample j of image i).  Row r always draws from rngs[r], so it draws
    what it would in a loop that steps all rows, up to draws within
    rounding of a bucket boundary."""
    def draw(rows, t, logits):
        _, e, total = T.softmax_terms(logits.data.astype(np.float64))
        return _multinomial_rows(e / total, [rngs[i] for i in rows])
    return _run_packed(decoder, entries, np.full(len(rngs), max_len), draw, audit=audit,
                       copies=copies)


def strip_sentinels(row) -> list[int]:
    """Content ids only: cut at END, drop PAD/START."""
    row = list(row)
    return [int(tok) for tok in row[:row.index(END_ID) if END_ID in row else len(row)]
            if tok not in (PAD_ID, START_ID)]


# ---------------------------------------------------------------------
# sequence-level objective
# ---------------------------------------------------------------------

def reinforce_weights(rewards: np.ndarray, leave_one_out: bool = False) -> np.ndarray:
    """Center rewards (B, k) by the per-example baseline.

    Default baseline is the mean of all k rewards including the sample
    being weighted; leave_one_out excludes it (mean of the other k-1),
    which makes the gradient estimator exactly unbiased.
    """
    if rewards.ndim != 2 or rewards.shape[1] < 2:
        raise TrainError(f"reinforce_weights: need (B, k>=2) rewards, got {rewards.shape}")
    k = rewards.shape[1]
    if leave_one_out:
        baseline = (rewards.sum(axis=1, keepdims=True) - rewards) / (k - 1)
    else:
        baseline = rewards.mean(axis=1, keepdims=True)
    return rewards - baseline


def reinforce_loss(nll: Tensor, weights: np.ndarray, rows: np.ndarray) -> Tensor:
    """Minimization objective: mean of (R - baseline) * nll over all samples.

    nll[j] is a negative log-likelihood term of sample rows[j] (one per
    token, or one per sample).  The weights are cast to nll's dtype so a
    float32 model keeps its backward pass in float32.
    """
    w = Tensor(weights[rows].astype(nll.dtype))
    return (nll * w).sum() * (1.0 / weights.size)


def reinforce_step(model: Model, images: np.ndarray, references: list[list[int]],
                   optimizer: Adam, k: int, seed: int, step: int,
                   max_len: int = 200, reward_fn=sentence_bleu4,
                   leave_one_out: bool = False, clip_norm: float = 5.0,
                   audit: InputFeedAudit | None = None) -> float:
    """One policy-gradient update; returns the mean sampled reward.

    Encodes once in eval mode (no dropout, batch-norm running
    statistics) and draws k samples per image in one recorded rollout
    over that one memory per image (`_sample_rollout` with k copies), so
    the decoder runs once per sampled step and no memory is tiled.  The
    rollout's rows are sample-major: row j * B + i is sample j of image
    i, and draws from the generator of element i * k + j.  Rewards,
    weights and the returned mean are image-major (element i * k + j).
    Rewards are computed on sentinel-stripped token ids and clamped to
    [0, 1].  The loss is sum(w[row] * ce) / (B*k) over the
    log-probabilities the rollout drew its tokens with, END included.  A
    non-finite loss raises DivergenceError before backward.
    """
    if k < 2:
        raise TrainError(f"reinforce_step: k must be >= 2 for the baseline, got {k}")
    b = images.shape[0]
    if b == 0:
        raise TrainError("reinforce_step: empty batch")
    entries = model.encoder.encode(images, train=False)
    rngs = [derive_rng(seed, RNG_SAMPLE, step, i * k + j) for j in range(k) for i in range(b)]
    tokens, logits, targets, rows = _sample_rollout(model.decoder, entries, max_len, rngs,
                                                    audit, k)
    # sample-major rows to image-major elements
    tokens = tokens.reshape(k, b, -1).transpose(1, 0, 2).reshape(b * k, -1)
    rows = rows % b * k + rows // b
    rewards = np.clip([float(reward_fn(strip_sentinels(row), references[i // k]))
                       for i, row in enumerate(tokens)], 0.0, 1.0)
    weights = reinforce_weights(rewards.reshape(b, k), leave_one_out).reshape(b * k)
    loss = reinforce_loss(T.cross_entropy(logits, targets), weights, rows)
    _descend(model, optimizer, loss, step, clip_norm)
    return float(rewards.mean())


# ---------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------

def token_accuracy(model: Model, batches) -> float:
    """Teacher-forced argmax accuracy over the packed targets (eval mode)."""
    correct = total = 0
    with T.no_grad():
        for batch in batches:
            entries = model.encoder.encode(batch.images)
            logits, targets = _teacher_forced(model.decoder, entries, batch.seq, train=False)
            correct += int((logits.data.argmax(axis=1) == targets).sum())
            total += targets.size
    return correct / total


def greedy_bleu(model: Model, examples, max_len: int, buckets) -> float:
    """Mean sentence BLEU of greedy decodes against references, each
    image padded by `pad_for_model`, as `predict --buckets` pads it."""
    scores = []
    for ex in examples:
        result = greedy_decode(model, pad_for_model(ex.image, buckets)[0], max_len=max_len)
        cand = [model.vocab[i] for i in result.tokens]
        scores.append(sentence_bleu4(cand, ex.tokens))
    return float(np.mean(scores))


# ---------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------

@dataclass
class TrainOutcome:
    steps_run: int
    best_metric: float
    best_path: str
    last_path: str
    log_path: str
    stopped_early: bool = False
    losses: list[float] = field(default_factory=list)


# the run state `train` saves beside the model: each field, its rule and
# the rule's wording; best_metric is None before the first validation
_COUNT = (lambda v: type(v) is int and v >= 0, "a count")
_RUN_FIELDS = {
    "step": _COUNT,
    "phase": (lambda v: v in ("mle", "rl"), "'mle' or 'rl'"),
    "best_metric": (lambda v: v is None or (type(v) is float and math.isfinite(v)),
                    "null or a finite float"),
    "stale_validations": _COUNT,
}


def _resume(ckpt: Checkpoint, path: str, phase: str,
            optimizer: Adam) -> tuple[int, float, int]:
    """Load the checkpoint's Adam state into `optimizer`; return its run
    state as (step, best_metric, stale validations).  A missing or bad
    field, or Adam state that is missing or does not fit the model,
    raises CheckpointError; a checkpoint of the other phase TrainError."""
    meta = ckpt.meta
    for name, (valid, rule) in _RUN_FIELDS.items():
        if name not in meta:
            raise CheckpointError(f"{path}: the run state has no {name!r}, so it cannot "
                                  "be resumed (--init can start a phase from it)")
        if not valid(meta[name]):
            raise CheckpointError(f"{path}: run state {name!r} must be {rule}, "
                                  f"got {meta[name]!r}")
    if ckpt.optimizer is None:
        raise CheckpointError(f"{path}: no optimizer state to resume")
    if meta["phase"] != phase:
        raise TrainError(f"{path} is a {meta['phase']} checkpoint and cannot resume the "
                         f"{phase} phase; start the {phase} phase from it with --init")
    try:
        optimizer.load_state_dict(ckpt.optimizer)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    best = meta["best_metric"]
    return meta["step"], -np.inf if best is None else best, meta["stale_validations"]


def _cut_log(path: str, step: int, phase: str) -> None:
    """Cut the log at path after its last row of `phase` at `step`, where a
    resume picks up, and say so on stderr; without that row (at step > 0)
    refuse it (TrainError).  An absent log stays absent."""
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    found = [i + 1 for i, line in enumerate(lines)
             if line.split("\t", 2)[:2] == [str(step), phase]]
    if step and not found:
        raise TrainError(f"{path} has no row for {phase} step {step}, where the checkpoint "
                         "was saved, so it cannot be cut back to it; resume into another --out")
    keep = found[-1] if found else len(lines)
    if keep < len(lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:keep])
        print(f"{path}: cut {len(lines) - keep} rows after {phase} step {step}, "
              "which the resumed run writes again", file=sys.stderr)


def _epoch_batches(examples, buckets, batch_size, seed, epoch):
    """The epoch's plan (`plan_batches`) of the examples shuffled by (seed,
    epoch): each batch's examples, unpadded."""
    order = derive_rng(seed, RNG_SHUFFLE, epoch).permutation(len(examples))
    return plan_batches([examples[i] for i in order], buckets, batch_size)[0]


def _write_profile(path, prof: T.profile) -> None:
    """One TSV row per op name that prof saw: its tape records, their
    output bytes and the seconds its VJPs took, costliest VJP first."""
    names = sorted(prof.records, key=lambda name: (-prof.vjp_s[name], name))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\trecords\tout_bytes\tvjp_s\n")
        for name in names:
            fh.write(f"{name}\t{prof.records[name]}\t{prof.out_bytes[name]}"
                     f"\t{prof.vjp_s[name]:.6f}\n")


def train(cfg: dict, train_manifest, val_manifest, buckets_path, out_dir,
          phase: str = "mle", init: str | None = None, resume: str | None = None,
          log_fn=None, reward_fn=sentence_bleu4, config_fn=None,
          profile: str | None = None) -> TrainOutcome:
    """Run one training phase; writes best.ckpt, last.ckpt and a TSV log.

    init starts the rl phase (or mle fine-tuning) from a checkpoint with
    a fresh optimizer; resume continues a checkpoint of the same phase
    (see `_resume`), and not both.  A resume cuts out_dir's log back to
    the checkpoint's step (`_cut_log`), so it then equals an
    uninterrupted run's but for the wall time, which restarts at 0.  It
    is byte-exact when the interrupted run's `steps` is a multiple of
    `validate_every`.  Otherwise that run validated at its last step,
    off schedule, which counts toward patience and may pick best.ckpt,
    so only the parameters and optimizer state are exact.  A checkpoint
    past `steps` is not resumed (TrainError).  Every rl step runs an
    InputFeedAudit, and a step that fed any row a token other than its
    own previous sample raises TrainError.  config_fn, if given, gets
    the run's effective config before the first step.  profile, if
    given, is a file path: the run's first step runs under `T.profile`
    and its table is written there (`_write_profile`); a path that is a
    directory, or whose directory does not exist, is refused before any
    input is read.

    A refused run writes nothing: out_dir is made, the log cut and the
    config passed on only once every check has passed.

    Memory: the examples stay at their native size, and an epoch is held
    as its plan (`_epoch_batches`).  Each step pads its own batch with
    `bucket_and_pad`, and mle validation pads its batches one at a time
    each time it runs, so no padded copy of an epoch or of the
    validation set is ever held.
    """
    if phase not in ("mle", "rl"):
        raise TrainError(f"unknown phase {phase!r}")
    if init and resume:
        raise TrainError("--init starts a phase and --resume continues one; give one of them")
    if phase == "rl" and not (init or resume):
        raise TrainError("rl phase requires an mle checkpoint via init "
                         "(train the mle phase first)")
    if profile is not None:
        where = os.path.dirname(os.path.abspath(profile))
        if not os.path.isdir(where):
            raise TrainError(f"--profile {profile}: directory {where} does not exist")
        if os.path.isdir(profile):
            raise TrainError(f"--profile {profile} is a directory")
    log_path = os.path.join(out_dir, "train_log.tsv")
    train_examples = load_dataset(train_manifest)
    if not train_examples:
        raise TrainError(f"{train_manifest}: no training examples")
    val_examples = load_dataset(val_manifest) if val_manifest else train_examples
    if not val_examples:
        raise TrainError(f"{val_manifest}: no validation examples")
    buckets = load_buckets(buckets_path)
    seed = int(cfg["seed"])

    start_step, best_metric, stale = 0, -np.inf, 0
    if init or resume:
        model, ckpt = Model.load(init or resume)
        vocab = Vocabulary(model.vocab)
    else:
        vocab = build_vocab([train_manifest])
        model = Model(ModelConfig.from_cfg(cfg, len(vocab)), vocab.tokens)
    lr = float(cfg["rl_lr"] if phase == "rl" else cfg["lr"])
    optimizer = Adam(model.params, lr=lr)
    steps = int(cfg["steps"])
    if resume:
        start_step, best_metric, stale = _resume(ckpt, resume, phase, optimizer)
        if start_step > steps:
            raise TrainError(f"{resume} is at step {start_step}, past steps={steps}; "
                             "raise steps to continue it")

    batch_size, validate_every, patience, max_len, k = (
        int(cfg[key]) for key in ("batch_size", "validate_every", "patience", "max_len", "k"))
    clip, leave_one_out = float(cfg["clip_norm"]), bool(cfg["leave_one_out"])

    def padded(planned):
        # one planned batch pads to exactly one batch
        (batch,), _ = bucket_and_pad(planned, buckets, batch_size, vocab)
        return batch

    # batch count per epoch is order-independent, so the schedule is a
    # pure function of (seed, step) and resuming lands on the same batch
    epoch_plan = (0, _epoch_batches(train_examples, buckets, batch_size, seed, 0))
    per_epoch = len(epoch_plan[1])
    if per_epoch == 0:
        raise TrainError("no training example fits any bucket")
    if phase == "mle":
        val_plan, dropped = plan_batches(val_examples, buckets, batch_size)
        if dropped == len(val_examples):
            raise TrainError(f"{val_manifest}: no validation example fits a bucket "
                             f"of {buckets_path}")

    if resume:
        _cut_log(log_path, start_step, phase)
    os.makedirs(out_dir, exist_ok=True)
    if config_fn:
        # the model's keys are the model's, the checkpoint's under init or
        # resume; seed stays the config's, since train draws from it
        config_fn({**cfg, **{k: v for k, v in asdict(model.config).items() if k in cfg},
                   "seed": cfg["seed"]})

    best_path = os.path.join(out_dir, "best.ckpt")
    last_path = os.path.join(out_dir, "last.ckpt")
    log_file = open(log_path, "a", encoding="utf-8")
    t0 = time.time()
    losses: list[float] = []
    stopped_early = False

    def emit(step, value, val_metric=""):
        line = f"{step}\t{phase}\t{value:.6f}\t{val_metric}\t{time.time() - t0:.3f}"
        log_file.write(line + "\n")
        log_file.flush()
        if log_fn:
            log_fn(line)

    def save(path, step):
        run = {"step": int(step), "phase": phase,
               "best_metric": None if best_metric == -np.inf else float(best_metric),
               "stale_validations": stale}
        model.save(path, run, optimizer.state_dict())

    step = start_step
    try:
        for step in range(start_step + 1, steps + 1):
            epoch, idx = divmod(step - 1, per_epoch)
            if epoch_plan[0] != epoch:
                epoch_plan = (epoch, _epoch_batches(
                    train_examples, buckets, batch_size, seed, epoch))
            batch = padded(epoch_plan[1][idx])

            profiling = profile is not None and step == start_step + 1
            with T.profile() if profiling else contextlib.nullcontext() as prof:
                if phase == "mle":
                    rng = derive_rng(seed, RNG_DROPOUT, step)
                    loss, _ = mle_loss(model, batch.images, batch.seq, train=True, rng=rng)
                    value = _descend(model, optimizer, loss, step, clip)
                else:
                    refs = [strip_sentinels(row) for row in batch.seq]
                    audit = InputFeedAudit()
                    value = reinforce_step(model, batch.images, refs, optimizer, k=k,
                                           seed=seed, step=step, max_len=max_len,
                                           reward_fn=reward_fn, leave_one_out=leave_one_out,
                                           clip_norm=clip, audit=audit)
                    if audit.violations:
                        raise TrainError(
                            f"input-feed audit failed at step {step}: {audit.violations} of "
                            f"{audit.steps_checked} fed tokens were not the row's previous "
                            "sample")
            if profiling:
                _write_profile(profile, prof)
            losses.append(value)

            if step % validate_every == 0 or step == steps:
                metric = (token_accuracy(model, map(padded, val_plan)) if phase == "mle"
                          else greedy_bleu(model, val_examples, max_len, buckets))
                improved = metric > best_metric
                best_metric, stale = (metric, 0) if improved else (best_metric, stale + 1)
                emit(step, value, repr(metric))
                if improved:
                    save(best_path, step)
                save(last_path, step)
                if stale >= patience:
                    stopped_early = True
                    break
            else:
                emit(step, value)
        if not os.path.exists(best_path):
            save(best_path, step)
        save(last_path, step)
    finally:
        log_file.close()
    return TrainOutcome(steps_run=step, best_metric=float(best_metric), best_path=best_path,
                        last_path=last_path, log_path=log_path,
                        stopped_early=stopped_early, losses=losses)
