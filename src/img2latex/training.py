"""Two-phase training: token-level cross entropy, then REINFORCE.

Phase one (mle) teacher-forces ground-truth tokens and minimizes summed
per-step cross entropy.  Phase two (rl) samples k sequences per image,
scores them with a sequence reward (BLEU by default), subtracts the
per-image mean reward as a baseline, and ascends reward-weighted
log-probabilities.

Every source of randomness is derived from (seed, purpose, step,
element) coordinates, never carried between steps, so a resumed run
draws what the uninterrupted run draws (`train` states what else a
resume reproduces).
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, CheckpointError
from .data import (END_ID, PAD_ID, START_ID, Vocabulary, bucket_and_pad,
                   build_vocab, load_buckets, load_dataset, pad_for_model)
from .decoding import greedy_decode
from .metrics import sentence_bleu4
from .config import ModelConfig
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
# token-level objective
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


def _teacher_forced(model: Model, entries: Tensor, seq: np.ndarray,
                    lengths: np.ndarray, train: bool,
                    rng: np.random.Generator | None = None):
    """Packed teacher-forced pass; returns (logits Tensor (N, V), targets
    (N,), rows (N,)), where rows[j] is the original row of target j.

    Row i's targets are seq[i, :lengths[i]], and its input at step t is
    target t-1 (START at t=0); a sampled rollout may hold PAD, START or
    UNK as content, so the counts are passed in.  The memory entries come
    encoded, so batch-norm statistics keep their bits; their rows are
    sorted once by count, longest first (stable; no gather when already
    in order).  Step t runs only the first n_t rows, those with more than
    t targets, cut through head_rows views (`Model.keep_rows` with an
    int), and the outputs pack every step's live rows, so N is the number
    of targets.
    """
    b = seq.shape[0]
    order = np.argsort(-lengths, kind="stable")
    seq = seq[order]
    inputs = np.concatenate([np.full((b, 1), START_ID, dtype=seq.dtype), seq[:, :-1]], axis=1)
    n_live = (lengths[order][:, None] > np.arange(lengths.max())).sum(axis=0)
    if (order != np.arange(b)).any():
        entries = T.take_rows(entries, order)
    state = model.init_state(entries)
    rows = b
    logits = []
    for t, n in enumerate(n_live):
        if n < rows:
            rows = int(n)
            state = model.keep_rows(state, rows)
        out = model.step(state, inputs[:rows, t], train=train, rng=rng)
        state = out.state
        logits.append(out.logits)
    targets = np.concatenate([seq[:n, t] for t, n in enumerate(n_live)])
    return T.concat(logits), targets, np.concatenate([order[:n] for n in n_live])


def mle_loss(model: Model, images: np.ndarray, seq: np.ndarray,
             train: bool = True, rng: np.random.Generator | None = None):
    """Teacher-forced cross entropy over the packed targets.

    seq is laid out as in `_target_counts`.  Returns (loss Tensor, token
    count): one cross entropy over every packed target, summed and times
    1/B (the batch mean of per-sequence summed cross entropy; PAD is
    never scored), and the number of packed targets.

    Numerics: a matmul row's bits depend on how many rows share the
    call, and the sum runs over the packed order, so the loss and the
    gradients can differ in their last bits from a pass that steps all B
    rows and masks PAD afterwards.  With dropout > 0 the masks are drawn
    at the packed shapes, in sorted row order: the same distribution as
    masks drawn for all B rows, but not the same draws.  The pass is a
    pure function of its inputs and the generator, so reruns and resumed
    runs stay byte-identical.
    """
    if images.shape[0] == 0 or seq.size == 0:
        raise TrainError("mle_loss: empty batch")
    lengths = _target_counts(seq)
    logits, targets, _ = _teacher_forced(model, model.encode(images, train=train), seq,
                                         lengths, train, rng)
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
    """Verifies the sampled-feedback contract: input(t) == sample(t-1).

    `check` counts one checked step per row it is given, and one
    violation per row whose fed token differs from the expected one.
    """
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


def _sample_rollout(model: Model, entries: Tensor, max_len: int, rngs,
                    audit: InputFeedAudit | None = None):
    """Batched multinomial rollout in eval mode, under T.no_grad().

    Returns (tokens (B, T) with PAD after END, lengths (B,), finished
    mask) in the original row order: T is the number of steps run and
    lengths[i] the steps row i ran, END included.  Nothing is recorded,
    the state's key projection included; `reinforce_step` scores the
    tokens afterwards with a state of its own.

    A row leaves the batch on the step it samples END: `model.keep_rows`
    cuts the state to the rows still running.  Original row i always
    draws from rngs[i], so every live row sees the same draws as in a
    rollout that steps all B rows to the end; its tokens differ only when
    a draw lands within rounding of a bucket boundary, since a matmul
    row's bits depend on how many rows share the call.  With an audit, every token fed after the first step is checked, for each
    running row, against that row's token one step earlier.
    """
    b = entries.shape[0]
    rows = np.arange(b)                     # original row of each running row
    last = np.full(b, START_ID, dtype=np.int64)
    tokens = np.full((b, max_len), PAD_ID, dtype=np.int64)
    lengths = np.full(b, max_len)
    finished = np.zeros(b, dtype=bool)
    feeds = []                              # (rows, fed tokens) per step
    with T.no_grad():
        state = model.init_state(entries)
        for t in range(max_len):
            feeds.append((rows, last))
            out = model.step(state, last, train=False)
            state = out.state
            _, probs, total = T.softmax_terms(out.logits.data.astype(np.float64))
            probs /= total
            sampled = _multinomial_rows(probs, [rngs[i] for i in rows])
            tokens[rows, t] = sampled
            ended = sampled == END_ID
            finished[rows[ended]] = True
            lengths[rows[ended]] = t + 1
            if ended.all():
                break
            if ended.any():
                keep = np.flatnonzero(~ended)
                state = model.keep_rows(state, keep)
                rows, sampled = rows[keep], sampled[keep]
            last = sampled
    tokens = tokens[:, :len(feeds)]
    if audit is not None:
        for t, (fed_rows, fed) in enumerate(feeds[1:], start=1):
            audit.check(fed, tokens[fed_rows, t - 1])
    return tokens, lengths, finished


def strip_sentinels(row) -> list[int]:
    """Content ids only: cut at END, drop PAD/START."""
    out = []
    for tok in row:
        if tok == END_ID:
            break
        if tok in (PAD_ID, START_ID):
            continue
        out.append(int(tok))
    return out


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
    statistics) and draws k samples per image off the tape from the
    memory entries tiled k times.  Rewards are computed on
    sentinel-stripped token ids and clamped to [0, 1].  One packed
    teacher-forced pass over the same tiled entries then scores every
    sampled token, END included, with the rollout's step counts; the
    loss is sum(w[row] * ce) / (B*k).  A non-finite loss raises
    DivergenceError before backward, so the parameters stay as they
    were.  Sampling and scoring run the same eval-mode function, but
    scoring batches rows in length order, so the loss and gradients may
    move in their last bits against a rollout that records its own
    log-probabilities; tokens and rewards do not.
    """
    if k < 2:
        raise TrainError(f"reinforce_step: k must be >= 2 for the baseline, got {k}")
    b = images.shape[0]
    if b == 0:
        raise TrainError("reinforce_step: empty batch")
    tiled = T.repeat_rows(model.encode(images, train=False), k)
    rngs = [derive_rng(seed, RNG_SAMPLE, step, i) for i in range(b * k)]
    tokens, lengths, _ = _sample_rollout(model, tiled, max_len, rngs, audit)
    rewards = np.clip([float(reward_fn(strip_sentinels(row), references[i // k]))
                       for i, row in enumerate(tokens)], 0.0, 1.0)
    weights = reinforce_weights(rewards.reshape(b, k), leave_one_out).reshape(b * k)
    logits, targets, rows = _teacher_forced(model, tiled, tokens, lengths, train=False)
    loss = reinforce_loss(T.cross_entropy(logits, targets), weights, rows)
    _descend(model, optimizer, loss, step, clip_norm)
    return float(rewards.mean())


# ---------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------

def token_accuracy(model: Model, batches) -> float:
    """Teacher-forced argmax accuracy over the packed targets (eval mode)."""
    correct = 0
    total = 0
    with T.no_grad():
        for batch in batches:
            logits, targets, _ = _teacher_forced(model, model.encode(batch.images), batch.seq,
                                                 _target_counts(batch.seq), train=False)
            correct += int((logits.data.argmax(axis=1) == targets).sum())
            total += targets.size
    return correct / total if total else 0.0


def greedy_bleu(model: Model, examples, max_len: int, buckets) -> float:
    """Mean sentence BLEU of greedy decodes against references, each
    image padded by `pad_for_model`, as `predict --buckets` pads it."""
    scores = []
    for ex in examples:
        result = greedy_decode(model, pad_for_model(ex.image, buckets)[0], max_len=max_len)
        cand = [model.vocab[i] for i in result.tokens]
        scores.append(sentence_bleu4(cand, ex.tokens))
    return float(np.mean(scores)) if scores else 0.0


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


def _epoch_batches(examples, buckets, batch_size, vocab, seed, epoch):
    order = derive_rng(seed, RNG_SHUFFLE, epoch).permutation(len(examples))
    shuffled = [examples[i] for i in order]
    batches, _ = bucket_and_pad(shuffled, buckets, batch_size, vocab)
    return batches


def train(cfg: dict, train_manifest, val_manifest, buckets_path, out_dir,
          phase: str = "mle", init: str | None = None, resume: str | None = None,
          log_fn=None, reward_fn=sentence_bleu4, config_fn=None) -> TrainOutcome:
    """Run one training phase; writes best.ckpt, last.ckpt and a TSV log.

    init starts the rl phase (or mle fine-tuning) from a checkpoint with
    a fresh optimizer; resume continues a checkpoint of the same phase
    (see `_resume`), and not both.  Resuming in the same out_dir is
    byte-exact when the interrupted run's `steps` is a multiple of
    `validate_every`.  Otherwise that run validated at its last step,
    off schedule, which counts toward patience and may pick best.ckpt,
    so only the parameters and optimizer state are exact.  A checkpoint
    past `steps` is not resumed (TrainError).  Every rl step runs an
    InputFeedAudit, and a step that fed any row a token other than its
    own previous sample raises TrainError.  config_fn, if given, gets
    the run's effective config before the first step.
    """
    if phase not in ("mle", "rl"):
        raise TrainError(f"unknown phase {phase!r}")
    if init and resume:
        raise TrainError("--init starts a phase and --resume continues one; give one of them")
    if phase == "rl" and not (init or resume):
        raise TrainError("rl phase requires an mle checkpoint via init "
                         "(train the mle phase first)")
    os.makedirs(out_dir, exist_ok=True)
    train_examples = load_dataset(train_manifest)
    if not train_examples:
        raise TrainError(f"{train_manifest}: no training examples")
    val_examples = load_dataset(val_manifest) if val_manifest else train_examples
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
    if config_fn:
        # the model's keys are the model's, the checkpoint's under init or
        # resume; seed stays the config's, since train draws from it
        config_fn({**cfg, **{k: v for k, v in asdict(model.config).items() if k in cfg},
                   "seed": cfg["seed"]})

    batch_size = int(cfg["batch_size"])
    validate_every = int(cfg["validate_every"])
    patience = int(cfg["patience"])
    max_len = int(cfg["max_len"])
    k = int(cfg["k"])
    clip = float(cfg["clip_norm"])
    leave_one_out = bool(cfg["leave_one_out"])

    log_path = os.path.join(out_dir, "train_log.tsv")
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

    # batch count per epoch is order-independent, so the schedule is a
    # pure function of (seed, step) and resuming lands on the same batch
    epoch_cache = (0, _epoch_batches(train_examples, buckets, batch_size, vocab, seed, 0))
    per_epoch = len(epoch_cache[1])
    if per_epoch == 0:
        raise TrainError("no training example fits any bucket")
    if phase == "mle":
        val_batches, _ = bucket_and_pad(val_examples, buckets, batch_size, vocab)
    step = start_step
    try:
        for step in range(start_step + 1, steps + 1):
            epoch, idx = divmod(step - 1, per_epoch)
            if epoch_cache[0] != epoch:
                epoch_cache = (epoch, _epoch_batches(
                    train_examples, buckets, batch_size, vocab, seed, epoch))
            batch = epoch_cache[1][idx]

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
                        f"{audit.steps_checked} fed tokens were not the row's previous sample")
            losses.append(value)

            if step % validate_every == 0 or step == steps:
                if phase == "mle":
                    metric = token_accuracy(model, val_batches)
                else:
                    metric = greedy_bleu(model, val_examples, max_len, buckets)
                improved = metric > best_metric
                if improved:
                    best_metric = metric
                    stale = 0
                else:
                    stale += 1
                emit(step, value, f"{metric:.6f}")
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
    return TrainOutcome(steps_run=step, best_metric=float(best_metric),
                        best_path=best_path, last_path=last_path,
                        log_path=log_path, stopped_early=stopped_early,
                        losses=losses)
