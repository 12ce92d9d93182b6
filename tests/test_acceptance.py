"""Acceptance gate: property checks plus desk-scale learning milestones.

Each criterion prints one PASS/FAIL line.  The desk-scale fixtures are
session-scoped: criterion 5 trains the 32-formula model once and the
later criteria reuse its checkpoint and dataset.
"""
import math
import os
import time

import numpy as np
import pytest

import test_gradients as tg
from gradcheck import desk_config, fd_grad, model_config, rel_err

from img2latex import tensor as T
from img2latex.cli import main as cli_main
from img2latex.data import (END_ID, START_ID, RESERVED, Vocabulary,
                            bucket_and_pad, load_buckets, load_dataset,
                            pad_image)
from img2latex.decoding import beam_decode, greedy_decode
from img2latex.encoder import Encoder, positional_encoding
from img2latex.metrics import bleu4, edit_distance_score, exact_match, sentence_bleu4
from img2latex.model import RNG_NOISE, RNG_SAMPLE, Model, derive_rng
from img2latex.optim import Adam
from img2latex.training import (InputFeedAudit, _sample_rollout, mle_loss,
                                reinforce_step, reinforce_weights, strip_sentinels,
                                train)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------
# shared desk-scale fixtures
# ---------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk_data")
    assert cli_main(["gen-data", "--out", str(root), "--count", "32",
                     "--seed", "7"]) == 0
    examples = load_dataset(str(root / "manifest.tsv"))
    bucket = load_buckets(str(root / "buckets.txt"))[0]
    return {"root": root, "manifest": str(root / "manifest.tsv"),
            "buckets": str(root / "buckets.txt"), "examples": examples,
            "bucket": bucket}


def match_rate(model, examples, bucket, max_len=50):
    """Exact greedy-decode match fraction, inputs padded to their bucket."""
    bw, bh = bucket
    hits = 0
    for ex in examples:
        res = greedy_decode(model, pad_image(ex.image, bh, bw), max_len=max_len)
        hits += [model.vocab[i] for i in res.tokens] == ex.tokens
    return hits / len(examples)


@pytest.fixture(scope="session")
def desk_run(desk_data, tmp_path_factory):
    """Criterion-5 training: desk preset, chunked so it can stop as soon
    as the train-set match crosses the bar (resume is bit-exact)."""
    run_dir = str(tmp_path_factory.mktemp("desk_run"))
    cfg = desk_config()
    t0 = time.monotonic()
    first_losses = None
    reached_step = None
    rate = 0.0
    last_path = None
    for end in range(200, cfg["steps"] + 1, 200):
        chunk = dict(cfg)
        chunk["steps"] = end
        out = train(chunk, desk_data["manifest"], None, desk_data["buckets"],
                    run_dir, resume=last_path)
        last_path = out.last_path
        if first_losses is None:
            first_losses = out.losses[:50]
        model, _ = Model.load(last_path)
        rate = match_rate(model, desk_data["examples"], desk_data["bucket"])
        if rate >= 0.95:
            reached_step = out.steps_run
            break
    return {"ckpt": last_path, "seconds": time.monotonic() - t0,
            "reached_step": reached_step, "match": rate,
            "first_losses": first_losses}


# ---------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------

def two_step_model_fd_check(seed):
    """FD-check d(loss)/d(param) of a full encode + 2 decode steps.

    Checked at a randomly perturbed parameter point: zero-initialized
    conv biases sit exactly on relu kinks (dead receptive fields give
    pre-activation == b), where one-sided slopes differ and FD is
    undefined.  BN-absorbed biases keep an exactly-zero gradient, so
    coordinates where both sides are negligible are compared absolutely.
    """
    vocab = list(RESERVED) + ["x", "y"]
    cfg = model_config(6, d=8, d_emb=4, hidden=8, attn_dim=8,
                       out_dim=8, dropout=0.0, seed=seed)
    model = Model(cfg, vocab)
    rng = np.random.default_rng(seed + 500)
    for name in sorted(model.params):
        data = model.params[name].data
        data += rng.uniform(-0.05, 0.05, data.shape)
    image = rng.random((1, 1, 8, 16))
    seq = np.array([[4, END_ID]])

    def loss_value():
        loss, _ = mle_loss(model, image, seq, train=True)
        return loss.item()

    loss, _ = mle_loss(model, image, seq, train=True)
    loss.backward()
    worst = 0.0
    for name in sorted(model.params):
        p = model.params[name]
        coords = rng.choice(p.data.size, size=min(4, p.data.size), replace=False)
        fd = fd_grad(loss_value, p.data, h=1e-6, coords=coords)
        fa, ff = p.grad.reshape(-1)[coords], fd.reshape(-1)[coords]
        live = np.maximum(np.abs(fa), np.abs(ff)) > 1e-4
        if live.any():
            worst = max(worst, rel_err(fa[live], ff[live]))
        assert np.abs(fa[~live] - ff[~live]).max(initial=0.0) <= 1e-6
    return worst


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    per_seed_ops = [
        tg.test_add_broadcast, tg.test_multiply_broadcast,
        tg.test_negative_and_sub, tg.test_matmul, tg.test_concat,
        tg.test_reshape_transpose, tg.test_repeat_rows,
        tg.test_reduce_sum_mean, tg.test_relu, tg.test_sigmoid_tanh,
        tg.test_softmax, tg.test_embedding_lookup, tg.test_dropout,
        tg.test_cross_entropy, tg.test_conv2d, tg.test_maxpool2d,
    ]
    for op in per_seed_ops:
        for seed in range(10):
            op(seed)
    for seed in range(10):
        tg.test_batchnorm2d(seed, True)
        tg.test_batchnorm2d(seed, False)
    worst = max(two_step_model_fd_check(seed) for seed in range(10))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-4 and elapsed < 60.0,
           f"all ops + 2-step model FD-checked, worst end-to-end rel err "
           f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# criterion 2: encoder law
# ---------------------------------------------------------------------

def pe_closed_form(h, w, d, timescale):
    pe = np.zeros((d, h, w))
    for i in range(d // 4):
        rate = timescale ** (-4.0 * i / d)
        for y in range(h):
            for x in range(w):
                pe[2 * i, y, x] = math.sin(x * rate)
                pe[2 * i + 1, y, x] = math.cos(x * rate)
                pe[d // 2 + 2 * i, y, x] = math.sin(y * rate)
                pe[d // 2 + 2 * i + 1, y, x] = math.cos(y * rate)
    return pe


def test_criterion_2_encoder_law():
    enc = Encoder(model_config(1, d=64), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    dims = []
    for h, w in ((64, 128), (40, 320)):
        dims.append(enc.encode(rng.random((1, 1, h, w))).shape)
    pe = positional_encoding(8, 16, 64, 10000.0)
    pe_err = float(np.abs(pe - pe_closed_form(8, 16, 64, 10000.0)).max())
    const_y = float(np.abs(pe[:32] - pe[:32, :1, :]).max())
    const_x = float(np.abs(pe[32:] - pe[32:, :, :1]).max())
    # L = (H/8) * (W/8) entries of width d
    report(2, dims == [(1, 8 * 16, 64), (1, 5 * 40, 64)] and pe_err <= 1e-12
           and const_y == 0.0 and const_x == 0.0,
           f"entries shapes {dims}, PE err {pe_err:.1e}, half constancy "
           f"({const_y:.1e} along y, {const_x:.1e} along x)")


# ---------------------------------------------------------------------
# criterion 3: metric oracles
# ---------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    cand, ref = list("abcde"), list("abcdf")
    single = sentence_bleu4(cand, ref)
    corpus = bleu4([cand], [ref])
    want = 0.2 ** 0.25                      # (4/5 * 3/4 * 2/3 * 1/2)^(1/4)
    ident = bleu4([list("abc"), list("xy")], [list("abc"), list("xy")])

    truth = np.zeros((6, 10), dtype=np.uint8)
    truth[1:4, 2] = 1
    test = truth.copy()
    test[2:5, 7] = 1                        # one column substituted
    edit = edit_distance_score(truth, test)

    a = np.zeros((4, 8), dtype=np.uint8)
    a[1, 1] = 1
    a[2, 5] = 1
    b = np.zeros((4, 10), dtype=np.uint8)
    b[1, 1] = 1
    b[2, 7] = 1                             # same ink, extra blank columns
    strict = exact_match(a, b)
    no_ws = exact_match(a, b, strip_ws=True)

    report(3, abs(single - want) <= 1e-4 and abs(corpus - want) <= 1e-4
           and ident == 1.0 and abs(edit - 0.900) <= 1e-12
           and not strict and no_ws,
           f"bleu {single:.4f}/{corpus:.4f} (want {want:.4f}), identical "
           f"corpus {ident}, edit {edit:.3f}, strict={strict} no-ws={no_ws}")


# ---------------------------------------------------------------------
# criterion 4: decoding cross-checks
# ---------------------------------------------------------------------

class TwoStepModel:
    """START -> X (0.6) | Y (0.4); after X best finish 0.3, after Y 0.9."""

    TABLES = {
        (): {4: 0.6, 5: 0.4},
        (4,): {END_ID: 0.3, 4: 0.25, 5: 0.25, 1: 0.2},
        (5,): {END_ID: 0.9, 4: 0.05, 5: 0.05},
    }

    def decode_start(self, image):
        return ()

    def decode_step(self, state, token):
        hist = state if token == START_ID else state + (int(token),)
        p = np.zeros(6)
        for tok, prob in self.TABLES.get(hist, {END_ID: 1.0}).items():
            p[tok] = prob
        with np.errstate(divide="ignore"):
            return np.log(p), hist, np.array([1.0])


def test_criterion_4_beam_equals_greedy_and_beats_it():
    hand = TwoStepModel()
    g = greedy_decode(hand, None, max_len=4)
    b2 = beam_decode(hand, None, b=2, max_len=4)
    hand_ok = (g.tokens == [4] and abs(math.exp(g.score) - 0.18) < 1e-12
               and b2.tokens == [5] and abs(math.exp(b2.score) - 0.36) < 1e-12)

    vocab = list(RESERVED) + ["x", "y", "+", "2"]
    agree = 0
    for seed in range(100):
        cfg = model_config(8, d=8, d_emb=4, hidden=8, attn_dim=8,
                           out_dim=8, dropout=0.0, seed=seed)
        model = Model(cfg, vocab)
        image = np.random.default_rng(seed + 1000).random((16, 24))
        g = greedy_decode(model, image, max_len=6)
        b = beam_decode(model, image, b=1, max_len=6)
        agree += (g.tokens == b.tokens and g.score == b.score
                  and g.finished == b.finished
                  and all(np.array_equal(x, y)
                          for x, y in zip(g.alphas, b.alphas)))
    report(4, hand_ok and agree == 100,
           f"beam b=1 == greedy bit-for-bit on {agree}/100 seeded models; "
           f"hand model greedy 0.18 vs beam-2 0.36")


# ---------------------------------------------------------------------
# criterion 5: MLE overfit milestone
# ---------------------------------------------------------------------

def test_criterion_5_mle_overfit_milestone(desk_run):
    ok = (desk_run["reached_step"] is not None
          and desk_run["reached_step"] <= 2000
          and desk_run["match"] >= 0.95
          and desk_run["seconds"] < 900.0)
    report(5, ok,
           f"exact match {desk_run['match']:.2%} at step "
           f"{desk_run['reached_step']} in {desk_run['seconds']:.0f}s "
           f"(budget: >=95% within 2000 steps, <900s)")


def test_desk_mle_loss_decreases_over_first_50_steps(desk_run):
    """Smoke oracle recorded from the reference run: per-step loss is
    noisy, but every 10-step block mean strictly decreases and step 50
    sits below 0.75x the step-1 loss."""
    losses = np.array(desk_run["first_losses"])
    assert losses.shape == (50,)
    blocks = losses.reshape(5, 10).mean(axis=1)
    assert all(b < a for a, b in zip(blocks, blocks[1:])), blocks
    assert losses[-1] < 0.75 * losses[0], (losses[0], losses[-1])


# ---------------------------------------------------------------------
# criterion 6: RL recovery milestone + bandit estimator
# ---------------------------------------------------------------------

def add_parameter_noise(model, scale, seed):
    rng = derive_rng(seed, RNG_NOISE)
    for name in sorted(model.params):
        data = model.params[name].data
        std = float(data.std())
        if std > 0.0:
            data += (scale * std * rng.standard_normal(data.shape)).astype(data.dtype)


def bandit_estimate(theta, n_batches, k, seed):
    p_a = 1.0 / (1.0 + np.exp(-(theta[0] - theta[1])))
    rng = np.random.default_rng(seed)
    picked_a = rng.random((n_batches, k)) < p_a
    weights = reinforce_weights(picked_a.astype(np.float64), leave_one_out=True)
    per_batch = (weights * (picked_a - p_a)).mean(axis=1)
    return per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(n_batches), p_a


def test_criterion_6_rl_recovery_and_bandit(desk_data, desk_run):
    model, _ = Model.load(desk_run["ckpt"])
    add_parameter_noise(model, 0.10, seed=0)
    vocab = Vocabulary(model.vocab)
    cfg = desk_config()
    batches, _ = bucket_and_pad(desk_data["examples"],
                                [desk_data["bucket"]], 4, vocab)
    refs = [[strip_sentinels(row) for row in b.seq] for b in batches]
    opt = Adam(model.params, lr=float(cfg["rl_lr"]))
    audit = InputFeedAudit()
    rewards = []
    for step in range(1, 501):
        b = batches[(step - 1) % len(batches)]
        r = reinforce_step(model, b.images, refs[(step - 1) % len(batches)],
                           opt, k=5, seed=0, step=step, max_len=50,
                           leave_one_out=bool(cfg["leave_one_out"]),
                           clip_norm=float(cfg["clip_norm"]), audit=audit)
        rewards.append(r)
    ma_start = float(np.mean(rewards[:50]))
    ma_end = float(np.mean(rewards[-50:]))
    gain = ma_end - ma_start

    est, se, p_a = bandit_estimate((0.4, -0.3), 20_000, 5, seed=13)
    analytic = p_a * (1 - p_a)
    bandit_ok = abs(est - analytic) <= 3 * se
    report(6, gain >= 0.05 and audit.violations == 0 and bandit_ok,
           f"mean sampled BLEU 50-step MA {ma_start:.3f} -> {ma_end:.3f} "
           f"(gain {gain:+.3f}, need +0.05); bandit estimate {est:.5f} vs "
           f"analytic {analytic:.5f} within 3 sigma ({3 * se:.5f}) over 1e5 draws")


# ---------------------------------------------------------------------
# criterion 7: exposure-bias closure
# ---------------------------------------------------------------------

def test_criterion_7_input_feeding_audit(desk_data, desk_run):
    model, _ = Model.load(desk_run["ckpt"])
    add_parameter_noise(model, 0.10, seed=1)   # noisier model samples longer
    vocab = Vocabulary(model.vocab)
    batches, _ = bucket_and_pad(desk_data["examples"],
                                [desk_data["bucket"]], 32, vocab)
    audit = InputFeedAudit()
    passes = 0
    with T.no_grad():
        while audit.steps_checked < 10_000:
            tiled = T.repeat_rows(model.encoder.encode(batches[0].images), 2)
            rngs = [derive_rng(2, RNG_SAMPLE, passes, i) for i in range(tiled.shape[0])]
            _sample_rollout(model.decoder, tiled, 50, rngs, audit)
            passes += 1
    report(7, audit.steps_checked >= 10_000 and audit.violations == 0,
           f"{audit.steps_checked} sampled steps audited, "
           f"{audit.violations} violations")


# ---------------------------------------------------------------------
# criterion 8: byte-identical reruns
# ---------------------------------------------------------------------

def files_equal(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def test_criterion_8_repeatable_commands(desk_data, desk_run, tmp_path):
    checks = []

    regen = tmp_path / "regen"
    assert cli_main(["gen-data", "--out", str(regen), "--count", "32",
                     "--seed", "7"]) == 0
    same = all(files_equal(str(desk_data["root"] / rel), str(regen / rel))
               for rel in ["manifest.tsv", "buckets.txt"]
               + [f"images/{n:04d}.pgm" for n in range(32)])
    checks.append(("gen-data", same))

    for cmd, name in (("predict", "pred.tsv"), ("evaluate", "eval.tsv")):
        outs = []
        for run in ("1", "2"):
            out = tmp_path / (run + name)
            rc = cli_main([cmd, "--checkpoint", desk_run["ckpt"],
                           "--manifest", desk_data["manifest"],
                           "--out", str(out), "--greedy", "--max-len", "50",
                           "--buckets", desk_data["buckets"]])
            assert rc == 0
            outs.append(out)
        checks.append((cmd, files_equal(*map(str, outs))))

    dirs = []
    for run in ("i1", "i2"):
        out = tmp_path / run
        rc = cli_main(["inspect", "--checkpoint", desk_run["ckpt"],
                       "--image", str(desk_data["root"] / "images" / "0000.pgm"),
                       "--out", str(out), "--max-len", "50",
                       "--buckets", desk_data["buckets"], "--dump-pe"])
        assert rc == 0
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    same = (names == sorted(os.listdir(dirs[1]))
            and all(files_equal(str(dirs[0] / n), str(dirs[1] / n))
                    for n in names))
    checks.append(("inspect", same))

    # heatmaps recover weights summing to exactly 1
    import re
    from img2latex.data import read_pgm_raw
    sums_ok = True
    for n in names:
        if not n.startswith("step_"):
            continue
        raw = (dirs[0] / n).read_bytes()
        total = int(re.search(rb"# alpha-pixel-total (\d+)", raw).group(1))
        pixels, _ = read_pgm_raw(str(dirs[0] / n))
        sums_ok = sums_ok and abs(pixels.sum() / total - 1.0) <= 1e-4
    checks.append(("heatmap-sum", sums_ok))

    ckpts = []
    for run in ("t1", "t2"):
        out = tmp_path / run
        rc = cli_main(["train", "--train-manifest", desk_data["manifest"],
                       "--buckets", desk_data["buckets"], "--out", str(out),
                       "--config",
                       os.path.join(os.path.dirname(__file__), "..",
                                    "configs", "desk.cfg"),
                       "--set", "steps=2", "--set", "validate_every=2"])
        assert rc == 0
        ckpts.append(out / "last.ckpt")
    checks.append(("train", files_equal(*map(str, ckpts))))

    bad = [name for name, ok in checks if not ok]
    report(8, not bad,
           "byte-identical reruns: " + ", ".join(name for name, _ in checks)
           + (f" (mismatch: {bad})" if bad else ""))
