"""MLE objective, sampling, REINFORCE estimator and the train loop."""
import math
import os
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import desk_config, misfeed_rollouts, model_config, tree

from img2latex import tensor as T
from img2latex import cli, data, training
from img2latex import model as model_module
from img2latex.checkpoint import load_checkpoint
from img2latex.config import ModelConfig, full_defaults
from img2latex.data import (END_ID, PAD_ID, START_ID, RESERVED,
                            bucket_and_pad, build_vocab, load_buckets, load_dataset,
                            plan_batches, write_manifest, write_pgm)
from img2latex.decoder import StepOutput
from img2latex.decoding import greedy_decode
from img2latex.metrics import sentence_bleu4
from img2latex.model import RNG_SHUFFLE, Model, derive_rng, log_softmax
from img2latex.optim import Adam
from img2latex.synth import GrammarConfig, synth_generate
from img2latex.tensor import Tensor
from img2latex.training import (DivergenceError, InputFeedAudit, TrainError,
                                _sample_rollout, mle_loss, reinforce_step,
                                reinforce_weights, strip_sentinels, train)

VOCAB = list(RESERVED) + ["x", "y", "+", "2"]


def tiny_model(seed=0, **kw):
    cfg = model_config(len(VOCAB), d=8, d_emb=4, hidden=8,
                       attn_dim=8, out_dim=8, dropout=0.0, seed=seed, **kw)
    return Model(cfg, VOCAB)


def tiny_cfg(**kw):
    cfg = full_defaults()
    cfg.update(d=8, d_emb=4, hidden=8, attn_dim=8, out_dim=8, dropout=0.0,
               lr=1e-3, steps=3, batch_size=4, validate_every=3, patience=99,
               max_len=30, k=2, seed=5)
    cfg.update(kw)
    return cfg


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic dataset with a single covering bucket."""
    root = tmp_path_factory.mktemp("corpus")
    stats = synth_generate(root, count=4, seed=11,
                           cfg=GrammarConfig(max_depth=1, max_len=12, max_terms=2))
    h = max(s[0] for s in stats["sizes"])
    w = max(s[1] for s in stats["sizes"])
    buckets = root / "buckets.txt"
    buckets.write_text(f"{-(-w // 8) * 8} {-(-h // 8) * 8}\n")
    return {"manifest": str(root / "manifest.tsv"), "buckets": str(buckets),
            "root": root}


def first_batch(corpus):
    examples = load_dataset(corpus["manifest"])
    vocab, buckets = build_vocab([corpus["manifest"]]), load_buckets(corpus["buckets"])
    (planned,), _ = plan_batches(examples, buckets, 4)
    return bucket_and_pad(planned, buckets, vocab), vocab


# ---------------------------------------------------------------------
# mle_loss
# ---------------------------------------------------------------------

def test_uniform_model_loss_is_token_count_times_log_vocab():
    model = tiny_model()
    model.params["dec.w4"].data[:] = 0.0      # logits 0 -> uniform over V=8
    images = np.random.default_rng(0).random((2, 1, 16, 24))
    seq = np.array([[4, 5, 6, 7, END_ID],
                    [4, END_ID, PAD_ID, PAD_ID, PAD_ID]])
    loss, n_tokens = mle_loss(model, images, seq, train=False)
    assert n_tokens == 7
    assert abs(loss.item() - 3.5 * math.log(8)) < 1e-12


def test_loss_equals_negative_decode_protocol_log_likelihood():
    model = tiny_model(seed=1)
    image = np.random.default_rng(1).random((16, 24))
    targets = [4, 6, 5, END_ID]
    loss, _ = mle_loss(model, image[None, None], np.array([targets]), train=False)
    state = model.decode_start(image)
    total = 0.0
    last = START_ID
    for tok in targets:
        logp, state, _ = model.decode_step(state, last)
        total += logp[tok]
        last = tok
    assert abs(loss.item() - (-total)) < 1e-10


def test_appending_pad_columns_never_changes_the_loss():
    model = tiny_model(seed=2)
    images = np.random.default_rng(2).random((2, 1, 16, 24))
    seq = np.array([[4, 5, END_ID], [6, END_ID, PAD_ID]])
    base, n_base = mle_loss(model, images, seq, train=False)
    padded = np.concatenate([seq, np.full((2, 2), PAD_ID)], axis=1)
    more, n_more = mle_loss(model, images, padded, train=False)
    assert n_base == n_more
    assert abs(base.item() - more.item()) < 1e-10


def test_empty_batch_rejected():
    model = tiny_model()
    with pytest.raises(TrainError, match="empty batch"):
        mle_loss(model, np.zeros((0, 8, 8)), np.zeros((0, 3), dtype=int))
    with pytest.raises(TrainError, match="empty batch"):
        mle_loss(model, np.zeros((1, 8, 8)), np.zeros((1, 0), dtype=int))


def test_f32_model_trains_in_float32(monkeypatch):
    # masks and REINFORCE weights are built in the model dtype, so no
    # float64 operand promotes the loss or any gradient
    model = tiny_model(seed=2, dtype="f32")
    images = np.random.default_rng(2).random((2, 1, 16, 24))
    seq = np.array([[4, 5, END_ID, PAD_ID], [6, END_ID, PAD_ID, PAD_ID]])
    loss, _ = mle_loss(model, images, seq, train=False)
    assert loss.dtype == np.float32
    model.zero_grad()
    loss.backward()
    for name, p in model.params.items():
        assert p.grad.dtype == p.data.dtype == np.float32, name

    seen = []
    real_loss = training.reinforce_loss

    def spy(*args):
        out = real_loss(*args)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(training, "reinforce_loss", spy)
    opt = Adam(model.params, lr=1e-3)
    reinforce_step(model, images, [[4, 5], [6]], opt, k=2, seed=0, step=1, max_len=6)
    assert seen == [np.float32]
    for name, p in model.params.items():
        assert p.grad.dtype == p.data.dtype == np.float32, name


# ---------------------------------------------------------------------
# packed teacher forcing against the masked reference
# ---------------------------------------------------------------------

def masked_reference(model, images, seq, train=True, rng=None):
    """The teacher-forced pass before packing: all B rows step for all T
    steps, and each step's PAD targets are masked out of the loss.
    Returns (loss, token count, argmax hits on the targets)."""
    b = seq.shape[0]
    state = model.decoder.init_state(model.encoder.encode(images, train=train))
    inputs = np.concatenate([np.full((b, 1), START_ID, dtype=seq.dtype), seq[:, :-1]], axis=1)
    total, n_tokens, hits = None, 0, 0
    for t in range(seq.shape[1]):
        out = model.decoder.step(state, inputs[:, t], train=train, rng=rng)
        state = out.state
        targets, mask = seq[:, t], seq[:, t] != PAD_ID
        ce = T.cross_entropy(out.logits, targets)
        step_loss = (ce * Tensor(mask.astype(ce.dtype))).sum()
        total = step_loss if total is None else total + step_loss
        n_tokens += int(mask.sum())
        hits += int((out.logits.data.argmax(axis=1)[mask] == targets[mask]).sum())
    return total * (1.0 / b), n_tokens, hits


def padded(rows, width):
    return np.array([row + [PAD_ID] * (width - len(row)) for row in rows])


# (seq, the row counts the batch is cut to, in order)
PACKING_CASES = {
    # lengths 3, 6, 2, 6, 3: unsorted, with ties, and a PAD column at the end
    "unsorted-ties": (padded([[4, 5, END_ID], [4, 5, 6, 7, 4, END_ID], [6, END_ID],
                              [7, 6, 5, 4, 5, END_ID], [5, 6, END_ID]], 7), [4, 2]),
    # no PAD at all: the order is the identity and the batch never shrinks
    "equal-lengths": (padded([[4, 5, 6, END_ID], [7, 6, 5, END_ID], [5, 5, 4, END_ID]], 4), []),
    "single-row": (padded([[6, 4, 7, END_ID]], 4), []),
    "end-only-row": (padded([[4, 7, END_ID], [END_ID], [5, END_ID]], 4), [2, 1]),
}


@pytest.mark.parametrize("name", sorted(PACKING_CASES))
def test_packed_loop_matches_the_masked_reference(name, monkeypatch):
    seq, expected_cuts = PACKING_CASES[name]
    model = tiny_model(seed=8)
    images = np.random.default_rng(8).random((seq.shape[0], 1, 16, 24))
    cuts = []
    keep_rows = model.decoder.keep_rows
    model.decoder.keep_rows = lambda state, rows: (cuts.append(rows), keep_rows(state, rows))[1]
    gathers, views = [], []     # take_rows calls that gather, and row counts cut as views
    take_rows = T.take_rows
    monkeypatch.setattr(T, "take_rows", lambda a, rows: (
        (views if isinstance(rows, int) else gathers).append(rows), take_rows(a, rows))[1])
    results = []
    for run in (lambda: mle_loss(model, images, seq, train=True),
                lambda: masked_reference(model, images, seq, train=True)[:2]):
        loss, n_tokens = run()
        model.zero_grad()
        loss.backward()
        results.append((loss.item(), n_tokens,
                        {name: p.grad.copy() for name, p in model.params.items()}))
    (loss, n_tokens, grads), (ref_loss, ref_n, ref_grads) = results
    assert cuts == expected_cuts
    # each cut takes h, c (two layers each) and O by the prefix count, as views
    assert views == [n for n in expected_cuts for _ in range(5)]
    lengths = (seq != PAD_ID).sum(axis=1)
    # the entries are sorted once, and only when the rows are not in order yet
    assert len(gathers) == int((np.diff(lengths) > 0).any())
    assert n_tokens == ref_n == int((seq != PAD_ID).sum())
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    # a batch norm absorbs its conv's bias, whose gradient is then zero
    # up to rounding on both sides
    absorbed = {name.replace("enc.bn", "enc.conv").replace(".gamma", ".b")
                for name in model.params if name.endswith(".gamma")}
    assert absorbed
    for pname, ref in ref_grads.items():
        if pname in absorbed:
            assert np.abs(ref).max() < 1e-12 and np.abs(grads[pname]).max() < 1e-12
            continue
        scale = np.abs(ref).max()
        assert scale > 0, pname
        assert np.abs(grads[pname] - ref).max() <= 1e-9 * scale, pname
    with T.no_grad():
        _, _, hits = masked_reference(model, images, seq, train=False)
    batch = SimpleNamespace(images=images, seq=seq)
    assert training.token_accuracy(model, [batch]) == hits / ref_n


def test_packed_dropout_is_a_pure_function_of_the_generator():
    cfg = model_config(len(VOCAB), d=8, d_emb=4, hidden=8, attn_dim=8, out_dim=8,
                       dropout=0.3, seed=9)
    model = Model(cfg, VOCAB)
    seq, _ = PACKING_CASES["unsorted-ties"]
    images = np.random.default_rng(9).random((seq.shape[0], 1, 16, 24))
    losses = [mle_loss(model, images, seq, train=True,
                       rng=np.random.default_rng(21))[0].data.tobytes() for _ in range(2)]
    assert losses[0] == losses[1]
    other = mle_loss(model, images, seq, train=True, rng=np.random.default_rng(22))[0]
    assert other.data.tobytes() != losses[0]


def test_pad_before_a_target_is_rejected():
    model = tiny_model()
    seq = np.array([[4, 5, END_ID], [6, PAD_ID, END_ID]])
    with pytest.raises(TrainError, match="row 1 has PAD before a target"):
        mle_loss(model, np.zeros((2, 1, 16, 24)), seq)


def test_profile_of_a_desk_mle_step_covers_the_tape_and_backward():
    vocab = list(RESERVED) + [f"t{i}" for i in range(60)]
    model = Model(ModelConfig.from_cfg(desk_config(), len(vocab)), vocab)
    r = np.random.default_rng(31)
    images = r.random((32, 1, 56, 176)).astype(np.float32)
    lengths = r.integers(10, 41, size=32)
    seq = padded([list(r.integers(len(RESERVED), len(vocab), size=n - 1)) + [END_ID]
                  for n in lengths], 40)
    with T.profile() as prof:
        loss, _ = mle_loss(model, images, seq, train=True, rng=np.random.default_rng(32))
    # the last step's cell states (one slice_cols per LSTM layer) are
    # recorded but feed nothing
    reachable = Counter(rec.name for rec in tape_records(loss))
    assert prof.records == reachable + Counter(slice_cols=2)
    assert all(prof.out_bytes[name] > 0 for name in prof.records)
    with prof:
        start = time.perf_counter()
        loss.backward()
        wall = time.perf_counter() - start
    vjp = sum(prof.vjp_s.values())
    assert 0.8 * wall <= vjp <= wall
    assert set(prof.vjp_s) <= set(prof.records)


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------

class ChainModel:
    """Duck-typed model that puts ~all probability on a fixed successor."""

    V = 8

    def __init__(self, chain):
        self.chain = chain              # previous id -> next id

    # the double is its own encoder and decoder
    encoder = decoder = property(lambda self: self)

    def _row(self, last):
        row = np.zeros(self.V)
        row[self.chain.get(int(last), END_ID)] = 50.0
        return row

    def encode(self, image, train=False):
        return Tensor(np.zeros((1, 1, 4)))

    def init_state(self, entries, copies=1):
        return None

    def keep_rows(self, state, rows):
        return state

    def step(self, state, tokens, train=False, rng=None):
        logits = np.stack([self._row(t) for t in np.asarray(tokens)])
        return StepOutput(logits=Tensor(logits),
                          alpha=Tensor(np.ones((len(logits), 1))), state=None)

    def decode_start(self, image):
        return None

    def decode_step(self, state, token):
        return log_softmax(self._row(token)), None, np.array([1.0])


def rollout_nll(decoder, entries, max_len, rngs, audit=None):
    """The path reinforce_step takes: one rollout, whose packed logits
    give every sampled token's cross entropy.  Returns (tokens, finished,
    per-row nll, (per-token ce Tensor, rows))."""
    tokens, logits, targets, rows = _sample_rollout(decoder, decoder.init_state(entries),
                                                    max_len, rngs, audit)
    ce = T.cross_entropy(logits, targets)
    nll = np.bincount(rows, weights=ce.data, minlength=tokens.shape[0])
    return tokens, (tokens == END_ID).any(axis=1), nll, (ce, rows)


def rollout_one(model, image, max_len, seed, audit=None):
    """(content ids, nll, finished) of one sampled rollout."""
    with T.no_grad():
        entries = model.encoder.encode(image, train=False)
        tokens, finished, nll, _ = rollout_nll(
            model.decoder, entries, max_len, [np.random.default_rng(seed)], audit)
    return strip_sentinels(tokens[0]), float(nll[0]), bool(finished[0])


def test_sampling_equals_greedy_when_transitions_are_deterministic():
    model = ChainModel({START_ID: 4, 4: 5, 5: END_ID})
    tokens, nll, finished = rollout_one(model, None, 10, seed=0)
    assert tokens == [4, 5]
    assert finished
    assert -nll > -1e-8
    assert tokens == greedy_decode(model, None, max_len=10).tokens


def test_sample_truncation_flagged():
    loop = ChainModel({START_ID: 4, 4: 4})       # never emits END
    tokens, _, finished = rollout_one(loop, None, 3, seed=0)
    assert tokens == [4, 4, 4]
    assert not finished


def test_strip_sentinels():
    assert strip_sentinels([4, 5, END_ID, PAD_ID, PAD_ID]) == [4, 5]
    assert strip_sentinels([PAD_ID, START_ID, 6]) == [6]
    assert strip_sentinels([END_ID, 4]) == []


class StaticModel(ChainModel):
    """Same logits row regardless of history."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)
        self.V = len(self.row)

    def _row(self, last):
        return self.row

    def step(self, state, tokens, train=False, rng=None):
        b = len(np.asarray(tokens))
        return StepOutput(logits=Tensor(np.tile(self.row, (b, 1))),
                          alpha=Tensor(np.ones((b, 1))), state=None)


def test_single_step_sample_frequencies_match_probabilities():
    # 1e5 one-step draws vs the softmax distribution, 3 sigma binomial
    row = np.array([0.0, -0.4, 0.9, 0.3, -1.2, 0.5])
    p = np.exp(row) / np.exp(row).sum()
    n = 100_000
    model = StaticModel(row)
    rngs = [np.random.default_rng((9, i)) for i in range(n)]
    with T.no_grad():
        tokens = _sample_rollout(model, model.init_state(Tensor(np.zeros((n, 1, 4)))), 1,
                                 rngs)[0]
    freq = np.bincount(tokens[:, 0], minlength=len(row)) / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(freq - p) <= 3 * sigma).all()


def test_sampled_rollout_feeds_back_its_own_samples():
    audit = InputFeedAudit()
    for seed in range(5):
        model = tiny_model(seed=seed)
        image = np.random.default_rng(seed).random((1, 1, 16, 24))
        rollout_one(model, image, 25, seed=seed, audit=audit)
    assert audit.steps_checked > 0
    assert audit.violations == 0


def full_batch_rollout(decoder, entries, max_len, rngs):
    """The rollout before finished rows left the batch: all B rows step
    until the last one samples END, and a finished row's nll is masked."""
    b = entries.shape[0]
    state = decoder.init_state(entries)
    last = np.full(b, START_ID, dtype=np.int64)
    finished = np.zeros(b, dtype=bool)
    nll_total = None
    columns = []
    for _ in range(max_len):
        out = decoder.step(state, last, train=False)
        state = out.state
        z = out.logits.data.astype(np.float64)
        z = z - z.max(axis=1, keepdims=True)
        probs = np.exp(z)
        probs /= probs.sum(axis=1, keepdims=True)
        sampled = training._multinomial_rows(probs, rngs)
        sampled[finished] = PAD_ID
        active = ~finished
        ce = T.cross_entropy(out.logits, sampled)
        step_nll = ce * Tensor(active.astype(ce.dtype))
        nll_total = step_nll if nll_total is None else nll_total + step_nll
        columns.append(sampled.copy())
        finished = finished | (sampled == END_ID)
        last = sampled
        if finished.all():
            break
    return np.stack(columns, axis=1), nll_total, finished


class FixedDraws:
    """Stands in for a row's generator: returns the draws us in turn, then
    the last one for good."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0) if len(self.us) > 1 else self.us[0]


def rollout_case(name):
    """(model, images, repeats, max_len, rngs factory) for one case."""
    model = tiny_model(seed=7)
    images = np.random.default_rng(7).random((3, 1, 16, 24))
    if name == "mixed":
        # rows finish at different steps; the last row never draws END
        # (u ~ 1 picks the last token id) and is cut off at max_len
        def rngs():
            return [np.random.default_rng((7, i)) for i in range(5)] + [FixedDraws(1 - 1e-12)]
        return model, images, 2, 12, rngs
    if name == "all-end-at-step-1":
        # near-uniform logits put END (id 3 of 8) on u in (3/8, 4/8]
        model.params["dec.w4"].data *= 1e-3
        return model, images, 2, 12, lambda: [FixedDraws(0.45)] * 6
    assert name == "single-row"
    return model, images[:1], 1, 20, lambda: [np.random.default_rng((8, 0))]


def matches_the_full_batch_rollout(model, images, repeats, max_len, make_rngs):
    """Roll out, then check tokens, nll and every gradient (the encoder
    and dec.attn.w2 included) against full_batch_rollout.
    Returns the reference (tokens, finished, nll)."""
    weights = np.random.default_rng(3).standard_normal(images.shape[0] * repeats)
    results = []
    for full_batch in (False, True):
        tiled = T.repeat_rows(model.encoder.encode(images, train=False), repeats)
        if full_batch:
            tokens, nll, finished = full_batch_rollout(model.decoder, tiled, max_len,
                                                       make_rngs())
            loss = training.reinforce_loss(nll, weights, np.arange(weights.size))
            nll = nll.data
        else:
            tokens, finished, nll, (ce, rows) = rollout_nll(model.decoder, tiled, max_len,
                                                            make_rngs())
            loss = training.reinforce_loss(ce, weights, rows)
        model.zero_grad()
        loss.backward()
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        results.append((tokens, nll.copy(), finished, grads))
    (tok, nll, fin, grads), (ref_tok, ref_nll, ref_fin, ref_grads) = results
    assert np.array_equal(tok, ref_tok)
    assert np.array_equal(fin, ref_fin)
    assert np.all(np.abs(nll - ref_nll) <= 1e-10 * np.abs(ref_nll))
    for pname, ref in ref_grads.items():
        scale = np.abs(ref).max()
        assert np.abs(grads[pname] - ref).max() <= 1e-9 * scale, pname
    return ref_tok, ref_fin, ref_nll


@pytest.mark.parametrize("name", ["mixed", "all-end-at-step-1", "single-row"])
def test_compacting_rollout_matches_the_full_batch_rollout(name):
    model, images, repeats, max_len, make_rngs = rollout_case(name)
    ref_tok, ref_fin, _ = matches_the_full_batch_rollout(model, images, repeats, max_len,
                                                         make_rngs)
    lengths = (ref_tok != PAD_ID).sum(axis=1)
    if name == "mixed":
        assert len(set(lengths[ref_fin])) >= 2 and not ref_fin[-1]
        assert lengths[-1] == max_len
    if name == "all-end-at-step-1":
        assert ref_tok.shape[1] == 1 and ref_fin.all()


def test_a_rollout_whose_finishing_rows_are_a_suffix_cuts_views_equal_to_gathers(
        monkeypatch):
    # near-uniform logits over 8 ids put END on u in (3/8, 4/8]; rows 5,
    # then 3 and 4, then 2, then 0 and 1 finish, so the kept rows are
    # always a prefix
    model = tiny_model(seed=7)
    model.params["dec.w4"].data *= 1e-3
    images = np.random.default_rng(7).random((3, 1, 16, 24))
    draws = [(0.55, 0.7, 0.55, 0.45), (0.7, 0.55, 0.7, 0.45), (0.55, 0.55, 0.45),
             (0.7, 0.45), (0.55, 0.45), (0.45,)]
    weights = np.random.default_rng(3).standard_normal(len(draws))
    keep_rows = model.decoder.keep_rows
    take_rows = T.take_rows
    results = []
    for gather in (False, True):
        cuts, gathers = [], []
        monkeypatch.setattr(model.decoder, "keep_rows", lambda state, rows: (
            cuts.append(rows),
            keep_rows(state, np.arange(rows) if gather and isinstance(rows, int) else rows))[1])
        monkeypatch.setattr(T, "take_rows", lambda a, rows: (
            isinstance(rows, int) or gathers.append(rows), take_rows(a, rows))[1])
        tiled = T.repeat_rows(model.encoder.encode(images, train=False), 2)
        state = model.decoder.init_state(tiled)
        tokens, logits, targets, rows = _sample_rollout(
            model.decoder, state, 6, [FixedDraws(*us) for us in draws])
        loss = training.reinforce_loss(T.cross_entropy(logits, targets), weights, rows)
        model.zero_grad()
        loss.backward()
        assert cuts == [5, 3, 2]
        # every cut takes h, c (two layers each) and O
        assert len(gathers) == (5 * len(cuts) if gather else 0)
        results.append((tokens, logits.data.tobytes(), targets, rows,
                        {name: p.grad.tobytes() for name, p in model.params.items()}))
    (tokens, logits, targets, rows, grads), gathered = results
    assert tokens.tolist() == [[4, 5, 4, END_ID], [5, 4, 5, END_ID], [4, 4, END_ID, PAD_ID],
                               [5, END_ID, PAD_ID, PAD_ID], [4, END_ID, PAD_ID, PAD_ID],
                               [END_ID, PAD_ID, PAD_ID, PAD_ID]]
    assert list(rows) == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 0, 1, 2, 0, 1]
    assert np.array_equal(tokens, gathered[0])
    assert logits == gathered[1]
    assert np.array_equal(targets, gathered[2]) and np.array_equal(rows, gathered[3])
    assert grads == gathered[4]


def test_sampled_sentinels_keep_their_score(monkeypatch):
    # near-uniform logits over 8 ids put id j on u in (j/8, (j+1)/8], so
    # each row's draws script its tokens: PAD (0), UNK (1) and START (2)
    # are sampled as content, mid-rollout
    model = tiny_model(seed=7)
    model.params["dec.w4"].data *= 1e-3
    images = np.random.default_rng(7).random((2, 1, 16, 24))

    def rngs():
        return [FixedDraws(0.55, 0.05, 0.3, 0.45),
                FixedDraws(0.05, 0.45),
                FixedDraws(0.3, 0.7, 0.2, 0.05, 0.45),
                FixedDraws(0.8, 0.05, 0.95)]
    tokens, finished, ref_nll = matches_the_full_batch_rollout(model, images, 2, 6, rngs)
    assert tokens.tolist() == [[4, PAD_ID, START_ID, END_ID, PAD_ID, PAD_ID],
                               [PAD_ID, END_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
                               [START_ID, 5, 1, PAD_ID, END_ID, PAD_ID],
                               [6, PAD_ID, 7, 7, 7, 7]]
    assert finished.tolist() == [True, True, True, False]
    # counting targets by PAD, as MLE batches do, would refuse this rollout
    with pytest.raises(TrainError, match="PAD before a target"):
        training._target_counts(tokens)
    # reinforce_step, on the same draws, weights every sampled token too
    draws = rngs()
    monkeypatch.setattr(training, "derive_rng", lambda seed, purpose, step, i: draws[i])
    scored = []
    real_loss = training.reinforce_loss

    def spy(nll, weights, rows):
        scored.append((nll.data.copy(), rows))
        return real_loss(nll, weights, rows)

    monkeypatch.setattr(training, "reinforce_loss", spy)
    opt = Adam(model.params, lr=1e-3)
    reinforce_step(model, images, [[4], [5]], opt, k=2, seed=0, step=1, max_len=6)
    (ce, rows), = scored
    nll = np.bincount(rows, weights=ce, minlength=4)
    assert np.all(np.abs(nll - ref_nll) <= 1e-10 * np.abs(ref_nll))


class RowTaggedModel:
    """Double whose entries row r holds the value r, so every step records
    which original rows it ran.  Row r samples content id 4 + r % 4 for
    r steps, then END; rows r >= max_len are cut off."""

    V = 8

    def __init__(self, n):
        self.n = n
        self.calls = []                 # (original rows, fed tokens) per step

    def encode(self, images, train=False):
        ids = np.arange(self.n, dtype=np.float64)[:, None, None]
        return Tensor(ids)

    def init_state(self, entries, copies=1):
        return (entries, 0)

    def keep_rows(self, state, rows):
        entries, t = state
        rows = np.arange(rows) if isinstance(rows, int) else rows
        return T.take_rows(entries, rows), t

    def step(self, state, tokens, train=False, rng=None):
        entries, t = state
        rows = entries.data[:, 0, 0].astype(int)
        self.calls.append((rows, np.array(tokens)))
        logits = np.zeros((len(rows), self.V))
        logits[np.arange(len(rows)), 4 + rows % 4] = np.where(rows > t, 50.0, 0.0)
        logits[:, END_ID] = np.where(rows > t, 0.0, 50.0)
        return StepOutput(logits=Tensor(logits), alpha=Tensor(np.ones((len(rows), 1))),
                          state=(entries, t + 1))


def test_finished_rows_are_never_fed_again():
    model = RowTaggedModel(5)
    rngs = [np.random.default_rng((5, i)) for i in range(5)]
    audit = InputFeedAudit()
    tokens, finished, nll, (ce, rows) = rollout_nll(model, model.encode(None), 4, rngs, audit)
    # row r runs steps 0..r (END at step r); row 4 is cut off after 4
    # steps, and no step runs twice: the rollout's logits are the loss's
    assert [list(rows) for rows, _ in model.calls] == [[0, 1, 2, 3, 4], [1, 2, 3, 4],
                                                       [2, 3, 4], [3, 4]]
    assert [list(fed) for _, fed in model.calls] == [[START_ID] * 5, [5, 6, 7, 4],
                                                     [6, 7, 4], [7, 4]]
    # one target per running row per step, in step order
    assert list(rows) == [0, 1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 4, 3, 4]
    assert ce.shape == (14,)
    assert list(finished) == [True, True, True, True, False]
    assert tokens.tolist() == [[END_ID, PAD_ID, PAD_ID, PAD_ID],
                               [5, END_ID, PAD_ID, PAD_ID],
                               [6, 6, END_ID, PAD_ID],
                               [7, 7, 7, END_ID],
                               [4, 4, 4, 4]]
    assert nll.shape == (5,) and np.all(nll < 1e-15)
    # one audited count per running row per step after the first
    assert audit.steps_checked == 4 + 3 + 2 and audit.violations == 0


class MisfeedModel(RowTaggedModel):
    """Feeds itself the running rows' tokens in reverse order, as a row
    mix-up after compaction would."""

    def step(self, state, tokens, train=False, rng=None):
        tokens[:] = tokens[::-1].copy()
        return super().step(state, tokens, train, rng)


def test_misaligned_feed_is_counted_as_a_violation():
    model = MisfeedModel(5)
    audit = InputFeedAudit()
    rngs = [np.random.default_rng((5, i)) for i in range(5)]
    _sample_rollout(model, model.init_state(model.encode(None)), 4, rngs, audit)
    # reversed feeds [4, 7, 6, 5], [4, 7, 6] and [4, 7]: only the middle
    # row of step 2 matches its own previous token
    assert audit.steps_checked == 9
    assert audit.violations == 8


# ---------------------------------------------------------------------
# REINFORCE estimator
# ---------------------------------------------------------------------

def test_equal_rewards_center_to_exact_zero():
    r = np.full((3, 4), 0.62)
    assert (reinforce_weights(r) == 0.0).all()
    assert (reinforce_weights(r, leave_one_out=True) == 0.0).all()


def test_baseline_arithmetic_by_hand():
    r = np.array([[1.0, 0.0, 0.0]])
    got = reinforce_weights(r)
    assert np.allclose(got, [[2 / 3, -1 / 3, -1 / 3]], atol=1e-15)
    loo = reinforce_weights(r, leave_one_out=True)
    assert np.allclose(loo, [[1.0, -0.5, -0.5]], atol=1e-15)


def test_baseline_requires_at_least_two_samples():
    with pytest.raises(TrainError, match="k>=2"):
        reinforce_weights(np.ones((2, 1)))
    with pytest.raises(TrainError, match="k>=2"):
        reinforce_weights(np.ones(5))


def bandit_estimate(theta, n_batches, k, leave_one_out, seed):
    """Mean REINFORCE estimate of dE[R]/dtheta_A for a two-arm softmax
    policy with reward 1 for arm A, using production weight centering."""
    p_a = 1.0 / (1.0 + np.exp(-(theta[0] - theta[1])))
    rng = np.random.default_rng(seed)
    picked_a = rng.random((n_batches, k)) < p_a
    rewards = picked_a.astype(np.float64)
    weights = reinforce_weights(rewards, leave_one_out=leave_one_out)
    score_a = picked_a - p_a                   # d log p(y) / d theta_A
    per_batch = (weights * score_a).mean(axis=1)
    return per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(n_batches), p_a


def test_bandit_estimator_loo_is_unbiased():
    est, se, p_a = bandit_estimate((0.4, -0.3), 20_000, 5, True, seed=13)
    analytic = p_a * (1 - p_a)
    assert abs(est - analytic) <= 3 * se


def test_bandit_estimator_include_self_shrinks_by_k_minus_1_over_k():
    k = 5
    est, se, p_a = bandit_estimate((0.4, -0.3), 20_000, k, False, seed=13)
    analytic = p_a * (1 - p_a)
    assert abs(est - analytic * (k - 1) / k) <= 3 * se
    assert abs(est - analytic) > 3 * se        # the bias is real and visible


def test_reinforce_step_constant_reward_leaves_params_unchanged():
    model = tiny_model(seed=3)
    before = {k: p.data.copy() for k, p in model.params.items()}
    opt = Adam(model.params, lr=1e-3)
    images = np.random.default_rng(3).random((2, 1, 16, 24))
    mean = reinforce_step(model, images, [[4, 5], [6]], opt, k=3, seed=0,
                          step=1, max_len=8, reward_fn=lambda c, r: 0.5)
    assert mean == 0.5
    for name, arr in before.items():
        assert np.array_equal(model.params[name].data, arr), name


def test_reinforce_step_clamps_rewards():
    model = tiny_model(seed=3)
    opt = Adam(model.params, lr=1e-3)
    images = np.random.default_rng(3).random((1, 1, 16, 24))
    assert reinforce_step(model, images, [[4]], opt, k=2, seed=0, step=1,
                          max_len=4, reward_fn=lambda c, r: 7.3) == 1.0
    assert reinforce_step(model, images, [[4]], opt, k=2, seed=0, step=2,
                          max_len=4, reward_fn=lambda c, r: -2.0) == 0.0


def test_reinforce_step_requires_k_ge_2():
    model = tiny_model()
    opt = Adam(model.params, lr=1e-3)
    with pytest.raises(TrainError, match="k must be >= 2"):
        reinforce_step(model, np.zeros((1, 16, 24)), [[4]], opt, k=1,
                       seed=0, step=1)


def tape_records(loss):
    """The records reachable from loss, before backward consumes them."""
    records, seen, stack = [], set(), [loss]
    while stack:
        rec = stack.pop()._op
        if rec is not None and id(rec) not in seen:
            seen.add(id(rec))
            records.append(rec)
            stack.extend(rec.inputs)
    return records


def test_a_reinforce_step_runs_the_decoder_once_and_tapes_its_rollout(monkeypatch):
    model = tiny_model(seed=4)
    opt = Adam(model.params, lr=1e-4)
    images = np.random.default_rng(4).random((2, 1, 16, 24))
    real_loss, real_sample = training.reinforce_loss, training._sample_rollout
    real_step = model.decoder.step
    taped, sampled, steps = [], [], []

    def loss_spy(*args):
        loss = real_loss(*args)
        # names and output shapes, read before backward drops the outputs
        taped.extend((rec.seq, rec.name, rec.out.shape) for rec in tape_records(loss))
        return loss

    def sample_spy(*args):
        start = next(T._op_counter)
        out = real_sample(*args)
        sampled.append((start, next(T._op_counter), out[0]))
        return out

    monkeypatch.setattr(training, "reinforce_loss", loss_spy)
    monkeypatch.setattr(training, "_sample_rollout", sample_spy)
    monkeypatch.setattr(model.decoder, "step",
                        lambda *a, **kw: (steps.append(1), real_step(*a, **kw))[1])
    reinforce_step(model, images, [[4, 5], [6]], opt, k=3, seed=1, step=1, max_len=12)
    (start, stop, tokens), = sampled
    ran = np.where((tokens == END_ID).any(axis=1), (tokens == END_ID).argmax(axis=1) + 1,
                   tokens.shape[1])
    assert len(set(ran)) >= 3               # rows left the rollout at different steps
    # one decoder step per sampled step: there is no second, scoring pass
    assert len(steps) == tokens.shape[1]
    names = Counter(name for _, name, _ in taped)
    assert names["cross_entropy"] == 1
    # the loss reaches every rollout step's records
    rollout = Counter(name for seq, name, _ in taped if start < seq < stop)
    assert rollout["attention_scores"] == rollout["attention_context"] == len(steps)
    assert rollout["lstm_cell"] == 2 * len(steps)
    # each compacting step cuts h, c and O (2-D); the memory is never cut
    cuts = [shape for _, name, shape in taped if name == "take_rows"]
    assert cuts and all(len(shape) == 2 for shape in cuts)
    assert len(cuts) == 5 * (len(set(ran)) - 1)


def test_reinforce_step_samples_and_rewards_what_an_unrecorded_rollout_does(monkeypatch):
    model = tiny_model(seed=4)
    opt = Adam(model.params, lr=1e-4)
    images = np.random.default_rng(4).random((2, 1, 16, 24))
    refs, k, seed, step = [[4, 5], [6]], 3, 1, 1
    # the same rollout off the tape, before the step moves the parameters,
    # over the memory tiled k times: row i * k + j is sample j of image i
    with T.no_grad():
        tiled = T.repeat_rows(model.encoder.encode(images, train=False), k)
        rngs = [training.derive_rng(seed, training.RNG_SAMPLE, step, i) for i in range(2 * k)]
        free = _sample_rollout(model.decoder, model.decoder.init_state(tiled), 12, rngs)
    assert not free[1].requires_grad
    free_rewards = [sentence_bleu4(strip_sentinels(row), refs[i // k])
                    for i, row in enumerate(free[0])]
    assert len(set(free_rewards)) > 1
    rewarded, sampled = [], []

    def reward(cand, ref):
        rewarded.append((cand, sentence_bleu4(cand, ref)))
        return rewarded[-1][1]

    real_sample = training._sample_rollout
    monkeypatch.setattr(training, "_sample_rollout",
                        lambda *a: (sampled.append((a, real_sample(*a))), sampled[-1][1])[1])
    mean = reinforce_step(model, images, refs, opt, k=k, seed=seed, step=step, max_len=12,
                          reward_fn=reward)
    ((args, taped),) = sampled
    assert taped[1].requires_grad
    # the step rolls out k copies over one memory per image, sample-major:
    # row j * 2 + i is sample j of image i, the tiled rollout's row i * k + j
    assert args[1].entries.shape[0] == 2
    assert np.array_equal(args[1].mem_rows, np.tile(np.arange(2), k))
    assert np.array_equal(taped[0][np.arange(2 * k).reshape(k, 2).T.reshape(-1)], free[0])
    # a row's place in a matmul call can move its logits' last bits, and
    # the layouts place rows differently; the samples drawn are the same
    element = taped[3] % 2 * k + taped[3] // 2
    scale = np.abs(free[1].data).max()
    for e in range(2 * k):
        logits, ref = taped[1].data[element == e], free[1].data[free[3] == e]
        assert np.abs(logits - ref).max() <= 1e-12 * scale
        assert np.array_equal(taped[2][element == e], free[2][free[3] == e])
    assert [cand for cand, _ in rewarded] == [strip_sentinels(row) for row in free[0]]
    assert [value for _, value in rewarded] == free_rewards
    assert mean == float(np.clip(free_rewards, 0.0, 1.0).mean())


def test_a_state_built_under_no_grad_keeps_its_key_projection_off_the_tape():
    model = tiny_model(seed=4)
    entries = model.encoder.encode(np.random.default_rng(4).random((2, 1, 16, 24)))
    with T.no_grad():
        rollout = model.decoder.init_state(entries)
    assert rollout.proj._op is None and not rollout.proj.requires_grad
    scoring = model.decoder.init_state(entries)
    assert scoring.proj._op is not None and scoring.proj is not rollout.proj
    assert np.array_equal(scoring.proj.data, rollout.proj.data)


def test_a_reinforce_step_tapes_one_key_projection_the_scoring_passes(monkeypatch):
    model = tiny_model(seed=4)
    opt = Adam(model.params, lr=1e-4)
    images = np.random.default_rng(4).random((2, 1, 16, 24))
    w2 = model.params["dec.attn.w2"]
    real_loss = training.reinforce_loss
    projections = []

    def loss_spy(*args):
        loss = real_loss(*args)
        projections.extend(rec for rec in tape_records(loss) if w2 in rec.inputs)
        return loss

    monkeypatch.setattr(training, "reinforce_loss", loss_spy)
    with T.profile() as prof:
        reinforce_step(model, images, [[4, 5], [6]], opt, k=3, seed=1, step=1, max_len=12)
    # the loss reaches one W2 e_l matmul, and the whole step records no
    # other projection: its reshapes are the encoder's one and the
    # rollout projection's two, where a separate scoring pass would add two
    (rec,) = projections
    assert rec.name == "matmul"
    assert prof.records["reshape"] == 1 + 2


def test_reinforce_step_stops_before_backward_on_a_non_finite_loss():
    model = tiny_model(seed=3)
    model.params["dec.w3"].data[0, 0] = np.nan
    before = {k: p.data.copy() for k, p in model.params.items()}
    opt = Adam(model.params, lr=1e-3)
    images = np.random.default_rng(3).random((2, 1, 16, 24))
    with pytest.raises(DivergenceError, match="non-finite loss") as info:
        reinforce_step(model, images, [[4, 5], [6]], opt, k=2, seed=0, step=7, max_len=6)
    assert info.value.step == 7
    for name, arr in before.items():
        assert np.array_equal(model.params[name].data, arr, equal_nan=True), name


def test_reinforce_step_passes_the_input_feed_audit():
    model = tiny_model(seed=4)
    opt = Adam(model.params, lr=1e-4)
    audit = InputFeedAudit()
    images = np.random.default_rng(4).random((2, 1, 16, 24))
    reinforce_step(model, images, [[4, 5], [6]], opt, k=3, seed=1, step=1,
                   max_len=12, audit=audit)
    assert audit.steps_checked > 0
    assert audit.violations == 0


# ---------------------------------------------------------------------
# optimization behavior on a fixed batch
# ---------------------------------------------------------------------

def test_ten_fixed_batch_steps_never_increase_loss(corpus):
    batch, vocab = first_batch(corpus)
    cfg = model_config(len(vocab), d=8, d_emb=4, hidden=8,
                       attn_dim=8, out_dim=8, dropout=0.0, seed=6)
    model = Model(cfg, vocab.tokens)
    opt = Adam(model.params, lr=1e-3)
    losses = []
    for _ in range(10):
        loss, _ = mle_loss(model, batch.images, batch.seq, train=True)
        losses.append(loss.item())
        model.zero_grad()
        loss.backward()
        opt.step()
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-6


# ---------------------------------------------------------------------
# train() orchestration
# ---------------------------------------------------------------------

def test_train_runs_are_bit_identical(corpus, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = train(tiny_cfg(), corpus["manifest"], corpus["manifest"],
                       corpus["buckets"], str(out))
        assert result.steps_run == 3
        assert len(result.losses) == 3
        assert os.path.exists(result.best_path)
        assert os.path.exists(result.log_path)
        outs.append(out)
    for ckpt in ("best.ckpt", "last.ckpt"):
        assert (outs[0] / ckpt).read_bytes() == (outs[1] / ckpt).read_bytes()


def test_a_run_saves_last_ckpt_once_per_validation(corpus, tmp_path, monkeypatch):
    saved = []
    real_save = model_module.save_checkpoint

    def save_spy(path, meta, *rest):
        saved.append((os.path.relpath(path, tmp_path), meta["step"]))
        return real_save(path, meta, *rest)

    monkeypatch.setattr(model_module, "save_checkpoint", save_spy)
    args = (corpus["manifest"], corpus["manifest"], corpus["buckets"])
    first = train(tiny_cfg(steps=4, validate_every=2), *args, str(tmp_path / "a"))
    last = [step for path, step in saved if path == os.path.join("a", "last.ckpt")]
    assert last == [2, 4]
    # a resume at `steps` runs no step, so it saves both files once, after the loop
    saved.clear()
    train(tiny_cfg(steps=4), *args, str(tmp_path / "b"), resume=first.last_path)
    assert sorted(saved) == [(os.path.join("b", "best.ckpt"), 4),
                             (os.path.join("b", "last.ckpt"), 4)]


@pytest.fixture(scope="module")
def two_bucket_corpus(tmp_path_factory):
    """Seven images: three for a 24x16 bucket, three for a 40x24 one and
    one (48x48) that fits neither."""
    root = tmp_path_factory.mktemp("two_buckets")
    rng = np.random.default_rng(17)
    entries = []
    for i, shape in enumerate([(12, 20), (20, 36), (16, 24), (48, 48), (24, 40), (10, 18),
                               (18, 30)]):
        write_pgm(str(root / f"{i}.pgm"), rng.random(shape))
        entries.append((f"{i}.pgm", VOCAB[4:5 + i % 4]))
    write_manifest(str(root / "manifest.tsv"), entries)
    (root / "buckets.txt").write_text("24 16\n40 24\n")
    return {"manifest": str(root / "manifest.tsv"), "buckets": str(root / "buckets.txt")}


def test_training_steps_on_the_epochs_batches_padding_one_per_step(two_bucket_corpus,
                                                                   tmp_path, monkeypatch):
    c = two_bucket_corpus
    cfg = tiny_cfg(steps=8, batch_size=2, validate_every=4)
    # the reference materialises each epoch: every batch of its plan, in
    # the epoch's shuffled order, padded
    examples, buckets = load_dataset(c["manifest"]), load_buckets(c["buckets"])
    vocab = build_vocab([c["manifest"]])
    want = []
    for epoch in range(2):
        order = derive_rng(cfg["seed"], RNG_SHUFFLE, epoch).permutation(len(examples))
        plan, dropped = plan_batches([examples[i] for i in order], buckets, 2)
        assert dropped == 1 and len(plan) == 4
        want.extend(bucket_and_pad(planned, buckets, vocab) for planned in plan)

    stepped, pads, pads_at_line = [], [0], []
    real_loss, real_pad = training.mle_loss, data.pad_for_model

    def loss_spy(model, images, seq, **kw):
        stepped.append((images.copy(), seq.copy()))
        return real_loss(model, images, seq, **kw)

    def pad_spy(image, bks):
        pads[0] += 1
        return real_pad(image, bks)

    monkeypatch.setattr(training, "mle_loss", loss_spy)
    monkeypatch.setattr(data, "pad_for_model", pad_spy)
    train(cfg, c["manifest"], None, c["buckets"], str(tmp_path / "run"),
          log_fn=lambda line: pads_at_line.append(pads[0]))

    assert len(stepped) == len(want) == 8
    for (images, seq), batch in zip(stepped, want):
        assert images.dtype == batch.images.dtype and images.shape == batch.images.shape
        assert images.tobytes() == batch.images.tobytes()
        assert seq.dtype == batch.seq.dtype and np.array_equal(seq, batch.seq)
    # set-up pads nothing; each step pads its own batch, and each
    # validation (steps 4 and 8) pads the six examples that fit a bucket
    padded = np.diff([0] + pads_at_line) - [6 * (step % 4 == 0) for step in range(1, 9)]
    assert padded.tolist() == [len(batch.seq) for batch in want]
    assert padded.max() <= cfg["batch_size"]


def test_train_resume_is_bit_exact(corpus, tmp_path):
    whole = train(tiny_cfg(steps=6), corpus["manifest"], corpus["manifest"],
                  corpus["buckets"], str(tmp_path / "whole"))
    part = train(tiny_cfg(steps=3), corpus["manifest"], corpus["manifest"],
                 corpus["buckets"], str(tmp_path / "part"))
    resumed = train(tiny_cfg(steps=6), corpus["manifest"], corpus["manifest"],
                    corpus["buckets"], str(tmp_path / "resumed"),
                    resume=part.last_path)
    assert resumed.steps_run == 6
    with open(whole.last_path, "rb") as f:
        whole_bytes = f.read()
    with open(resumed.last_path, "rb") as f:
        resumed_bytes = f.read()
    assert whole_bytes == resumed_bytes


def rl_resume_runs(corpus, tmp_path, whole_steps, part_steps):
    """An rl run of whole_steps, and one of part_steps that is then
    resumed in its own directory to whole_steps; validate_every=2."""
    args = (corpus["manifest"], corpus["manifest"], corpus["buckets"])
    base = train(tiny_cfg(steps=1), *args, str(tmp_path / "mle"))
    whole = train(tiny_cfg(steps=whole_steps, validate_every=2), *args,
                  str(tmp_path / "whole"), phase="rl", init=base.last_path)
    part = train(tiny_cfg(steps=part_steps, validate_every=2), *args,
                 str(tmp_path / "part"), phase="rl", init=base.last_path)
    resumed = train(tiny_cfg(steps=whole_steps, validate_every=2), *args,
                    str(tmp_path / "part"), phase="rl", resume=part.last_path)
    assert resumed.steps_run == whole_steps
    return whole, resumed


def log_rows(result):
    with open(result.log_path, encoding="utf-8") as f:
        return [line.split("\t")[:4] for line in f]       # the last field is wall time


def test_rl_resume_after_a_scheduled_validation_is_byte_exact(corpus, tmp_path):
    whole, resumed = rl_resume_runs(corpus, tmp_path, whole_steps=4, part_steps=2)
    for name in ("best_path", "last_path"):
        with open(getattr(whole, name), "rb") as f, open(getattr(resumed, name), "rb") as g:
            assert f.read() == g.read(), name
    assert log_rows(whole) == log_rows(resumed)


def test_rl_resume_after_an_off_schedule_stop_keeps_parameters_and_optimizer(corpus,
                                                                             tmp_path):
    whole, resumed = rl_resume_runs(corpus, tmp_path, whole_steps=5, part_steps=3)
    a, b = load_checkpoint(whole.last_path), load_checkpoint(resumed.last_path)
    for arrays in ("params", "buffers"):
        x, y = getattr(a, arrays), getattr(b, arrays)
        assert x.keys() == y.keys() and all(np.array_equal(x[n], y[n]) for n in x)
    assert a.optimizer["step_count"] == b.optimizer["step_count"] == 5
    for moment in ("m", "v"):
        assert all(np.array_equal(a.optimizer[moment][n], b.optimizer[moment][n])
                   for n in a.optimizer[moment])
    # the stopped run validated at step 3, off the every-2 schedule, and
    # that validation is part of the resumed run's patience and best.ckpt
    assert log_rows(whole)[2][3] == "" and log_rows(resumed)[2][3] != ""


class Stop(Exception):
    pass


def test_a_run_stopped_between_validations_resumes_to_the_uninterrupted_log(
        corpus, tmp_path, capsys):
    args = (corpus["manifest"], corpus["manifest"], corpus["buckets"])
    cfg = tiny_cfg(steps=8, validate_every=5)
    whole = train(cfg, *args, str(tmp_path / "whole"))

    def stop_after_step_7(line):
        if line.startswith("7\t"):
            raise Stop

    out = str(tmp_path / "stopped")
    with pytest.raises(Stop):
        train(cfg, *args, out, log_fn=stop_after_step_7)
    stopped = os.path.join(out, "train_log.tsv")
    assert [row[0] for row in log_rows(SimpleNamespace(log_path=stopped))] == [
        "1", "2", "3", "4", "5", "6", "7"]
    assert load_checkpoint(os.path.join(out, "last.ckpt")).meta["step"] == 5
    capsys.readouterr()
    resumed = train(cfg, *args, out, resume=os.path.join(out, "last.ckpt"))
    # without the cut, the log would read steps 1-7, then 6, 7 and 8 again
    assert log_rows(resumed) == log_rows(whole)
    assert [row[0] for row in log_rows(whole)] == [str(s) for s in range(1, 9)]
    assert capsys.readouterr().err == (f"{stopped}: cut 2 rows after mle step 5, "
                                       "which the resumed run writes again\n")


def test_resume_refuses_a_log_without_the_checkpoints_step(corpus, tmp_path, capsys):
    args = (corpus["manifest"], corpus["manifest"], corpus["buckets"])
    part = train(tiny_cfg(steps=3), *args, str(tmp_path / "part"))
    log = tmp_path / "other" / "train_log.tsv"
    log.parent.mkdir()
    log.write_text("1\tmle\t2.0\t\t0.1\n2\tmle\t1.9\t\t0.2\n4\tmle\t1.8\t\t0.3\n")
    with pytest.raises(TrainError, match="has no row for mle step 3"):
        train(tiny_cfg(steps=6), *args, str(log.parent), resume=part.last_path)
    assert log.read_text().count("\n") == 3 and not (log.parent / "last.ckpt").exists()
    # with every row up to the step, nothing is cut and nothing said
    capsys.readouterr()
    resumed = train(tiny_cfg(steps=6), *args, str(tmp_path / "part"), resume=part.last_path)
    assert capsys.readouterr().err == ""
    assert [row[0] for row in log_rows(resumed)] == [str(s) for s in range(1, 7)]


def test_train_log_is_tab_separated(corpus, tmp_path):
    result = train(tiny_cfg(), corpus["manifest"], corpus["manifest"],
                   corpus["buckets"], str(tmp_path / "log"))
    with open(result.log_path, encoding="utf-8") as f:
        lines = [l.rstrip("\n") for l in f]
    assert len(lines) == 3
    for line in lines:
        step, phase, value, metric, wall = line.split("\t")
        assert phase == "mle"
        float(value), float(wall)
    assert lines[-1].split("\t")[3] != ""      # final step validates


def test_the_log_holds_the_exact_metric_that_best_ckpt_follows(tmp_path):
    # 6 mle steps, then 2 rl steps that validate twice, on 24 gen-data
    # images (seed 5): greedy BLEU ends up far below 1e-6, where six
    # decimals would log 0.000000 at both validations
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data), "--count", "24", "--seed", "5"]) == 0
    cfg = full_defaults()
    cfg.update(d=16, d_emb=8, hidden=16, attn_dim=16, out_dim=16, dtype="f32", lr=0.01,
               batch_size=4, patience=99, max_len=20, seed=5, k=2, steps=6, validate_every=6)
    args = (str(data / "manifest.tsv"), None, str(data / "buckets.txt"))
    mle = train(cfg, *args, str(tmp_path / "mle"))
    rl = train({**cfg, "steps": 2, "validate_every": 1}, *args, str(tmp_path / "rl"),
               phase="rl", init=mle.best_path)
    logged = [row[3] for row in log_rows(rl)]
    assert len(logged) == 2 and all(text == repr(float(text)) for text in logged)
    best = load_checkpoint(rl.best_path).meta["best_metric"]
    assert max(float(text) for text in logged) == rl.best_metric == best
    assert float(f"{best:.6f}") != best


def test_train_rl_requires_a_starting_checkpoint(corpus, tmp_path):
    with pytest.raises(TrainError, match="rl phase requires"):
        train(tiny_cfg(), corpus["manifest"], corpus["manifest"],
              corpus["buckets"], str(tmp_path / "rl"), phase="rl")


def test_train_rejects_unknown_phase(corpus, tmp_path):
    with pytest.raises(TrainError, match="unknown phase"):
        train(tiny_cfg(), corpus["manifest"], corpus["manifest"],
              corpus["buckets"], str(tmp_path / "x"), phase="sft")


def test_train_rejects_empty_manifest(corpus, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    with pytest.raises(TrainError, match="no training examples"):
        train(tiny_cfg(), str(empty), None, corpus["buckets"],
              str(tmp_path / "out"))


def test_train_rejects_dataset_with_no_fitting_bucket(corpus, tmp_path):
    buckets = tmp_path / "buckets.txt"
    buckets.write_text("8 8\n")
    with pytest.raises(TrainError, match="fits any bucket"):
        train(tiny_cfg(), corpus["manifest"], corpus["manifest"],
              str(buckets), str(tmp_path / "out"))


def test_train_raises_divergence_error_on_non_finite_loss(corpus, tmp_path):
    base = train(tiny_cfg(steps=1), corpus["manifest"], corpus["manifest"],
                 corpus["buckets"], str(tmp_path / "base"))
    model, _ = Model.load(base.last_path)
    w4 = model.params["dec.w4"].data
    w4[:] = np.finfo(w4.dtype).max      # finite, so the checkpoint loads
    poisoned = tmp_path / "poisoned.ckpt"
    model.save(str(poisoned))
    with pytest.raises(DivergenceError, match="non-finite loss") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        train(tiny_cfg(steps=2), corpus["manifest"], corpus["manifest"],
              corpus["buckets"], str(tmp_path / "out"), init=str(poisoned))
    assert info.value.step == 1


def test_rl_training_raises_divergence_error_on_non_finite_loss(corpus, tmp_path):
    base = train(tiny_cfg(steps=1), corpus["manifest"], corpus["manifest"],
                 corpus["buckets"], str(tmp_path / "base"))
    model, _ = Model.load(base.last_path)
    w4 = model.params["dec.w4"].data
    w4[:] = np.finfo(w4.dtype).max      # finite, so the checkpoint loads
    poisoned = tmp_path / "poisoned.ckpt"
    model.save(str(poisoned))
    with pytest.raises(DivergenceError, match="non-finite loss") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        train(tiny_cfg(steps=2), corpus["manifest"], corpus["manifest"],
              corpus["buckets"], str(tmp_path / "out"), phase="rl", init=str(poisoned))
    assert info.value.step == 1
    assert not (tmp_path / "out" / "last.ckpt").exists()


def test_rl_training_fails_on_a_misfed_rollout(corpus, tmp_path, monkeypatch):
    base = train(tiny_cfg(steps=1), corpus["manifest"], corpus["manifest"],
                 corpus["buckets"], str(tmp_path / "mle"))
    misfeed_rollouts(monkeypatch)
    with pytest.raises(TrainError, match=r"input-feed audit failed at step 1: [1-9]\d* of"):
        train(tiny_cfg(steps=2), corpus["manifest"], corpus["manifest"],
              corpus["buckets"], str(tmp_path / "rl"), phase="rl", init=base.last_path)


def test_a_resume_whose_first_step_fails_the_audit_leaves_its_log_uncut(corpus, tmp_path,
                                                                        monkeypatch):
    args = (corpus["manifest"], corpus["manifest"], corpus["buckets"])
    base = train(tiny_cfg(steps=1), *args, str(tmp_path / "mle"))
    out = tmp_path / "rl"
    train(tiny_cfg(steps=1), *args, str(out), phase="rl", init=base.last_path)
    step1 = tmp_path / "step1.ckpt"
    step1.write_bytes((out / "last.ckpt").read_bytes())
    train(tiny_cfg(steps=2), *args, str(out), phase="rl", resume=str(step1))
    # resuming step1 again would cut the log's step-2 row, but the audit
    # refuses the step first
    before = tree(tmp_path)
    misfeed_rollouts(monkeypatch)
    with pytest.raises(TrainError, match="input-feed audit failed at step 2"):
        train(tiny_cfg(steps=2), *args, str(out), phase="rl", resume=str(step1))
    assert tree(tmp_path) == before


def test_rl_audit_leaves_a_clean_run_unchanged(corpus, tmp_path, monkeypatch):
    base = train(tiny_cfg(steps=1), corpus["manifest"], corpus["manifest"],
                 corpus["buckets"], str(tmp_path / "mle"))
    audited = train(tiny_cfg(steps=2), corpus["manifest"], corpus["manifest"],
                    corpus["buckets"], str(tmp_path / "audited"), phase="rl",
                    init=base.last_path)
    real_step = training.reinforce_step
    seen = []

    def unaudited(*args, audit=None, **kwargs):
        seen.append(audit)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "reinforce_step", unaudited)
    plain = train(tiny_cfg(steps=2), corpus["manifest"], corpus["manifest"],
                  corpus["buckets"], str(tmp_path / "plain"), phase="rl",
                  init=base.last_path)
    assert len(seen) == 2 and all(isinstance(a, InputFeedAudit) for a in seen)
    assert all(a.violations == 0 for a in seen)
    with open(audited.last_path, "rb") as f, open(plain.last_path, "rb") as g:
        assert f.read() == g.read()
    logs = []
    for result in (audited, plain):
        with open(result.log_path, encoding="utf-8") as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
        assert all(len(row) == 5 for row in rows)
        logs.append([row[:4] for row in rows])      # the last field is wall time
    assert logs[0] == logs[1]
