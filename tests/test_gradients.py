"""Finite-difference checks for every differentiable op.

Each op is checked on 10 independently seeded instances.  The loss is
always (output * R).sum() with a fixed random cotangent R, so errors
that a plain sum would cancel still show up.  `GRADCHECKS` maps every
op name that tensor.py records on the tape to its check, and a test
fails when an op has none.
"""
import ast
import inspect

import numpy as np
import pytest

from img2latex import tensor as T
from gradcheck import assert_grads_close, fd_grad

SEEDS = range(10)


def _check(build, arrays, seed_label):
    """build(tensors...) -> scalar Tensor; FD-checks grad wrt every array."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for k, (t, a) in enumerate(zip(tensors, arrays)):
        def f():
            fresh = [T.Tensor(arr) for arr in arrays]
            return build(*fresh).item()
        assert t.grad is not None, f"{seed_label}: input {k} got no gradient"
        assert_grads_close(t.grad, fd_grad(f, a), label=f"{seed_label} input {k}")


def _proj(rng, shape):
    r = rng.standard_normal(shape)
    return lambda out: (out * T.Tensor(r)).sum()


@pytest.mark.parametrize("seed", SEEDS)
def test_add_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4,))
    loss = _proj(rng, (3, 4))
    _check(lambda x, y: loss(x + y), [a, b], f"add seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_multiply_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 1))
    loss = _proj(rng, (2, 3, 4))
    _check(lambda x, y: loss(x * y), [a, b], f"multiply seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_negative_and_sub(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5,))
    b = rng.standard_normal((5,))
    loss = _proj(rng, (5,))
    _check(lambda x, y: loss(T.add(x, T.negative(y))), [a, b], f"sub seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 2))
    loss = _proj(rng, (3, 2))
    _check(lambda x, y: loss(x @ y), [a, b], f"matmul seed={seed}")
    # one output column takes the outer-product VJP path; one row the general one
    col, row = rng.standard_normal((5, 1)), rng.standard_normal((1, 5))
    l_col, l_row = _proj(rng, (3, 1)), _proj(rng, (1, 2))
    _check(lambda x, y: l_col(x @ y), [a.copy(), col], f"matmul-col seed={seed}")
    _check(lambda x, y: l_row(x @ y), [row, b.copy()], f"matmul-row seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_concat(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 4))
    loss = _proj(rng, (2, 9))
    _check(lambda x, y, z: loss(T.concat([x, y, z], axis=1)), [a, b, c], f"concat seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_transpose(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3, 4))
    loss = _proj(rng, (4, 2, 3))
    _check(lambda x: loss(T.transpose(T.reshape(x, (2, 3, 4)), (2, 0, 1))),
           [a], f"reshape/transpose seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_repeat_rows(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    loss = _proj(rng, (9, 4))
    _check(lambda x: loss(T.repeat_rows(x, 3)), [a], f"repeat_rows seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_take_rows(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 3, 2))
    rows = rng.permutation(6)[:4]          # distinct, unsorted, two rows dropped
    loss = _proj(rng, (4, 3, 2))
    _check(lambda x: loss(T.take_rows(x, rows)), [a], f"take_rows seed={seed}")
    b = rng.standard_normal((5,))
    loss1 = _proj(rng, (2,))
    _check(lambda x: loss1(T.take_rows(x, [4, 1])), [b], f"take_rows 1-D seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_head_rows(seed):
    # take_rows with a row count: the head rows, as a view
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3, 2))
    loss = _proj(rng, (3, 3, 2))
    _check(lambda x: loss(T.take_rows(x, 3)), [a], f"take_rows prefix seed={seed}")
    b = rng.standard_normal((4, 3))
    loss2 = _proj(rng, (1, 3))
    _check(lambda x: loss2(T.take_rows(x, 1)), [b], f"take_rows prefix 2-D seed={seed}")
    # a prefix cut, then unsorted indices into it, then a dense use of the
    # cut: three gradients of one tensor added in place
    c = rng.standard_normal((6, 2))
    lc = _proj(rng, (4, 2))
    ld = _proj(rng, (2, 2))
    _check(lambda x: lc(T.take_rows(x, 4)) + ld(T.take_rows(T.take_rows(x, 4), [3, 1]))
           + (x * x).sum(), [c], f"take_rows chain seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_sum_mean(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4, 2))
    l1 = _proj(rng, (3, 2))
    l2 = _proj(rng, (4, 2))
    _check(lambda x: l1(T.reduce_mean(x, axis=1)), [a.copy()], f"mean-1 seed={seed}")
    _check(lambda x: l2(T.reduce_mean(x, axis=0)), [a.copy()], f"mean-0 seed={seed}")
    _check(lambda x: T.reduce_sum(x), [a.copy()], f"sum seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_slice_cols(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 7))
    loss = _proj(rng, (3, 4))
    _check(lambda x: loss(T.slice_cols(x, 2, 6)), [a], f"slice_cols seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("standard", [False, True])
def test_lstm_cell(seed, standard):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    h = rng.standard_normal((3, 5))
    c = rng.standard_normal((3, 5))
    w = rng.standard_normal((4 + 5, 4 * 5))
    b = rng.standard_normal(4 * 5)
    loss = _proj(rng, (3, 2 * 5))
    _check(lambda *a: loss(T.lstm_cell(*a, standard)), [x, h, c, w, b],
           f"lstm_cell standard={standard} seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_attention_scores(seed):
    rng = np.random.default_rng(seed)
    query = rng.standard_normal((2, 3))
    w1 = rng.standard_normal((3, 4))
    proj = rng.standard_normal((2, 5, 4))
    beta = rng.standard_normal(4)
    loss = _proj(rng, (2, 5))
    _check(lambda *a: loss(T.attention_scores(*a)), [query, w1, proj, beta],
           f"attention_scores seed={seed}")
    # one attention unit: the query projection takes the outer-product VJP
    one = [rng.standard_normal((2, 3)), rng.standard_normal((3, 1)),
           rng.standard_normal((2, 6, 1)), rng.standard_normal(1)]
    loss1 = _proj(rng, (2, 6))
    _check(lambda *a: loss1(T.attention_scores(*a)), one, f"attention_scores A=1 seed={seed}")
    # three query rows over memory rows [3, 0, 2] of four: unsorted, one
    # row never read, and a prefix of two rows
    query3 = rng.standard_normal((3, 3))
    proj4 = rng.standard_normal((4, 5, 4))
    loss3 = _proj(rng, (3, 5))
    _check(lambda q, w, p, b: loss3(T.attention_scores(q, w, p, b, [3, 0, 2])),
           [query3, w1, proj4, beta], f"attention_scores rows seed={seed}")
    _check(lambda q, w, p, b: loss(T.attention_scores(q, w, p, b, 2)),
           [query, w1, proj4, beta], f"attention_scores prefix seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_attention_context(seed):
    rng = np.random.default_rng(seed)
    alpha = rng.random((2, 5))
    entries = rng.standard_normal((2, 5, 3))
    loss = _proj(rng, (2, 3))
    _check(lambda a, e: loss(T.attention_context(a, e)), [alpha, entries],
           f"attention_context seed={seed}")
    # weight rows over memory rows [3, 0] of four, and a prefix of two
    memory = rng.standard_normal((4, 5, 3))
    _check(lambda a, e: loss(T.attention_context(a, e, [3, 0])), [alpha, memory],
           f"attention_context rows seed={seed}")
    _check(lambda a, e: loss(T.attention_context(a, e, 2)), [alpha, memory],
           f"attention_context prefix seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_relu(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 5))
    # keep inputs away from the kink so central differences are valid
    a = np.where(np.abs(a) < 0.05, 0.3, a)
    loss = _proj(rng, (4, 5))
    _check(lambda x: loss(T.relu(x)), [a], f"relu seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_sigmoid_tanh(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    l1 = _proj(rng, (3, 4))
    l2 = _proj(rng, (3, 4))
    _check(lambda x: l1(T.sigmoid(x)), [a.copy()], f"sigmoid seed={seed}")
    _check(lambda x: l2(T.tanh(x)), [a.copy()], f"tanh seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    loss = _proj(rng, (3, 5))
    _check(lambda x: loss(T.softmax(x)), [a], f"softmax seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_lookup(seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((7, 4))
    ids = rng.integers(0, 7, size=6)   # repeats exercise accumulation
    loss = _proj(rng, (6, 4))
    _check(lambda t: loss(T.embedding_lookup(t, ids)), [table], f"embedding seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 6))
    loss = _proj(rng, (4, 6))

    # re-seed inside the closure so every FD evaluation sees the same mask
    def build(x):
        return loss(T.dropout(x, 0.4, train=True, rng=np.random.default_rng(seed + 1000)))

    _check(build, [a], f"dropout seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((5, 7))
    targets = rng.integers(0, 7, size=5)
    r = rng.standard_normal(5)
    _check(lambda z: (T.cross_entropy(z, targets) * T.Tensor(r)).sum(),
           [logits], f"cross_entropy seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 6, 5))
    k = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    loss = _proj(rng, (2, 4, 6, 5))
    _check(lambda xx, kk, bb: loss(T.conv2d(xx, kk, bb)), [x, k, b], f"conv2d seed={seed}")
    # a one-row input: the top and bottom kernel rows read only padding
    x1 = rng.standard_normal((2, 3, 1, 4))
    loss1 = _proj(rng, (2, 4, 1, 4))
    _check(lambda xx, kk, bb: loss1(T.conv2d(xx, kk, bb)), [x1, k.copy(), b.copy()],
           f"conv2d-1x4 seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_constant_input_skips_dx(seed):
    # an input that needs no gradient (the image) gets no dx, and the
    # kernel and bias gradients are bit-equal to the full path's
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 6, 5))
    k = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    g = rng.standard_normal((2, 4, 6, 5))
    vjps = {}
    for x_grad in (True, False):
        out = T.conv2d(T.Tensor(x, requires_grad=x_grad), T.Tensor(k, requires_grad=True),
                       T.Tensor(b, requires_grad=True))
        vjps[x_grad] = out._op.backward_fn(g)
    assert vjps[True][0].shape == x.shape
    assert vjps[False][0] is None
    assert np.array_equal(vjps[False][1], vjps[True][1])
    assert np.array_equal(vjps[False][2], vjps[True][2])


@pytest.mark.parametrize("seed", SEEDS)
def test_maxpool2d(seed):
    rng = np.random.default_rng(seed)
    # distinct values with gaps far larger than h, so the argmax is stable
    n = 2 * 2 * 6 * 8
    x = (rng.permutation(n).astype(np.float64) / n).reshape(2, 2, 6, 8)
    loss = _proj(rng, (2, 2, 3, 4))
    _check(lambda xx: loss(T.maxpool2d(xx, (2, 2))), [x], f"maxpool seed={seed}")
    loss2 = _proj(rng, (2, 2, 6, 4))
    _check(lambda xx: loss2(T.maxpool2d(xx, (1, 2))), [x.copy()], f"maxpool-1x2 seed={seed}")
    # an odd size is floored: the last row and column get a zero gradient
    n = 2 * 2 * 7 * 9
    odd = (rng.permutation(n).astype(np.float64) / n).reshape(2, 2, 7, 9)
    loss3 = _proj(rng, (2, 2, 3, 4))
    _check(lambda xx: loss3(T.maxpool2d(xx, (2, 2))), [odd], f"maxpool-7x9 seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm2d(seed, train):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 2, 4, 5))
    gamma = rng.standard_normal(2) + 1.0
    beta = rng.standard_normal(2)
    rm0 = rng.standard_normal(2) * 0.1
    rv0 = rng.random(2) + 0.5
    loss = _proj(rng, (3, 2, 4, 5))

    def build(xx, gg, bb):
        # fresh running stats per evaluation: the op mutates them in place
        return loss(T.batchnorm2d(xx, gg, bb, rm0.copy(), rv0.copy(), train=train))

    _check(build, [x, gamma, beta], f"batchnorm train={train} seed={seed}")


def test_second_backward_rejected():
    w = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    with pytest.raises(T.TensorError, match="consumed"):
        loss.backward()


def test_grad_accumulates_across_uses():
    w = T.Tensor([2.0], requires_grad=True)
    loss = (w * w).sum() * 1.0 + w.sum() * 3.0   # d/dw = 2w + 3 = 7
    loss.backward()
    assert np.allclose(w.grad, [7.0])


# op name passed to tensor._record -> the finite-difference check above
GRADCHECKS = {
    "add": test_add_broadcast,
    "multiply": test_multiply_broadcast,
    "negative": test_negative_and_sub,
    "matmul": test_matmul,
    "concat": test_concat,
    "reshape": test_reshape_transpose,
    "transpose": test_reshape_transpose,
    "repeat_rows": test_repeat_rows,
    "take_rows": test_take_rows,
    "slice_cols": test_slice_cols,
    "sum": test_reduce_sum_mean,
    "mean": test_reduce_sum_mean,
    "relu": test_relu,
    "sigmoid": test_sigmoid_tanh,
    "tanh": test_sigmoid_tanh,
    "softmax": test_softmax,
    "lstm_cell": test_lstm_cell,
    "attention_scores": test_attention_scores,
    "attention_context": test_attention_context,
    "embedding_lookup": test_embedding_lookup,
    "dropout": test_dropout,
    "cross_entropy": test_cross_entropy,
    "conv2d": test_conv2d,
    "maxpool2d": test_maxpool2d,
    "batchnorm2d": test_batchnorm2d,
}


def recorded_op_names() -> list[str]:
    """The name argument of every `_record(...)` call in tensor.py.

    Read from the syntax tree, so a call whose arguments span several
    lines counts like any other.
    """
    tree = ast.parse(inspect.getsource(T))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
            arg = node.args[0]
            assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), (
                f"tensor.py line {node.lineno}: _record's op name must be a string literal")
            names.append(arg.value)
    return names


def test_every_recorded_op_has_a_gradient_check():
    names = recorded_op_names()
    assert "multiply" in names          # its _record( call spans two lines
    assert sorted(set(names) - set(GRADCHECKS)) == []
    assert sorted(set(GRADCHECKS) - set(names)) == []
    for check in GRADCHECKS.values():
        assert globals()[check.__name__] is check
