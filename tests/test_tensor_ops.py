"""Forward-value and contract tests for the autodiff ops.

Gradient correctness lives in test_gradients; here every op's forward
output is checked against an independent reference (explicit loops or
closed-form numpy), plus shape/type error contracts and tape semantics.
"""
import tracemalloc

import numpy as np
import pytest

import img2latex.tensor as T
from img2latex.tensor import ShapeError, Tensor, TensorError, no_grad


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------
# elementwise and structural
# ---------------------------------------------------------------------

def test_add_broadcasts_like_numpy():
    a = rng(1).normal(size=(3, 4))
    b = rng(2).normal(size=(4,))
    out = T.add(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, a + b)


def test_add_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((3, 4))), Tensor(np.ones((5,))))


def test_multiply_matches_numpy():
    a = rng(3).normal(size=(2, 3))
    b = rng(4).normal(size=(2, 3))
    assert np.array_equal(T.multiply(Tensor(a), Tensor(b)).data, a * b)


def test_matmul_is_strict_2d():
    a = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.matmul(a, Tensor(np.ones((2, 3, 4))))
    with pytest.raises(ShapeError):
        T.matmul(a, Tensor(np.ones((4, 2))))


def test_matmul_value():
    a = rng(5).normal(size=(3, 4))
    b = rng(6).normal(size=(4, 2))
    assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)


def test_concat_values_and_axis():
    a = rng(7).normal(size=(2, 3))
    b = rng(8).normal(size=(2, 5))
    out = T.concat([Tensor(a), Tensor(b)], axis=1)
    assert np.array_equal(out.data, np.concatenate([a, b], axis=1))


@pytest.mark.parametrize("shapes,axis", [([(2, 3), (3, 5)], 1), ([(2, 3), (2,)], 0),
                                          ([(2, 3), (2, 3)], 2), ([(), ()], 0)])
def test_concat_shape_mismatch_names_the_shapes(shapes, axis):
    with pytest.raises(ShapeError) as err:
        T.concat([Tensor(np.zeros(s)) for s in shapes], axis=axis)
    assert f"concat: shapes {shapes} differ off axis {axis}" in str(err.value)


def test_reshape_and_transpose_roundtrip():
    a = rng(9).normal(size=(2, 3, 4))
    out = T.transpose(T.reshape(Tensor(a), (6, 4)), (1, 0))
    assert np.array_equal(out.data, a.reshape(6, 4).T)


def test_repeat_rows_tiles_each_row():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.repeat_rows(Tensor(a), 3)
    assert np.array_equal(out.data, np.repeat(a, 3, axis=0))


def test_take_rows_gathers_and_scatters_back():
    a = rng(11).normal(size=(5, 2, 3))
    x = Tensor(a, requires_grad=True)
    out = T.take_rows(x, [3, 0, 4])
    assert np.array_equal(out.data, a[[3, 0, 4]])
    T.reduce_sum(out * Tensor(np.arange(18.0).reshape(3, 2, 3))).backward()
    expect = np.zeros_like(a)
    expect[[3, 0, 4]] = np.arange(18.0).reshape(3, 2, 3)
    assert np.array_equal(x.grad, expect)
    assert T.take_rows(x, []).shape == (0, 2, 3)


@pytest.mark.parametrize("rows", [[0, 0], [5], [-1], [[0, 1]]])
def test_take_rows_rejects_repeated_or_bad_indices(rows):
    with pytest.raises(ShapeError, match="take_rows"):
        T.take_rows(Tensor(np.zeros((5, 2))), rows)


def test_head_rows_is_a_view_and_pads_the_gradient():
    # take_rows with a row count takes the head rows as a view
    a = rng(12).normal(size=(4, 2, 3))
    x = Tensor(a, requires_grad=True)
    out = T.take_rows(x, 2)
    assert np.array_equal(out.data, a[:2])
    assert np.shares_memory(out.data, x.data)
    T.reduce_sum(out * Tensor(np.arange(12.0).reshape(2, 2, 3))).backward()
    expect = np.zeros_like(a)
    expect[:2] = np.arange(12.0).reshape(2, 2, 3)
    assert np.array_equal(x.grad, expect)
    assert T.take_rows(x, 4).shape == (4, 2, 3)
    assert not hasattr(T, "head_rows")


@pytest.mark.parametrize("n", [0, -1, 5])
def test_head_rows_rejects_counts_outside_one_to_rows(n):
    with pytest.raises(ShapeError, match="take_rows: a prefix of"):
        T.take_rows(Tensor(np.zeros((4, 2))), n)


@pytest.mark.parametrize("rows", [2, np.int64(2)])
def test_a_prefix_of_other_than_the_attending_rows_is_refused(rows):
    alpha, entries = Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4, 2)))
    with pytest.raises(ShapeError, match="3 rows attend but 2 memory rows are picked"):
        T.attention_context(alpha, entries, rows)
    assert T.attention_context(alpha, entries, type(rows)(3)).shape == (3, 2)


def zero_padded_cut(a, index):
    """A row or column cut whose VJP scatters g into zeros of the input's
    shape, which backward then adds like any gradient: the rule before
    VJPs could return the gradient of a cut alone."""
    shape = a.shape

    def bwd(g):
        da = np.zeros(shape, dtype=g.dtype)
        da[index] = g
        return (da,)

    return T._record("zero_padded_cut", Tensor(a.data[index]), (a,), bwd)


def random_cut_program(seed):
    """A random chain over one (8, 5) leaf: each op either cuts an earlier
    tensor (a row prefix, distinct unsorted rows, or a column range) or
    uses it densely, with a cotangent holding zeros of both signs."""
    r = np.random.default_rng(seed)
    shapes, ops = [(8, 5)], []
    for _ in range(int(r.integers(4, 14))):
        src = int(r.integers(len(shapes)))
        n, m = shapes[src]
        kind = r.choice(["prefix", "rows", "cols", "dense"])
        if kind == "prefix" and n > 0:
            k = int(r.integers(1, n + 1))
            ops.append((src, "prefix", k))
            shapes.append((k, m))
        elif kind == "rows":
            rows = r.permutation(n)[:int(r.integers(0, n + 1))]
            ops.append((src, "rows", rows))
            shapes.append((rows.size, m))
        elif kind == "cols" and m > 1:
            start = int(r.integers(0, m - 1))
            stop = int(r.integers(start + 1, m + 1))
            ops.append((src, "cols", (start, stop)))
            shapes.append((n, stop - start))
        else:
            cot = r.standard_normal((n, m))
            cot[r.random((n, m)) < 0.3] = 0.0
            cot[r.random((n, m)) < 0.2] = -0.0
            ops.append((src, "dense", cot))
    return ops


def run_cut_program(ops, leaf_data, indexed):
    leaf = Tensor(leaf_data.copy(), requires_grad=True)
    tensors, terms = [leaf], []
    for src, kind, arg in ops:
        a = tensors[src]
        if kind == "dense":
            terms.append((a * Tensor(arg.astype(a.dtype))).sum())
        elif indexed:
            tensors.append(T.slice_cols(a, *arg) if kind == "cols" else T.take_rows(a, arg))
        else:
            index = {"prefix": lambda: slice(0, arg), "rows": lambda: arg,
                     "cols": lambda: (slice(None), slice(*arg))}[kind]()
            tensors.append(zero_padded_cut(a, index))
    # every cut is also used once, last, so each gets a gradient
    loss = sum(terms[1:], terms[0]) if terms else (leaf * 0.0).sum()
    for t in tensors[1:]:
        loss = loss + (t * t).sum()
    loss.backward()
    return leaf.grad


@pytest.mark.parametrize("seed", range(40))
def test_indexed_cut_gradients_equal_zero_padding_then_adding(seed):
    ops = random_cut_program(seed)
    dtype = np.float32 if seed % 2 else np.float64
    leaf = np.random.default_rng(1000 + seed).standard_normal((8, 5)).astype(dtype)
    got = run_cut_program(ops, leaf, indexed=True)
    want = run_cut_program(ops, leaf, indexed=False)
    assert got.dtype == want.dtype == dtype
    # byte for byte, but for the sign of a zero: adding +0.0 maps -0.0
    # to +0.0 and leaves every other value as it is
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_reductions_match_numpy():
    a = rng(10).normal(size=(3, 4, 5))
    assert np.allclose(T.reduce_mean(Tensor(a), axis=1).data, a.mean(axis=1))
    assert np.allclose(T.reduce_mean(Tensor(a), axis=2).data, a.mean(axis=2))
    assert np.allclose(T.reduce_sum(Tensor(a)).data, a.sum())
    assert np.allclose(Tensor(a).sum().data, a.sum())


# ---------------------------------------------------------------------
# activations and probability ops
# ---------------------------------------------------------------------

def test_activations_match_closed_forms():
    x = np.linspace(-4, 4, 23).reshape(1, 23)
    assert np.array_equal(T.relu(Tensor(x)).data, np.maximum(x, 0))
    assert np.allclose(T.sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)), atol=1e-15)
    assert np.allclose(T.tanh(Tensor(x)).data, np.tanh(x), atol=1e-15)


def test_softmax_rows_are_distributions():
    z = rng(11).normal(size=(4, 7)) * 10
    p = T.softmax(Tensor(z)).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p >= 0).all()
    # invariant under row-wise shift
    p2 = T.softmax(Tensor(z + 100.0)).data
    assert np.allclose(p, p2, atol=1e-12)


def test_cross_entropy_equals_logsumexp_form():
    z = rng(12).normal(size=(5, 9)) * 3
    t = rng(13).integers(0, 9, size=5)
    got = T.cross_entropy(Tensor(z), t).data
    lse = np.log(np.exp(z).sum(axis=1))
    want = lse - z[np.arange(5), t]
    assert np.allclose(got, want, atol=1e-12)


def test_cross_entropy_target_shape_checked():
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor(np.zeros((3, 4))), np.zeros(5, dtype=int))


def test_embedding_lookup_gathers_rows():
    table = rng(14).normal(size=(6, 3))
    ids = np.array([4, 0, 4, 2])
    out = T.embedding_lookup(Tensor(table), ids)
    assert np.array_equal(out.data, table[ids])


def test_dropout_eval_is_identity_train_scales():
    x = np.ones((100, 50))
    out_eval = T.dropout(Tensor(x), 0.4, train=False, rng=None)
    assert np.array_equal(out_eval.data, x)
    out_train = T.dropout(Tensor(x), 0.4, train=True, rng=rng(15)).data
    kept = out_train != 0
    # inverted dropout: survivors scaled by 1/(1-rate)
    assert np.allclose(out_train[kept], 1.0 / 0.6)
    assert abs(kept.mean() - 0.6) < 0.03


def test_dropout_rate_zero_is_identity_in_train():
    x = rng(16).normal(size=(4, 4))
    out = T.dropout(Tensor(x), 0.0, train=True, rng=rng(0))
    assert np.array_equal(out.data, x)


# ---------------------------------------------------------------------
# image ops against loop references
# ---------------------------------------------------------------------

def conv2d_loops(x, k, bias):
    """3x3 convolution, stride 1, zero padding 1, by explicit loops."""
    B, C, H, W = x.shape
    O = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((B, O, H, W))
    for b in range(B):
        for o in range(O):
            for i in range(H):
                for j in range(W):
                    out[b, o, i, j] = (xp[b, :, i:i + 3, j:j + 3] * k[o]).sum() + bias[o]
    return out


@pytest.mark.parametrize("shape", [(2, 3, 6, 7), (2, 3, 1, 1), (1, 3, 2, 1)],
                         ids=["6x7", "1x1", "2x1"])
def test_conv2d_matches_loop_reference(shape):
    x = rng(17).normal(size=shape)
    k = rng(18).normal(size=(4, 3, 3, 3))
    b = rng(19).normal(size=(4,))
    got = T.conv2d(Tensor(x), Tensor(k), Tensor(b))
    assert np.allclose(got.data, conv2d_loops(x, k, b), atol=1e-12)
    assert got.data.flags.c_contiguous


def padded_conv2d_reference(x, k, bias, g):
    """conv2d forward and VJP over a zero-padded copy of x: im2col from the
    padded input, col2im into a padded dx that is then cropped.  Returns
    (out, dx, dk, db); conv2d must reproduce every byte."""
    B, C, H, W = x.shape
    O = k.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((B, C, 3, 3, H, W), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[:, :, i:i + H, j:j + W]
    cols = cols.reshape(B, C * 9, H * W)
    wmat = k.reshape(O, C * 9)
    y = np.matmul(wmat, cols)
    y += bias[:, None]
    g3 = g.reshape(B, O, H * W)
    dk = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(O, C, 3, 3)
    dcols = np.matmul(wmat.T, g3).reshape(B, C, 3, 3, H, W)
    dxp = np.zeros((B, C, H + 2, W + 2), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            dxp[:, :, i:i + H, j:j + W] += dcols[:, :, i, j]
    return (y.reshape(B, O, H, W), dxp[:, :, 1:1 + H, 1:1 + W], dk,
            g.sum(axis=(0, 2, 3)))


# (x shape, output channels): odd sizes, and inputs of one or two pixels
# along an axis, where some (i, j) planes read nothing but padding
CONV_CASES = {
    "7x9": ((2, 3, 7, 9), 4),
    "8x5": ((2, 3, 8, 5), 4),
    "5x6": ((3, 2, 5, 6), 3),
    "4x3": ((2, 1, 4, 3), 2),
    "1x1": ((2, 2, 1, 1), 3),
    "2x1": ((2, 2, 2, 1), 3),
    "1x2": ((1, 2, 1, 2), 3),
    # x needs no gradient, as the encoder's image does: dx is None, and
    # dk must still match
    "7x9-constant-x": ((2, 3, 7, 9), 4),
    # eight images and a cotangent of tied values and -0.0 (one output
    # channel is -0.0 in every image), which pins the order dk sums the
    # images' products in
    "8-images-ties": ((8, 3, 5, 6), 4),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv2d_is_byte_identical_to_the_padded_reference(case, dtype):
    xshape, out_channels = CONV_CASES[case]
    kshape = (out_channels, xshape[1], 3, 3)
    seed = sum(xshape + kshape)
    x = rng(seed).normal(size=xshape).astype(dtype)
    k = rng(seed + 1).normal(size=kshape).astype(dtype)
    b = rng(seed + 2).normal(size=kshape[:1]).astype(dtype)
    x_grad = not case.endswith("constant-x")
    out = T.conv2d(Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=True),
                   Tensor(b, requires_grad=True))
    if case.endswith("ties"):
        g = rng(seed + 3).integers(-2, 3, size=out.shape).astype(dtype) / 2
        g[g == 0] = -0.0
        g[:, 1] = -0.0
    else:
        g = rng(seed + 3).normal(size=out.shape).astype(dtype)
    want = padded_conv2d_reference(x, k, b, g)
    got = (out.data,) + out._op.backward_fn(g)
    assert (got[1] is None) == (not x_grad)
    for name, a, w in zip(("out", "dx", "dk", "db"), got, want):
        if name == "dx" and not x_grad:
            continue
        assert a.dtype == w.dtype == dtype and a.shape == w.shape, name
        assert a.tobytes() == w.tobytes(), name


def test_conv2d_keeps_no_column_buffer():
    # while the output lives, its record may hold x, the kernel and small
    # tables, but no (B, C*9, H*W) column buffer: 2.8 MB here, against an
    # output of 315 kB
    x = Tensor(rng(26).normal(size=(4, 32, 14, 44)).astype(np.float32), requires_grad=True)
    k = Tensor(rng(27).normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, k, b)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._op is not None
    assert kept <= out.data.nbytes + 32 * 1024, (kept, out.data.nbytes)


def test_conv2d_builds_its_block_table_once_per_input_size():
    T._conv_blocks.cache_clear()
    k, b = Tensor(rng(28).normal(size=(2, 3, 3, 3))), Tensor(np.zeros(2))
    for shape in [(1, 3, 8, 16), (2, 3, 8, 16), (1, 3, 16, 8), (1, 3, 8, 16)]:
        x = Tensor(rng(29).normal(size=shape), requires_grad=True)
        T.conv2d(x, k, b).sum().backward()
    info = T._conv_blocks.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    # one table entry per kernel tap, in (i, j) order; a 1-wide input
    # reads only padding at the side taps
    assert [tap for tap, _ in T._conv_blocks(8, 1)] == [(i, j) for i in range(3)
                                                         for j in range(3)]
    assert [block is None for _, block in T._conv_blocks(8, 1)] == [True, False, True] * 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_dx_is_contiguous_with_the_input_shape_and_dtype(dtype):
    x = Tensor(rng(24).normal(size=(2, 3, 7, 6)).astype(dtype), requires_grad=True)
    k = Tensor(rng(25).normal(size=(4, 3, 3, 3)).astype(dtype))
    b = Tensor(np.zeros(4, dtype=dtype))
    out = T.conv2d(x, k, b)
    dx, _, _ = out._op.backward_fn(np.ones_like(out.data))
    assert dx.shape == x.shape and dx.dtype == dtype
    assert dx.flags.c_contiguous


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((1, 3, 8, 8))), Tensor(np.ones((2, 4, 3, 3))),
                 Tensor(np.zeros(2)))


@pytest.mark.parametrize("kshape,bshape", [((2, 3, 1, 1), (2,)), ((2, 3, 5, 5), (2,)),
                                           ((2, 3, 3, 3), (3,))])
def test_conv2d_takes_only_a_3x3_kernel_and_its_bias(kshape, bshape):
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.ones((1, 3, 8, 8))), Tensor(np.ones(kshape)), Tensor(np.zeros(bshape)))


def maxpool_loops(x, kh, kw):
    B, C, H, W = x.shape
    Ho, Wo = H // kh, W // kw
    out = np.zeros((B, C, Ho, Wo))
    for i in range(Ho):
        for j in range(Wo):
            out[:, :, i, j] = x[:, :, i * kh:i * kh + kh, j * kw:j * kw + kw].max(axis=(2, 3))
    return out


@pytest.mark.parametrize("kernel", [(2, 2), (2, 1), (1, 2)])
def test_maxpool2d_matches_loop_reference(kernel):
    for shape in ((2, 3, 6, 8), (2, 3, 7, 9)):     # 7x9: floored, not padded
        x = rng(20).normal(size=shape)
        got = T.maxpool2d(Tensor(x), kernel)
        assert np.array_equal(got.data, maxpool_loops(x, *kernel))
        assert got.data.flags.c_contiguous


def test_maxpool2d_ties_route_gradient_to_first_max():
    # the left window is all zero, as after a ReLU; the right one has two
    # equal maxima, at (0, 1) and (1, 0).  Each window's gradient goes to
    # its first maximal element in (i, j) order; the others get +0.0, also
    # under a negative gradient
    x = np.array([[[[0.0, 0.0, 1.0, 3.0],
                    [0.0, 0.0, 3.0, 2.0]]]])
    out = T.maxpool2d(Tensor(x, requires_grad=True), (2, 2))
    (dx,) = out._op.backward_fn(np.array([[[[-5.0, 7.0]]]]))
    assert np.array_equal(out.data, [[[[0.0, 3.0]]]])
    assert dx.tobytes() == np.array([[[[-5.0, 0.0, 0.0, 7.0],
                                       [0.0, 0.0, 0.0, 0.0]]]]).tobytes()


def relu_pool_pair(x, kernel, r):
    """Forward bytes of relu(maxpool(x)) and maxpool(relu(x)), and the
    gradient of sum(out * r) with respect to x in each order."""
    results = []
    for order in ((T.maxpool2d, T.relu), (T.relu, T.maxpool2d)):
        leaf = Tensor(x.copy(), requires_grad=True)
        out = leaf
        for op in order:
            out = op(out, kernel) if op is T.maxpool2d else op(out)
        T.reduce_sum(out * Tensor(r)).backward()
        results.append((out.data.tobytes(), leaf.grad))
    return results


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [(2, 2), (1, 2), (2, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_relu_commutes_with_maxpool_bit_for_bit(seed, kernel, dtype):
    # few distinct values, so windows hold positive plateaus (tied maxima),
    # +-0.0 and ties among negatives; 7x9 is floored by every kernel but 1
    r = rng(100 + seed)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], dtype=dtype)
    for shape in ((3, 2, 6, 8), (3, 2, 7, 9)):
        x = r.choice(values, size=shape)
        x[0, 0] = -r.integers(1, 3, size=shape[2:])           # all-negative windows
        x[0, 1] = -0.0 * r.integers(0, 2, size=shape[2:])     # +-0.0 only
        x[1, 0] = 2.0                                         # positive plateaus
        g = r.normal(size=(shape[0], shape[1], shape[2] // kernel[0],
                           shape[3] // kernel[1])).astype(dtype)
        (fwd_new, dx_new), (fwd_old, dx_old) = relu_pool_pair(x, kernel, g)
        assert fwd_new == fwd_old
        assert dx_new.dtype == dx_old.dtype == dtype
        assert np.array_equal(dx_new, dx_old)


def test_batchnorm2d_train_normalizes_batch():
    x = rng(21).normal(size=(4, 3, 5, 6)) * 3 + 2
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    rm = np.zeros(3)
    rv = np.ones(3)
    out = T.batchnorm2d(Tensor(x), gamma, beta, rm, rv, momentum=0.1, train=True)
    assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)
    # running stats moved toward batch stats by momentum
    assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)


def test_batchnorm2d_eval_uses_running_stats():
    x = rng(22).normal(size=(2, 2, 3, 3))
    rm = np.array([1.0, -1.0])
    rv = np.array([4.0, 0.25])
    out = T.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm.copy(), rv.copy(), train=False, eps=0.0)
    want = (x - rm[None, :, None, None]) / np.sqrt(rv)[None, :, None, None]
    assert np.allclose(out.data, want, atol=1e-12)


def test_batchnorm2d_eval_leaves_running_stats_alone():
    rm = np.zeros(2)
    rv = np.ones(2)
    T.batchnorm2d(Tensor(rng(23).normal(size=(2, 2, 3, 3))), Tensor(np.ones(2)),
                  Tensor(np.zeros(2)), rm, rv, train=False)
    assert np.array_equal(rm, np.zeros(2))
    assert np.array_equal(rv, np.ones(2))


# ---------------------------------------------------------------------
# tape and dtype semantics
# ---------------------------------------------------------------------

def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(TensorError):
        (x + 1.0).backward()


def test_second_backward_rejected():
    x = Tensor(np.ones(1), requires_grad=True)
    y = T.reduce_sum(x * 2.0)
    y.backward()
    with pytest.raises(TensorError):
        y.backward()


def test_grad_accumulates_across_uses():
    w = Tensor(np.array([2.0]), requires_grad=True)
    y = T.reduce_sum(w * 2.0 + w * 3.0)
    y.backward()
    assert np.allclose(w.grad, [5.0])


def test_reused_gradient_sum_is_bit_equal_and_leaves_vjp_outputs_alone():
    # x feeds four ops.  Backward visits them latest first, so x.grad must
    # be ((g_add + g2) + g1) + g0, bit for bit.  add hands one array to
    # both x and y; summing into x.grad must not change y.grad.
    r = rng(7)
    x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    c = [r.normal(size=(3, 4)) for _ in range(3)]
    w = [r.normal(size=(3, 4)) for _ in range(4)]
    terms = [x * Tensor(ck) for ck in c] + [x + y]
    loss = T.reduce_sum(terms[0] * Tensor(w[0]))
    for t, wk in zip(terms[1:], w[1:]):
        loss = loss + T.reduce_sum(t * Tensor(wk))
    loss.backward()
    expected = w[3] + w[2] * c[2]
    expected = expected + w[1] * c[1]
    expected = expected + w[0] * c[0]
    assert x.grad.tobytes() == expected.tobytes()
    assert y.grad.tobytes() == w[3].tobytes()


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y._op is None and not y.requires_grad


def test_profile_counts_tape_records_only_while_active():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with T.profile() as prof:
        y = T.tanh(x * 2.0)
        with no_grad():
            T.tanh(x)
        loss = T.reduce_sum(y)
    T.tanh(x)
    assert T._profile is None
    assert prof.records == {"multiply": 1, "tanh": 1, "sum": 1}
    assert prof.out_bytes == {"multiply": 48, "tanh": 48, "sum": 8}
    assert not prof.vjp_s
    with prof:
        loss.backward()
    assert sorted(prof.vjp_s) == ["multiply", "sum", "tanh"]
    assert all(s >= 0.0 for s in prof.vjp_s.values())


def test_float32_flows_through_ops():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = T.reduce_sum(T.tanh(x @ Tensor(np.ones((2, 2), dtype=np.float32))))
    assert y.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32
    img = Tensor(np.ones((1, 2, 4, 5), dtype=np.float32), requires_grad=True)
    k = Tensor(np.ones((3, 2, 3, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    conv = T.conv2d(img, k, b)
    pooled = T.maxpool2d(conv, (2, 2))
    assert conv.dtype == pooled.dtype == np.float32
    T.reduce_sum(pooled).backward()
    assert img.grad.dtype == k.grad.dtype == b.grad.dtype == np.float32
    rows = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
    taken = T.take_rows(rows, [2, 0])
    assert taken.dtype == np.float32
    T.reduce_sum(taken).backward()
    assert rows.grad.dtype == np.float32
    head = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
    kept = T.take_rows(head, 2)
    assert kept.dtype == np.float32
    T.reduce_sum(kept).backward()
    assert head.grad.dtype == np.float32


def test_int_input_promotes_to_float64():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float64
