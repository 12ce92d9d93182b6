"""Minimal reverse-mode autodiff engine on top of numpy.

Every differentiable operation the model needs lives here: elementwise
arithmetic, matmul, conv2d/maxpool2d/batchnorm2d, activations, softmax,
embedding lookup, dropout, cross entropy, and the decoder's fused LSTM
layer and attention scoring.  Each op records itself on
the implicit tape (one `_OpRecord` per executed op, in execution order);
`backward()` replays the records in reverse and accumulates gradients
into every tensor that requires them.

Dtype contract: an op computes in the dtype of its floating inputs and
returns that dtype, and every VJP returns gradients in the dtype of the
input it differentiates.  A float32 model therefore runs its forward
pass, its backward pass and its parameter gradients in float32 from end
to end, provided callers build masks, weights and constants in the
model dtype (a float64 operand promotes everything downstream of it).
Float64 is the default dtype and is what the gradient checks run in.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections import Counter

import numpy as np


class TensorError(Exception):
    """Base error for the numeric core."""


class ShapeError(TensorError):
    """Operands do not conform; message names the op and the shapes."""


_grad_enabled = True
_profile = None
_op_counter = itertools.count()
_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class profile:
    """Context manager that profiles the tape per op name.

    While one is active, each tape record adds 1 to `records[name]` and
    its output's size to `out_bytes[name]` (ops run under no_grad, which
    record nothing, are not counted), and `backward` adds the seconds
    each record's VJP takes to `vjp_s[name]`.  Profiles do not nest: an
    inner one takes over until it exits.  When none is active, `_record`
    and `backward` pay one `is None` check per record.

        with T.profile() as prof:
            loss = model_loss(...)
            loss.backward()
        prof.vjp_s.most_common(5)
    """

    def __init__(self):
        self.records = Counter()
        self.out_bytes = Counter()
        self.vjp_s = Counter()

    def __enter__(self):
        global _profile
        self._prev = _profile
        _profile = self
        return self

    def __exit__(self, *exc):
        global _profile
        _profile = self._prev
        return False


class _OpRecord:
    """One executed differentiable op: inputs, output and its vjp."""

    __slots__ = ("seq", "name", "inputs", "out", "backward_fn", "consumed")

    def __init__(self, name, inputs, out, backward_fn):
        self.seq = next(_op_counter)
        self.name = name
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn
        self.consumed = False


class Tensor:
    """N-dimensional real array with optional gradient accumulation."""

    __slots__ = ("data", "requires_grad", "grad", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # np.asarray of an ndarray with no dtype is the array itself; skip
        # the call, since every op output passes through here
        arr = data if dtype is None and type(data) is np.ndarray else np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._op = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return multiply(self, _as_tensor(other, self.dtype))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return reduce_sum(self)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from loss.

    The records that produced loss are replayed in reverse execution
    order, so every op is visited once.  Intermediate tensors only hold
    their gradient transiently; the graph is torn down record by record
    as it is consumed, so backward may run only once per forward pass.

    A VJP returns per input None, a gradient of the input's shape, or
    (runs, g) for a cut: per run (src, dst), g[dst] is the gradient of
    input.data[src] alone.  backward adds each run, as a slice, into a
    full-shape buffer it owns (+0.0 elsewhere), so no VJP zero-pads a
    cut.  When no two runs read the same input element, the first
    gradient assigns them, and only the sign of a zero can differ from
    zero-padding; runs that overlap, as several copies reading one
    attention memory do, are added into zeros in run order.
    """
    if loss.size != 1:
        raise TensorError(f"backward requires a scalar loss, got shape {loss.shape}")
    records = []
    seen = set()
    stack = [loss]
    while stack:
        rec = stack.pop()._op
        if rec is None or id(rec) in seen:
            continue
        if rec.consumed:
            raise TensorError("tape already consumed; backward may run only once per forward pass")
        seen.add(id(rec))
        records.append(rec)
        stack.extend(rec.inputs)
    records.sort(key=lambda r: r.seq)
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    # A tensor's first gradient may alias a VJP output (or a view of one),
    # so it is never written to.  The second allocates a sum that backward
    # owns; later ones are added into that buffer in place, in the same
    # order, so the result is bit-equal to the out-of-place sum.
    owned: dict[int, np.ndarray] = {}
    prof = _profile
    for rec in reversed(records):
        rec.consumed = True
        out_grad = rec.out.grad
        owned.pop(id(rec.out), None)
        if out_grad is not None:
            if prof is None:
                grads = rec.backward_fn(out_grad)
            else:
                start = time.perf_counter()
                grads = rec.backward_fn(out_grad)
                prof.vjp_s[rec.name] += time.perf_counter() - start
            for inp, g in zip(rec.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                acc = inp.grad
                if type(g) is tuple:
                    runs, g = g
                    if acc is None:
                        acc = inp.grad = owned[id(inp)] = np.zeros(inp.shape, dtype=g.dtype)
                        if _disjoint(runs):
                            for src, dst in runs:
                                acc[src] = g[dst]
                            continue
                    elif owned.get(id(inp)) is not acc or acc.dtype != np.result_type(acc, g):
                        acc = inp.grad = owned[id(inp)] = acc.astype(np.result_type(acc, g))
                    for src, dst in runs:
                        acc[src] += g[dst]
                elif acc is None:
                    inp.grad = g
                elif owned.get(id(inp)) is acc and acc.dtype == g.dtype and acc.shape == g.shape:
                    np.add(acc, g, out=acc)
                else:
                    inp.grad = owned[id(inp)] = acc + g
            rec.out.grad = None
        # Drop activations, closures and the record->tensor back edge the
        # moment the record is consumed.  The graph otherwise survives as
        # reference cycles until the cycle collector runs, and peak memory
        # grows by a full graph per training step.  Only leaf tensors
        # (parameters, user-created inputs) retain .grad.
        rec.out = None
        rec.inputs = ()
        rec.backward_fn = None


def _disjoint(runs) -> bool:
    """Whether no two runs read the same input element.  A single run never
    does (a take_rows index is distinct); more runs are row slices."""
    if len(runs) < 2:
        return True
    spans = sorted((src.start, src.stop) for src, _ in runs)
    return all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _record(name, out: Tensor, inputs, backward_fn) -> Tensor:
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._op = _OpRecord(name, tuple(inputs), out, backward_fn)
        if _profile is not None:
            _profile.records[name] += 1
            _profile.out_bytes[name] += out.data.nbytes
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum out broadcast dimensions so grad matches the input shape."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _record("add", out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd = a.data, b.data
    return _record(
        "multiply", out, (a, b),
        lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)),
    )


def negative(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record("negative", out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    return _record("matmul", out, (a, b), lambda g: _matmul_vjp(g, ad, bd))


def _matmul_vjp(g: np.ndarray, ad: np.ndarray, bd: np.ndarray):
    """(dA, dB) of A @ B for the 2-D arrays ad, bd and the output's gradient g."""
    # with one output column (the attention score against beta) da is an
    # outer product, which a broadcast multiply computes several times
    # faster than BLAS
    da = g * bd.T if bd.shape[1] == 1 else g @ bd.T
    return da, ad.T @ g


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: needs at least one tensor")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} differ off axis {axis}")

    def bwd(g):
        splits = list(itertools.accumulate(t.shape[axis] for t in tensors[:-1]))
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", out, tuple(tensors), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    in_shape = a.shape
    return _record("reshape", out, (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for ndim {a.ndim}")
    out = Tensor(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))
    return _record("transpose", out, (a,), lambda g: (g.transpose(inverse),))


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Repeat each row of axis 0 `times` times; backward sums each group."""
    if times < 1:
        raise ShapeError(f"repeat_rows: times must be >= 1, got {times}")
    out = Tensor(np.repeat(a.data, times, axis=0))
    n = a.shape[0]

    def bwd(g):
        return (g.reshape((n, times) + g.shape[1:]).sum(axis=1),)

    return _record("repeat_rows", out, (a,), bwd)


def _row_index(rows, n: int, op: str, count: int | None = None, repeats: bool = False):
    """rows as an index into n rows: an int m is the view slice(0, m), 0 < m
    <= n, else 1-D indices, distinct unless repeats; ShapeError naming op
    if not, or if it picks other than count rows."""
    if type(rows) is int and 0 < rows <= n and (count is None or count == rows):
        return slice(0, rows)               # the common case, without the checks below
    if isinstance(rows, (int, np.integer)):
        if not 0 < rows <= n:
            raise ShapeError(f"{op}: a prefix of {rows} rows is not in 1..{n}")
        index = slice(0, int(rows))
    else:
        index = np.asarray(rows, dtype=np.intp)
        if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= n)):
            raise ShapeError(f"{op}: rows must be 1-D indices into {n} rows")
        if not repeats and np.unique(index).size != index.size:
            raise ShapeError(f"{op}: rows must be distinct")
    picked = index.stop if isinstance(index, slice) else index.size
    if count is not None and picked != count:
        raise ShapeError(f"{op}: {count} rows attend but {picked} memory rows are picked")
    return index


def _row_runs(rows, n: int, op: str, count: int):
    """The memory rows of count attending rows, read as `_row_index` reads
    them (repeats allowed), as runs (src, dst) in attending-row order:
    attending rows dst read memory rows src, one run per stretch of
    consecutive memory rows.  A prefix is one run, and so is a 1-row int,
    without building an index; no rows are one empty run."""
    index = _row_index(rows, n, op, count, repeats=True)
    if type(index) is slice:
        return ((index, index),)
    if not index.size:
        return ((slice(0, 0), slice(0, 0)),)
    breaks = (np.flatnonzero(np.diff(index) != 1) + 1).tolist()
    starts, stops = [0] + breaks, breaks + [index.size]
    return tuple((slice(m, m + stop - start), slice(start, stop))
                 for m, start, stop in zip(index[starts].tolist(), starts, stops))


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows of axis 0 as `_row_index` reads them: an int n takes the first n
    as a view, which neither side may write to; distinct indices gather.
    The VJP returns the gradient of the rows taken alone (see `backward`)."""
    if a.ndim == 0:
        raise ShapeError("take_rows: a 0-d tensor has no rows")
    index = _row_index(rows, a.shape[0], "take_rows")
    return _record("take_rows", Tensor(a.data[index]), (a,),
                   lambda g: ((((index, slice(None)),), g),))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor; the VJP returns their
    gradient alone (see `backward`)."""
    if a.ndim != 2 or not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"slice_cols: columns [{start}, {stop}) invalid for {a.shape}")
    index = (slice(None), slice(start, stop))
    return _record("slice_cols", Tensor(a.data[index]), (a,),
                   lambda g: ((((index, slice(None)),), g),))


def reduce_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    out = Tensor(a.data.sum())
    in_shape = a.shape
    return _record("sum", out, (a,),
                   lambda g: (np.broadcast_to(g, in_shape).astype(g.dtype, copy=False),))


def reduce_mean(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis, which the output drops."""
    n = a.shape[axis]
    out = Tensor(a.data.mean(axis=axis))
    in_shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, in_shape).astype(g.dtype, copy=False),)

    return _record("mean", out, (a,), bwd)


# ---------------------------------------------------------------------
# activations and probability ops
# ---------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    mask = a.data > 0
    return _record("relu", out, (a,), lambda g: (g * mask,))


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp overflow on very negative inputs saturates to exactly 0, which
    # is the right limit; keep the one-branch form so values stay
    # bit-identical across runs
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    y = _logistic(a.data)
    out = Tensor(y)
    return _record("sigmoid", out, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record("tanh", out, (a,), lambda g: (g * (1.0 - y * y),))


def softmax_terms(x: np.ndarray):
    """(m, e, s) over the last axis of x: the row max m, e = exp(x - m)
    and the row sum s of e, with m and s keeping the axis.  Every
    softmax, log-softmax and cross entropy here is built from these."""
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return m, e, e.sum(axis=-1, keepdims=True)


def _row_softmax(x: np.ndarray):
    """Softmax over the last axis of x, and the VJP that maps dy to dx."""
    _, e, s = softmax_terms(x)
    y = e / s

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (g - dot) * y

    return y, vjp


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    y, vjp = _row_softmax(a.data)
    return _record("softmax", Tensor(y), (a,), lambda g: (vjp(g),))


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w: Tensor, b: Tensor,
              standard_output: bool = False) -> Tensor:
    """One LSTM layer update as one tape record; returns [h' | c'].

    x is the (B, n) layer input, h and c the (B, k) hidden and cell
    state, w the (n + k, 4k) fused gate matrix and b its (4k,) bias.  The
    pre-activations are z = [x ; h] @ w + b, with gate blocks of width k
    in the order i, f, o, c.  With i, f, o = sigmoid and g = tanh of the
    blocks, c' = f * c + i * g and h' = o * c' (o * tanh(c') when
    standard_output).  The output is (B, 2k); slice_cols splits it.

    Bit-identity contract: this is the record chain concat, matmul, add
    and a gates-only cell, fused.  Forward and VJP run the same numpy
    expressions in the same order as those four records did, so outputs
    and gradients are bit-equal to the chain's.  The chain's records
    were adjacent on the tape and gave each input one gradient, so every
    shared tensor also sums its gradients in the same order as before.
    """
    if (x.ndim != 2 or h.ndim != 2 or c.shape != h.shape or x.shape[0] != h.shape[0]
            or w.shape != (x.shape[1] + h.shape[1], 4 * h.shape[1])
            or b.shape != (4 * h.shape[1],)):
        raise ShapeError(f"lstm_cell: expects x (B, n), h and c (B, k), w (n + k, 4k) and "
                         f"b (4k,), got {x.shape}, {h.shape}, {c.shape}, {w.shape}, {b.shape}")
    k = h.shape[1]
    xh = np.concatenate([x.data, h.data], axis=1)
    wd = w.data
    z = xh @ wd + b.data
    ifo = _logistic(z[:, :3 * k])
    i, f, o = ifo[:, :k], ifo[:, k:2 * k], ifo[:, 2 * k:]
    g = np.tanh(z[:, 3 * k:])
    c_prev = c.data
    c_new = f * c_prev + i * g
    s = np.tanh(c_new) if standard_output else c_new
    out = Tensor(np.concatenate([o * s, c_new], axis=1))
    n_x = x.shape[1]
    z_shape, z_dtype = z.shape, z.dtype     # the VJP keeps no (B, 4k) array

    def bwd(grad):
        gh, gc = grad[:, :k], grad[:, k:]
        ds = gh * o
        dc = gc + (ds * (1.0 - s * s) if standard_output else ds)
        dz = np.empty(z_shape, dtype=z_dtype)
        dz[:, :k] = dc * g * i * (1.0 - i)
        dz[:, k:2 * k] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * k:3 * k] = gh * s * o * (1.0 - o)
        dz[:, 3 * k:] = dc * i * (1.0 - g * g)
        dxh, dw = _matmul_vjp(dz, xh, wd)
        return dxh[:, :n_x], dxh[:, n_x:], dc * f, dw, dz.sum(axis=0)

    return _record("lstm_cell", out, (x, h, c, w, b), bwd)


def _attention_act(qp: np.ndarray, pd: np.ndarray, runs) -> np.ndarray:
    """tanh(qp + pd[src]) for the (B, 1, A) query projection qp and the (M, L, A)
    key projection pd, as one (B, L, A) array: per run (src, dst), rows src
    of pd are read in place and added to rows dst of qp.  One run covers
    every row, and numpy allocates its sum."""
    if len(runs) == 1:
        act = np.add(qp, pd[runs[0][0]])
    else:
        act = np.empty((qp.shape[0],) + pd.shape[1:], dtype=np.result_type(qp, pd))
        for src, dst in runs:
            np.add(qp[dst], pd[src], out=act[dst])
    np.tanh(act, out=act)
    return act


def attention_scores(query: Tensor, w1: Tensor, proj: Tensor, beta: Tensor,
                     rows=None) -> Tensor:
    """Additive attention weights over L memory entries, as one tape record.

    query is (B, q), w1 (q, A), proj the (M, L, A) key projection of the
    memory and beta (A,); rows picks each query row's memory row as
    `_row_runs` reads them (None: all M = B rows), and several query rows
    may read one memory row.  Returns alpha = softmax over L of
    tanh(query @ w1 + proj[rows]) @ beta, shape (B, L).

    Memory: the record keeps its inputs, the (B, 1, A) query projection
    and alpha, never a (B, L, A) array, and proj is never cut, gathered or
    tiled.  Forward builds the tanh activations in one array, reading
    proj in place run by run, and scores and drops them.  The VJP
    rebuilds them, turns that array in place into the gradient of
    proj[rows], (g beta^T) * (1 - act * act), which it returns by run,
    and holds one more array of its size, 1 - act * act, while it does.

    Bit-identity contract: forward and VJP run the numpy expressions of
    the chain take_rows (of proj tiled so that every query row reads its
    own memory row), matmul, reshape, add, tanh, reshape, reshape (of
    beta), matmul, reshape and softmax, in its order, so outputs and the
    query, w1 and beta gradients are bit-equal to the chain's.  The proj
    gradient is too wherever no two query rows read one memory row;
    where they do, it sums their gradients in run order, not the chain's.
    """
    if (query.ndim != 2 or w1.ndim != 2 or proj.ndim != 3 or w1.shape[0] != query.shape[1]
            or proj.shape[2] != w1.shape[1] or beta.shape != (w1.shape[1],)):
        raise ShapeError(f"attention_scores: expects query (B, q), w1 (q, A), proj (M, L, A) "
                         f"and beta (A,), got {query.shape}, {w1.shape}, {proj.shape}, "
                         f"{beta.shape}")
    bsz, (m, length, a) = query.shape[0], proj.shape
    runs = _row_runs(m if rows is None else rows, m, "attention_scores", bsz)
    qd, w1d, pd = query.data, w1.data, proj.data
    qp = (qd @ w1d).reshape(bsz, 1, a)
    beta_col = beta.data.reshape(a, 1)
    scores = _attention_act(qp, pd, runs).reshape(bsz * length, a) @ beta_col
    alpha, softmax_vjp = _row_softmax(scores.reshape(bsz, length))

    def bwd(g):
        gs = softmax_vjp(g).reshape(bsz * length, 1)
        # d_pre holds the recomputed activations until it is overwritten
        # with their gradient
        d_pre = _attention_act(qp, pd, runs)
        d_beta = d_pre.reshape(bsz * length, a).T @ gs
        t = np.multiply(d_pre, d_pre)
        np.subtract(1.0, t, out=t)
        np.multiply(gs.reshape(bsz, length, 1), beta_col.T, out=d_pre)
        np.multiply(d_pre, t, out=d_pre)
        d_query, d_w1 = _matmul_vjp(d_pre.sum(axis=1), qd, w1d)
        return d_query, d_w1, (runs, d_pre), d_beta.reshape(a)

    return _record("attention_scores", Tensor(alpha), (query, w1, proj, beta), bwd)


def attention_context(alpha: Tensor, entries: Tensor, rows=None) -> Tensor:
    """Attention-weighted sum of memory entries, (B, L) x (M, L, d) -> (B, d),
    over the memory rows picked as in `attention_scores`: one stacked matmul
    per run, which reads its memory rows in place, in the forward and again
    in the VJP; a single run (a prefix) needs no concatenation.  The
    entries gradient is returned by run (see `backward`)."""
    if alpha.ndim != 2 or entries.ndim != 3 or alpha.shape[1] != entries.shape[1]:
        raise ShapeError(
            f"attention_context: weights {alpha.shape} do not match entries {entries.shape}")
    bsz, m = alpha.shape[0], entries.shape[0]
    runs = _row_runs(m if rows is None else rows, m, "attention_context", bsz)
    ad, ed = alpha.data, entries.data
    if len(runs) == 1:
        out = np.matmul(ad[:, None], ed[runs[0][0]])
    else:
        out = np.concatenate([np.matmul(ad[dst, None], ed[src]) for src, dst in runs])

    def bwd(g):
        d_alpha = np.concatenate([np.matmul(ed[src], g[dst, :, None]) for src, dst in runs])
        # the entries VJP is an outer product per row; a matmul with an
        # inner size of 1 would be slower than the broadcast multiply
        return d_alpha[:, :, 0], (runs, ad[:, :, None] * g[:, None, :])

    return _record("attention_context", Tensor(out[:, 0]), (alpha, entries), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of an embedding matrix selected by integer id."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range [0, {table.shape[0]}), got {ids.min()}..{ids.max()}"
        )
    out = Tensor(table.data[ids])

    def bwd(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return _record("embedding_lookup", out, (table,), bwd)


def dropout(a: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train-time rescale by 1/(1-rate), eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise TensorError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    if rng is None:
        raise TensorError("dropout: train mode requires an rng")
    keep = (rng.random(a.shape) >= rate).astype(a.dtype)
    scale = 1.0 / (1.0 - rate)
    out = Tensor(a.data * keep * scale)
    return _record("dropout", out, (a,), lambda g: (g * keep * scale,))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row -log softmax(logits)[target]; shape (B,V) + (B,) -> (B,)."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: targets shape {targets.shape} does not match batch {logits.shape[0]}"
        )
    z = logits.data
    m, sm, total = softmax_terms(z)
    lse = m[:, 0] + np.log(total[:, 0])
    rows = np.arange(z.shape[0])
    out = Tensor(lse - z[rows, targets])
    sm /= total

    def bwd(g):
        dz = sm * g[:, None]
        dz[rows, targets] -= g
        return (dz,)

    return _record("cross_entropy", out, (logits,), bwd)


# ---------------------------------------------------------------------
# image ops
# ---------------------------------------------------------------------

def _taps(n: int, offset: int):
    """Output positions whose window tap `offset` (0, 1 or 2) reads the input.

    With stride 1 and padding 1, output position r reads input index
    r + offset - 1 of n.  Returns (out, inp): the slice of output
    positions that read the input and the slice of input indices they
    read, in the same order; the other positions read padding.  Returns
    None when every position reads padding, as taps 0 and 2 do when n = 1.
    """
    lo = max(0, 1 - offset)
    hi = min(n, n + 1 - offset)
    if hi <= lo:
        return None
    return slice(lo, hi), slice(lo + offset - 1, hi + offset - 1)


# one image size feeds the encoder's convs 5 input sizes, so 128 tables
# (about 2.5 KB each) cover 25 bucket sizes; a bound, since without a
# bucket file every new image size would add tables
@functools.lru_cache(maxsize=128)
def _conv_blocks(H: int, W: int) -> tuple:
    """conv2d's block table for an H x W input: per (i, j) kernel tap, in
    (i, j) order, ((i, j), block), where block is (rows, cols, xrows,
    xcols), the output rows and columns whose tap reads x and the rows
    and columns of x they read, or None where the plane is all padding.
    Built once per size (`_taps`); a tuple, so no caller can change it."""
    taps_w = [_taps(W, j) for j in range(3)]
    table = []
    for i in range(3):
        th = _taps(H, i)
        for j, tw in enumerate(taps_w):
            table.append(((i, j), None if th is None or tw is None
                          else (th[0], tw[0], th[1], tw[1])))
    return tuple(table)


def _im2col(xd: np.ndarray, blocks):
    """Yield (b, cols) for each image b of the (B, C, H, W) array xd, where
    cols is image b's (C*9, H*W) column matrix for a 3x3 kernel.

    Every image is unrolled into the same (C, 3, 3, H, W) buffer, so a
    caller must be done with one image's cols before it asks for the
    next.  The buffer starts zeroed, since what reads padding reads zero
    in every image; per image, only the part of each (i, j) plane that
    reads x is copied, from a strided view, and no padded copy of x is
    made.  blocks is the `_conv_blocks` table of xd's size.
    """
    B, C, H, W = xd.shape
    buf = np.zeros((C, 3, 3, H, W), dtype=xd.dtype)
    copies = [(buf[:, i, j, block[0], block[1]], block[2], block[3])
              for (i, j), block in blocks if block is not None]
    cols = buf.reshape(C * 9, H * W)
    for b in range(B):
        for dst, xrows, xcs in copies:
            np.copyto(dst, xd[b, :, xrows, xcs])
        yield b, cols


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """The encoder's convolution: (B, C, H, W) with an (O, C, 3, 3) kernel
    and an (O,) bias, stride 1 and zero padding 1, so the output is
    (B, O, H, W).

    im2col, one image at a time: `_im2col` unrolls each image into one
    reused (C*9, H*W) column buffer, and one GEMM per image multiplies
    the (O, C*9) kernel matrix by it, straight into that image's rows of
    the (B, O, H*W) output.  So the output is C-contiguous NCHW with no
    transpose copy, and every later op reads contiguous memory.

    Nothing but x's data, the kernel matrix and the block table is kept
    for the VJP: no column buffer of B images.  The backward pass runs
    the same per-image loop.  It rebuilds image b's columns, adds that
    image's kernel-gradient GEMM into dk, and, when x needs a gradient,
    forms the image's dcols with one GEMM and scatters it back (col2im)
    straight into a C-contiguous (B, C, H, W) dx while it is in cache.
    Every GEMM is the one a stacked matmul over the batch would run for
    that image, so outputs and gradients are bit-equal to the stacked
    im2col's.

    dk starts from image 0's product and adds the others in image order,
    as numpy's sum over the stacked products did.  Each product reduces
    over H*W, and OpenBLAS splits a GEMM's reduction by thread, so dk's
    last bits, and with them training outputs, depend on
    OPENBLAS_NUM_THREADS.  The forward pass does not: predict and
    evaluate are byte-identical at 1 and 2 threads (tested).
    """
    if x.ndim != 4 or kernel.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: expects a 4-D input and an (O, C, 3, 3) kernel, "
                         f"got {x.shape} and {kernel.shape}")
    B, C, H, W = x.shape
    O, Ck = kernel.shape[:2]
    if C != Ck:
        raise ShapeError(f"conv2d: input channels {C} != kernel channels {Ck}")
    if bias.shape != (O,):
        raise ShapeError(f"conv2d: bias must be ({O},), got {bias.shape}")
    blocks = _conv_blocks(H, W)
    xd = x.data
    wmat = kernel.data.reshape(O, C * 9)
    y = np.empty((B, O, H * W), dtype=np.result_type(wmat, xd))
    for b, cols in _im2col(xd, blocks):
        np.matmul(wmat, cols, out=y[b])
    y += bias.data[:, None]
    out = Tensor(y.reshape(B, O, H, W))

    def bwd(g):
        g3 = g.reshape(B, O, H * W)
        dx = None
        if x.requires_grad:
            # col2im: every dx element sums its windows in (i, j) order,
            # starting from +0.0
            dx = np.zeros((B, C, H, W), dtype=x.dtype)
            dcols = np.empty((C * 9, H * W), dtype=x.dtype)
            planes = dcols.reshape(C, 3, 3, H, W)
        dk = np.zeros((O, C * 9), dtype=np.result_type(g, xd))    # an empty batch's sum
        prod = np.empty_like(dk)
        for b, cols in _im2col(xd, blocks):
            if b == 0:
                np.matmul(g3[0], cols.T, out=dk)
            else:
                np.matmul(g3[b], cols.T, out=prod)
                dk += prod
            if dx is not None:
                np.matmul(wmat.T, g3[b], out=dcols)
                for (i, j), block in blocks:
                    if block is not None:
                        rows, cs, xrows, xcs = block
                        dx[b, :, xrows, xcs] += planes[:, i, j, rows, cs]
        return dx, dk.reshape(O, C, 3, 3), g.sum(axis=(0, 2, 3))

    return _record("conv2d", out, (x, kernel, bias), bwd)


def maxpool2d(x: Tensor, kernel: tuple[int, int]) -> Tensor:
    """Max pooling over (B, C, H, W) with non-overlapping (kh, kw) windows:
    the stride is the kernel.

    Sizes that the kernel does not divide are floored: trailing rows and
    columns are dropped, and get a zero gradient.  The forward pass takes
    np.maximum over the kh*kw strided sub-views of the input, so no window
    is copied, and the output is C-contiguous NCHW.  The backward pass
    routes each window's gradient to its first maximal element in (i, j)
    order, the tie-break of an argmax over the window.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expects 4-D input, got {x.shape}")
    kh, kw = kernel
    B, C, H, W = x.shape
    Ho, Wo = H // kh, W // kw
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"maxpool2d: input {H}x{W} too small for k=({kh},{kw})")
    xd = x.data
    # (rows, cols) slices that pick offset (i, j) of every window from x
    offsets = [(slice(i, kh * Ho, kh), slice(j, kw * Wo, kw))
               for i in range(kh) for j in range(kw)]
    rows, cols = offsets[0]
    y = xd[:, :, rows, cols].copy()
    for rows, cols in offsets[1:]:
        np.maximum(y, xd[:, :, rows, cols], out=y)
    out = Tensor(y)

    def bwd(g):
        dx = np.zeros_like(xd)
        last = len(offsets) - 1
        for n, (rows, cols) in enumerate(offsets):
            hit = xd[:, :, rows, cols] == y
            if n == 0:
                free = ~hit                     # window's max not yet taken
            else:
                hit &= free
                if n < last:
                    free ^= hit
            np.multiply(g, hit, out=dx[:, :, rows, cols])
        # g * False is -0.0 where g < 0; adding +0.0 makes it +0.0, so dx
        # is bit-equal to summing the routed gradients into zeros
        dx += 0.0
        return (dx,)

    return _record("maxpool2d", out, (x,), bwd)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                momentum: float = 0.1, eps: float = 1e-5, train: bool = True) -> Tensor:
    """Per-channel batch norm over (B, H, W); eval uses running statistics.

    running_mean/running_var are plain arrays mutated in place during
    training (model buffers, saved with checkpoints).
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: expects 4-D input, got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"batchnorm2d: gamma/beta must be ({C},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3)
    if train:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        # buffers stay float64 for accumulation accuracy; normalize in
        # the input dtype so float32 models do not promote downstream
        mean = running_mean.astype(x.dtype, copy=False)
        var = running_var.astype(x.dtype, copy=False)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype, copy=False)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = Tensor(gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None])

    def bwd(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        gs = g * gamma.data[None, :, None, None]
        if train:
            mg = gs.mean(axis=axes)
            mgx = (gs * xhat).mean(axis=axes)
            dx = inv_std[None, :, None, None] * (
                gs - mg[None, :, None, None] - xhat * mgx[None, :, None, None]
            )
        else:
            dx = gs * inv_std[None, :, None, None]
        return dx, dgamma, dbeta

    return _record("batchnorm2d", out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------

def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Uniform in [-a, a], a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(dtype)
