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

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from loss.

    The records that produced loss are replayed in reverse execution
    order, so every op is visited once.  Intermediate tensors only hold
    their gradient transiently; the graph is torn down record by record
    as it is consumed, so backward may run only once per forward pass.
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
                if acc is None:
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


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows `rows` of axis 0, in the order given; the indices must be distinct.

    Because no row is taken twice, the VJP scatters g into zeros of the
    input's shape with one assignment and needs no accumulation; rows not
    taken get a zero gradient.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if a.ndim == 0 or rows.ndim != 1 or (
            rows.size and (rows.min() < 0 or rows.max() >= a.shape[0])):
        raise ShapeError(f"take_rows: rows must be 1-D indices into axis 0 of {a.shape}")
    if np.unique(rows).size != rows.size:
        raise ShapeError("take_rows: rows must be distinct")
    out = Tensor(a.data[rows])
    in_shape = a.shape

    def bwd(g):
        da = np.zeros(in_shape, dtype=g.dtype)
        da[rows] = g
        return (da,)

    return _record("take_rows", out, (a,), bwd)


def head_rows(a: Tensor, n: int) -> Tensor:
    """The first n rows of axis 0, as a view: 0 < n <= rows, or ShapeError.

    The output's data is a.data[:n] and shares a's memory, so neither
    side may be written to; the VJP zero-pads g back to a's shape.
    """
    if a.ndim == 0 or not 0 < n <= a.shape[0]:
        raise ShapeError(f"head_rows: n={n} is not a row count in 1..rows of {a.shape}")
    out = Tensor(a.data[:n])
    in_shape = a.shape

    def bwd(g):
        da = np.zeros(in_shape, dtype=g.dtype)
        da[:n] = g
        return (da,)

    return _record("head_rows", out, (a,), bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor; backward zero-pads the rest."""
    if a.ndim != 2 or not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"slice_cols: columns [{start}, {stop}) invalid for {a.shape}")
    out = Tensor(a.data[:, start:stop])
    in_shape = a.shape

    def bwd(g):
        da = np.zeros(in_shape, dtype=g.dtype)
        da[:, start:stop] = g
        return (da,)

    return _record("slice_cols", out, (a,), bwd)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    in_shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).astype(g.dtype, copy=False),)

    return _record("sum", out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    in_shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, in_shape).astype(g.dtype, copy=False),)

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


def attention_scores(query: Tensor, w1: Tensor, proj: Tensor, beta: Tensor) -> Tensor:
    """Additive attention weights over L memory entries, as one tape record.

    query is (B, q), w1 (q, A), proj the (B, L, A) key projection of the
    entries and beta (A,).  Returns alpha = softmax over L of
    tanh(query @ w1 + proj) @ beta, shape (B, L); rows sum to 1.

    Bit-identity contract: this fuses the chain matmul, reshape, add,
    tanh, reshape, reshape (of beta), matmul, reshape and softmax.  Forward
    and VJP run the same numpy expressions in the same order as those
    nine records did, so outputs and gradients are bit-equal to the
    chain's, and each input gets one gradient at the chain's place on the
    tape.  Only the tanh activations are kept for the VJP; the chain also
    kept the (B, L, A) pre-activation.
    """
    if (query.ndim != 2 or w1.ndim != 2 or proj.ndim != 3 or w1.shape[0] != query.shape[1]
            or proj.shape[0] != query.shape[0] or proj.shape[2] != w1.shape[1]
            or beta.shape != (w1.shape[1],)):
        raise ShapeError(f"attention_scores: expects query (B, q), w1 (q, A), proj (B, L, A) "
                         f"and beta (A,), got {query.shape}, {w1.shape}, {proj.shape}, "
                         f"{beta.shape}")
    bsz, length, a = proj.shape
    qd, w1d = query.data, w1.data
    act = np.tanh((qd @ w1d).reshape(bsz, 1, a) + proj.data)
    act2 = act.reshape(bsz * length, a)
    beta_col = beta.data.reshape(a, 1)
    alpha, softmax_vjp = _row_softmax((act2 @ beta_col).reshape(bsz, length))

    def bwd(g):
        d_act2, d_beta = _matmul_vjp(softmax_vjp(g).reshape(bsz * length, 1), act2, beta_col)
        d_pre = d_act2.reshape(bsz, length, a) * (1.0 - act * act)
        d_query, d_w1 = _matmul_vjp(d_pre.sum(axis=1), qd, w1d)
        return d_query, d_w1, d_pre, d_beta.reshape(a)

    return _record("attention_scores", Tensor(alpha), (query, w1, proj, beta), bwd)


def attention_context(alpha: Tensor, entries: Tensor) -> Tensor:
    """Attention-weighted sum of memory entries: (B, L) x (B, L, d) -> (B, d)."""
    if alpha.ndim != 2 or entries.ndim != 3 or alpha.shape != entries.shape[:2]:
        raise ShapeError(
            f"attention_context: weights {alpha.shape} do not match entries {entries.shape}")
    ad, ed = alpha.data, entries.data
    out = Tensor(np.matmul(ad[:, None, :], ed)[:, 0, :])

    def bwd(g):
        # the entries VJP is an outer product per row; a matmul with an
        # inner size of 1 would be slower than the broadcast multiply
        return np.matmul(ed, g[:, :, None])[:, :, 0], ad[:, :, None] * g[:, None, :]

    return _record("attention_context", out, (alpha, entries), bwd)


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

def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def _taps(n_in: int, n_out: int, stride: int, pad: int, offset: int):
    """Output positions whose window tap `offset` reads the input.

    Output position r reads input index r*stride + offset - pad.  Returns
    (out, inp): the slice of output positions that read the input and
    the slice of input indices they read, in the same order; the other
    positions read padding.  Returns None when every position reads
    padding: for example when pad >= the kernel size, or when the input
    is smaller than the kernel.
    """
    lo = max(0, -((offset - pad) // stride))
    hi = min(n_out, (n_in - 1 + pad - offset) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + offset - pad
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution over (B, C, H, W) with an (O, C, kh, kw) kernel.

    im2col: the input is unrolled into a (B, C, kh, kw, Ho, Wo) column
    buffer, viewed as (B, C*kh*kw, Ho*Wo) and multiplied by the
    (O, C*kh*kw) kernel matrix in one stacked matmul.  Each (i, j) plane
    of the buffer is copied from a strided view of x, and only its border
    strips, which read zero padding, are zeroed, so no padded copy of x
    is made.  The product is (B, O, Ho*Wo), so the output is C-contiguous
    NCHW with no transpose copy, and every later op reads contiguous
    memory.  The backward pass forms one image's dcols at a time, with the
    GEMM a stacked matmul would run for it, and scatters it back (col2im)
    straight into a C-contiguous (B, C, H, W) dx while it is in cache.

    The kernel gradient runs one GEMM per image, each reducing over
    Ho*Wo, and numpy then sums the B products.  OpenBLAS splits a GEMM's
    reduction by thread, so dk's last bits, and with them training
    outputs, depend on OPENBLAS_NUM_THREADS.  The forward pass does not:
    predict and evaluate are byte-identical at 1 and 2 threads (tested).
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: expects 4-D input/kernel, got {x.shape} and {kernel.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    B, C, H, W = x.shape
    O, Ck, kh, kw = kernel.shape
    if C != Ck:
        raise ShapeError(f"conv2d: input channels {C} != kernel channels {Ck}")
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: input {H}x{W} too small for k=({kh},{kw}) p=({ph},{pw}) s=({sh},{sw})")
    # per (i, j): the output rows and columns whose taps read x, then the
    # rows and columns of x they read, or None where the plane is padding
    taps_w = [_taps(W, Wo, sw, pw, j) for j in range(kw)]
    blocks = {}
    for i in range(kh):
        th = _taps(H, Ho, sh, ph, i)
        for j, tw in enumerate(taps_w):
            blocks[i, j] = None if th is None or tw is None else (th[0], tw[0], th[1], tw[1])
    xd = x.data
    cols = np.empty((B, C, kh, kw, Ho, Wo), dtype=x.dtype)
    for (i, j), block in blocks.items():
        plane = cols[:, :, i, j]
        if block is None:
            plane[...] = 0
            continue
        rows, cs, xrows, xcs = block
        plane[:, :, :rows.start] = 0
        plane[:, :, rows.stop:] = 0
        plane[:, :, rows, :cs.start] = 0
        plane[:, :, rows, cs.stop:] = 0
        plane[:, :, rows, cs] = xd[:, :, xrows, xcs]
    cols = cols.reshape(B, C * kh * kw, Ho * Wo)
    wmat = kernel.data.reshape(O, C * kh * kw)
    y = np.matmul(wmat, cols)
    if bias is not None:
        y += bias.data[:, None]
    out = Tensor(y.reshape(B, O, Ho, Wo))
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def bwd(g):
        g3 = g.reshape(B, O, Ho * Wo)
        dk = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(O, C, kh, kw)
        dx = None
        if x.requires_grad:
            # col2im: every dx element sums its windows in (i, j) order,
            # starting from +0.0
            dx = np.zeros((B, C, H, W), dtype=x.dtype)
            dcols = np.empty((C * kh * kw, Ho * Wo), dtype=x.dtype)
            planes = dcols.reshape(C, kh, kw, Ho, Wo)
            for b in range(B):
                np.matmul(wmat.T, g3[b], out=dcols)
                for (i, j), block in blocks.items():
                    if block is not None:
                        rows, cs, xrows, xcs = block
                        dx[b, :, xrows, xcs] += planes[:, i, j, rows, cs]
        if bias is None:
            return dx, dk
        return dx, dk, g.sum(axis=(0, 2, 3))

    return _record("conv2d", out, inputs, bwd)


def maxpool2d(x: Tensor, kernel, stride=None) -> Tensor:
    """Max pooling over (B, C, H, W) with non-overlapping windows.

    The stride must equal the kernel (its default); any other stride
    raises ShapeError.  Sizes that the kernel does not divide are floored:
    trailing rows and columns are dropped, and get a zero gradient.  The
    forward pass takes np.maximum over the kh*kw strided sub-views of the
    input, so no window is copied, and the output is C-contiguous NCHW.
    The backward pass routes each window's gradient to its first maximal
    element in (i, j) order, the tie-break of an argmax over the window.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expects 4-D input, got {x.shape}")
    kh, kw = _pair(kernel)
    if stride is not None and _pair(stride) != (kh, kw):
        raise ShapeError(f"maxpool2d: stride {_pair(stride)} must equal the kernel ({kh}, {kw})")
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
