"""Convolutional encoder: grayscale image -> bank of annotation vectors.

The stack interleaves 3x3 convolutions (stride 1, padding 1, batch norm
on the three deepest convs) with four max pools whose strides multiply
to 8 along both axes, so an H x W input becomes an H/8 x W/8 x d
feature map.  A fixed two-axis sinusoidal signal is added so each
feature vector carries its grid position, then the map is flattened
row-major into the (B, L, d) memory entries the decoder attends over:
L = H/8 * W/8, and entry l came from feature-map cell divmod(l, W/8).

Each layer runs conv -> batch norm (if any) -> max pool (if any) -> ReLU.
ReLU is np.maximum(v, 0), which is monotone and maps every v <= 0 (-0.0
included) to +0.0, so it commutes with max bit for bit: this is the
function of a ReLU ahead of the pool, at a half or a quarter of the
ReLU's work.  In backward, both orders route a window's gradient to the
same element when the window's max is positive; otherwise every element
of the window gets a zero in both orders, whose sign alone may differ.
"""
from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .tensor import Tensor, TensorError


# batch-norm variance floor
BN_EPS = 1e-5


def positional_encoding(height: int, width: int, d: int, timescale: float) -> np.ndarray:
    """Two-axis sinusoidal position signal, shape (d, height, width).

    The first d/2 channels encode the column index x, the second d/2 the
    row index y, each as interleaved sin/cos pairs:

        pe[2i]       = sin(x / timescale^(4i/d))
        pe[2i+1]     = cos(x / timescale^(4i/d))
        pe[d/2+2j]   = sin(y / timescale^(4j/d))
        pe[d/2+2j+1] = cos(y / timescale^(4j/d))

    for i, j in [0, d/4).  Positions are zero-based, so channels in
    [0, d/2) are constant along columns of fixed x and channels in
    [d/2, d) constant along rows of fixed y.
    """
    if d % 4 != 0:
        raise ValueError(f"positional encoding width must be a multiple of 4, got {d}")
    if height < 1 or width < 1:
        raise ValueError(f"positional encoding needs positive extent, got {height}x{width}")
    q = d // 4
    inv = timescale ** (-4.0 * np.arange(q) / d)            # (q,)
    ang_x = np.outer(inv, np.arange(width))                 # (q, W)
    ang_y = np.outer(inv, np.arange(height))                # (q, H)
    pe = np.zeros((d, height, width), dtype=np.float64)
    pe[0:d // 2:2] = np.sin(ang_x)[:, None, :]
    pe[1:d // 2:2] = np.cos(ang_x)[:, None, :]
    pe[d // 2::2] = np.sin(ang_y)[:, :, None]
    pe[d // 2 + 1::2] = np.cos(ang_y)[:, :, None]
    return pe


# (out_channels as a fraction of d, batchnorm?) per conv, and the pool
# that follows each stage; pools are (kh, kw) with stride = kernel, and
# every conv is 3x3 with stride 1 and padding 1 (tensor.conv2d).
_CONV_PLAN = [
    # (in_frac, out_frac, has_bn, pool_after)
    (None, 8, False, (2, 2)),   # 1 -> d/8
    (8, 4, False, (2, 2)),      # d/8 -> d/4
    (4, 2, True, None),         # d/4 -> d/2
    (2, 2, False, (1, 2)),      # d/2 -> d/2, pool width only
    (2, 1, True, (2, 1)),       # d/2 -> d,   pool height only
    (1, 1, True, None),         # d -> d
]

# the factor the stack shrinks each axis by: the product of the pool
# kernels, which is the same along rows and columns
DOWNSAMPLE = math.prod(pool[0] for *_, pool in _CONV_PLAN if pool)


class Encoder:
    """Six-conv feature extractor with total downsampling 8x8.

    `layers` holds, per conv, (w, b, bn, pool): the conv's parameter
    tensors, bn = (gamma, beta, running_mean, running_var) or None, and
    the pool or None; `params` and `buffers` name the same objects.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        dt = config.np_dtype()
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.layers = []

        def param(name, data):
            self.params[name] = Tensor(data, requires_grad=True)
            return self.params[name]

        for idx, (in_frac, out_frac, has_bn, pool) in enumerate(_CONV_PLAN, start=1):
            cin = 1 if in_frac is None else config.d // in_frac
            cout = config.d // out_frac
            fan_in = cin * 9
            fan_out = cout * 9
            w = param(f"enc.conv{idx}.w",
                      T.glorot_uniform((cout, cin, 3, 3), fan_in, fan_out, rng, dt))
            b = param(f"enc.conv{idx}.b", np.zeros(cout, dtype=dt))
            bn = None
            if has_bn:
                # running statistics stay float64 whatever the model dtype
                mean = self.buffers[f"enc.bn{idx}.running_mean"] = np.zeros(cout)
                var = self.buffers[f"enc.bn{idx}.running_var"] = np.ones(cout)
                bn = (param(f"enc.bn{idx}.gamma", np.ones(cout, dtype=dt)),
                      param(f"enc.bn{idx}.beta", np.zeros(cout, dtype=dt)), mean, var)
            self.layers.append((w, b, bn, pool))

    def cnn_forward(self, x: Tensor, train: bool = False) -> Tensor:
        """(B, 1, H, W) -> (B, d, H/8, W/8); H and W must be multiples of 8."""
        if x.ndim != 4 or x.shape[1] != 1:
            raise TensorError(f"encoder input must be (B, 1, H, W), got {x.shape}")
        _, _, h, w = x.shape
        if h % DOWNSAMPLE != 0 or w % DOWNSAMPLE != 0:
            raise TensorError(
                f"encoder input {h}x{w} is not a multiple of {DOWNSAMPLE}; pad the image "
                f"(white, bottom/right) to the next multiple of {DOWNSAMPLE} first"
            )
        out = x
        for w, b, bn, pool in self.layers:
            out = T.conv2d(out, w, b)
            if bn is not None:
                out = T.batchnorm2d(out, *bn, momentum=self.config.bn_momentum, eps=BN_EPS,
                                    train=train)
            if pool is not None:
                out = T.maxpool2d(out, pool)
            out = T.relu(out)
        return out

    def encode(self, images: np.ndarray, train: bool = False) -> Tensor:
        """(B, 1, H, W) images -> memory entries (B, H/8 * W/8, d),
        flattened row-major; values in [0, 1] (0 = black ink, 1 = white)."""
        feats = self.cnn_forward(Tensor(images.astype(self.config.np_dtype())), train=train)
        b, d, hp, wp = feats.shape
        pe = positional_encoding(hp, wp, d, self.config.timescale)
        feats = feats + Tensor(pe[None].astype(feats.dtype))
        return T.reshape(T.transpose(feats, (0, 2, 3, 1)), (b, hp * wp, d))
