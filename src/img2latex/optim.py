"""Adam optimizer and gradient clipping."""
from __future__ import annotations

import numpy as np

from .tensor import Parameter, TensorError


class OptimError(TensorError):
    pass


class Adam:
    """Adam with bias correction; defaults beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: list[Parameter], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise OptimError(f"learning rate must be > 0, got {lr}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise OptimError("duplicate parameter names in optimizer")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise OptimError(f"parameter '{p.name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt a state_dict; both moments must name every parameter,
        and only those, at its shape, with finite values and a
        non-negative second moment (OptimError otherwise)."""
        for key in ("m", "v"):
            moments = state[key]
            missing, extra = set(self.m) - set(moments), set(moments) - set(self.m)
            if missing or extra:
                raise OptimError(f"optimizer state {key!r} mismatch: missing {sorted(missing)}, "
                                 f"unexpected {sorted(extra)}")
            rule = "finite and non-negative" if key == "v" else "finite"
            for name, ours in self.m.items():
                arr = np.asarray(moments[name])
                if arr.shape != ours.shape:
                    raise OptimError(f"optimizer state {key!r} for '{name}' has shape "
                                     f"{arr.shape}, not {ours.shape}")
                if not np.isfinite(arr).all() or (key == "v" and (arr < 0).any()):
                    raise OptimError(f"optimizer state {key!r} for '{name}' must be {rule}")
        self.step_count = int(state["step_count"])
        for name in self.m:
            self.m[name] = np.array(state["m"][name], dtype=self.m[name].dtype)
            self.v[name] = np.array(state["v"][name], dtype=self.v[name].dtype)


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.tensor.grad = p.grad * scale
    return norm
