"""Adam optimizer and gradient clipping."""
from __future__ import annotations

import numpy as np

from .checkpoint import check_arrays
from .tensor import Tensor, TensorError


class OptimError(TensorError):
    pass


class Adam:
    """Adam with bias correction; defaults beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise OptimError(f"learning rate must be > 0, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimError(f"parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
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
        """Adopt a state_dict whose moments meet `check_arrays` against the
        parameters, the second moment non-negative (CheckpointError)."""
        check_arrays("first moment", state["m"], self.params)
        check_arrays("second moment", state["v"], self.params, non_negative=self.params)
        self.step_count = int(state["step_count"])
        for name in self.m:
            self.m[name] = np.array(state["m"][name], dtype=self.m[name].dtype)
            self.v[name] = np.array(state["v"][name], dtype=self.v[name].dtype)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients of the tensors `params` so their global L2 norm
    is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
