"""Helpers shared by the test modules: a finite-difference gradient
oracle, a model-config builder, the shipped desk preset, a fault that
misfeeds rollouts, and a snapshot of a directory tree with the check
that a refused command leaves it as it found it.

Central difference with h = 1e-5 in float64; compared against the
analytic gradient with relative error |a - f| / max(|a|, |f|, 1e-6).
"""
import os

import numpy as np

from img2latex.config import ModelConfig, full_defaults, load_config
from img2latex.decoder import Decoder

H = 1e-5
TOL = 1e-4


def fd_grad(f, x: np.ndarray, h: float = H, coords=None) -> np.ndarray:
    """Central-difference df/dx at the given coords (all by default).

    f is a zero-argument callable returning a float; it must read x by
    reference so the perturbation is visible.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    idxs = range(flat_x.size) if coords is None else coords
    for i in idxs:
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float((np.abs(analytic - fd) / denom).max())


def assert_grads_close(analytic: np.ndarray, fd: np.ndarray, tol: float = TOL, label: str = ""):
    err = rel_err(analytic, fd)
    assert err <= tol, f"{label}: max relative gradient error {err:.3e} > {tol}"


def model_config(vocab_size: int, **kw) -> ModelConfig:
    """ModelConfig from the full-scale defaults overlaid by `kw`."""
    cfg = full_defaults()
    cfg.update(kw)
    return ModelConfig.from_cfg(cfg, vocab_size)


def desk_config() -> dict:
    """The config `configs/desk.cfg` resolves to: the desk preset."""
    return load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg"))


def misfeed_rollouts(monkeypatch):
    """Make Decoder.step reverse the fed tokens in place before stepping,
    so each running row is fed another row's sample, as a row mix-up
    after compaction would."""
    step = Decoder.step

    def misfeed(self, state, tokens, train=False, rng=None):
        tokens[:] = tokens[::-1].copy()
        return step(self, state, tokens, train=train, rng=rng)

    monkeypatch.setattr(Decoder, "step", misfeed)


def tree(root):
    """Every directory and file under root, by relative path, with a file's
    bytes (None for a directory)."""
    found = {}
    for d, dirs, files in os.walk(root):
        found.update((os.path.relpath(os.path.join(d, name), root), None) for name in dirs)
        for name in files:
            with open(os.path.join(d, name), "rb") as fh:
                found[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return found


def refusals_leave_no_trace(main, roots):
    """main, checked: a call that exits 1 or 2 must leave the `tree` of
    each directory in roots as it found it."""
    def checked(argv):
        before = [tree(root) for root in roots]
        rc = main(argv)
        if rc in (1, 2):
            assert [tree(root) for root in roots] == before, f"exit {rc} changed the tree"
        return rc
    return checked
