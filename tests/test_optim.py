"""Adam and gradient clipping against an independent reference."""
import numpy as np
import pytest

from img2latex.optim import Adam, OptimError, clip_global_norm
from img2latex.tensor import Parameter


def params_with_grads(grads):
    out = []
    for i, g in enumerate(grads):
        p = Parameter(f"p{i}", np.zeros_like(g))
        p.tensor.grad = np.array(g)
        out.append(p)
    return out


def adam_reference(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, written independently of the implementation."""
    x = np.array(x0, dtype=float)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=float)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
    return x


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(7)]
    p = Parameter("w", x0.copy())
    opt = Adam([p], lr=0.01)
    for g in grads:
        p.tensor.grad = g.copy()
        opt.step()
    assert np.allclose(p.data, adam_reference(x0, grads, 0.01), atol=1e-12)


def test_adam_first_step_is_signlike():
    # with bias correction the first update is lr * g/(|g| + eps)
    p = Parameter("w", np.zeros(3))
    p.tensor.grad = np.array([5.0, -0.01, 2.0])
    Adam([p], lr=0.1).step()
    assert np.allclose(p.data, [-0.1, 0.1, -0.1], atol=1e-6)


def test_adam_rejects_bad_lr_and_duplicates():
    p = Parameter("w", np.zeros(2))
    with pytest.raises(OptimError):
        Adam([p], lr=0.0)
    q = Parameter("w", np.zeros(2))
    with pytest.raises(OptimError):
        Adam([p, q], lr=0.1)


def test_adam_missing_grad_names_parameter():
    p = Parameter("enc.conv1.w", np.zeros(2))
    opt = Adam([p], lr=0.1)
    with pytest.raises(OptimError, match="enc.conv1.w"):
        opt.step()


def test_adam_state_roundtrip_continues_identically():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(6)]

    p1 = Parameter("w", x0.copy())
    opt1 = Adam([p1], lr=0.05)
    for g in grads:
        p1.tensor.grad = g.copy()
        opt1.step()

    p2 = Parameter("w", x0.copy())
    opt2 = Adam([p2], lr=0.05)
    for g in grads[:3]:
        p2.tensor.grad = g.copy()
        opt2.step()
    state = opt2.state_dict()
    p3 = Parameter("w", p2.data.copy())
    opt3 = Adam([p3], lr=0.05)
    opt3.load_state_dict(state)
    for g in grads[3:]:
        p3.tensor.grad = g.copy()
        opt3.step()
    assert np.array_equal(p3.data, p1.data)


def test_adam_state_rejects_wrong_names():
    p = Parameter("w", np.zeros(2))
    opt = Adam([p], lr=0.1)
    q = Parameter("v", np.zeros(2))
    opt2 = Adam([q], lr=0.1)
    with pytest.raises(OptimError):
        opt2.load_state_dict(opt.state_dict())


@pytest.mark.parametrize("key", ["m", "v"])
def test_adam_state_rejects_a_missing_or_mis_shaped_moment(key):
    opt = Adam([Parameter("w", np.zeros((2, 3)))], lr=0.1)
    state = opt.state_dict()
    state[key] = {}
    with pytest.raises(OptimError, match=r"missing \['w'\]"):
        opt.load_state_dict(state)
    state = opt.state_dict()
    state[key]["w"] = np.zeros(6)
    with pytest.raises(OptimError, match=r"shape \(6,\)"):
        opt.load_state_dict(state)
    assert opt.state_dict()["m"]["w"].shape == (2, 3)


@pytest.mark.parametrize("key,value", [("m", np.nan), ("v", np.inf), ("v", -1e-3)])
def test_adam_state_rejects_moments_adam_cannot_step_from(key, value):
    # a negative second moment used to turn the parameters into NaN at
    # the first step, through sqrt(v)
    opt = Adam([Parameter("w", np.zeros((2, 3)))], lr=0.1)
    state = opt.state_dict()
    state[key]["w"][1, 2] = value
    with pytest.raises(OptimError, match="must be finite"):
        opt.load_state_dict(state)


def test_clip_global_norm_pythagorean_case():
    # grads (3, 4) -> global norm 5; cap 1 rescales both by 0.2
    ps = params_with_grads([np.array([3.0]), np.array([4.0])])
    norm = clip_global_norm(ps, 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert np.allclose(ps[0].grad, [0.6])
    assert np.allclose(ps[1].grad, [0.8])


def test_clip_global_norm_no_op_under_cap():
    ps = params_with_grads([np.array([0.3, 0.4])])
    norm = clip_global_norm(ps, 5.0)
    assert abs(norm - 0.5) < 1e-12
    assert np.allclose(ps[0].grad, [0.3, 0.4])
