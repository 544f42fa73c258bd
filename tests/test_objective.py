import math
import re

import numpy as np
import pytest

import admmnet.objective as objective
from admmnet.errors import ShapeError
from admmnet.linalg import Rng, l2sq
from admmnet.objective import (
    Dataset,
    MlpArchitecture,
    MlpState,
    Regularizer,
    forward_init,
    grad_phi_block,
    lagrangian,
    objective_F,
    phi,
    residuals,
    mean_risk,
    relu,
    relu_deriv,
)
from admmnet.gcn import masked_ce


def softmax(z):
    """Column-wise softmax, the reference for the cross-entropy gradient."""
    e = np.exp(z - np.max(z, axis=0, keepdims=True))
    return e / np.sum(e, axis=0, keepdims=True)


def random_state(arch, m, seed, rho=1.0, nu=1.0, perturb=0.3):
    rng = Rng(seed)
    dims = arch.layer_dims
    x = rng.normal(0.0, 1.0, (dims[0], m))
    y = np.zeros((dims[-1], m))
    y[rng.integers(0, dims[-1], m), np.arange(m)] = 1.0
    data = Dataset(x, y)
    state = forward_init(arch, data, rng, rho=rho, nu=nu)[0]
    for lst in (state.z, state.a, state.b):
        for i, p in enumerate(lst):
            lst[i] = p + perturb * rng.normal(0.0, 1.0, p.shape)
    state.u = rng.normal(0.0, 1.0, state.u.shape)
    return state, data


def terms(arch, data):
    """The risk and regularizer that a run of ``arch`` on ``data`` holds."""
    return mean_risk(arch.risk, data.y), arch.regularizer


@pytest.mark.parametrize("x, y", [
    (np.ones(4), np.ones((2, 4))),
    (np.ones((3, 4)), np.ones(4)),
    (np.ones((3, 4, 1)), np.ones((2, 4))),
    (np.ones((3, 4)), np.ones((2, 5))),
], ids=["x-1d", "y-1d", "x-3d", "counts"])
def test_dataset_arrays_validated(x, y):
    """x and y are matrices with one column per sample."""
    want = f"x and y must be 2-D with one column per sample, not {x.shape} and {y.shape}"
    with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
        Dataset(x, y)


def test_phi_zero_at_consistent_point():
    arch = MlpArchitecture(layer_dims=(2, 3, 2))
    rng = Rng(0)
    data = Dataset(rng.normal(0, 1, (2, 4)), np.tile([[1.0], [0.0]], (1, 4)))
    state = forward_init(arch, data, rng, rho=1.0, nu=1.0)[0]
    assert phi(state, residuals(state, data)) == 0.0


def test_phi_hand_case_scalar_net():
    # one hidden unit, nu=2, rho=2, u=0: z1=1 with W1 a0 + b1 = 0 and a1 = f(1)=1
    arch = MlpArchitecture(layer_dims=(1, 1, 1))
    data = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    state = MlpState(
        W=[np.array([[0.0]]), np.array([[1.0]])],
        b=[np.array([[0.0]]), np.array([[0.0]])],
        z=[np.array([[1.0]]), np.array([[1.0]])],
        a=[np.array([[1.0]])],
        u=np.array([[0.0]]),
        rho=2.0,
        nu=2.0,
    )
    # phi = (nu/2)[(1-0)^2 + (1-1)^2] + 0 + (rho/2)(1-1)^2 = 1
    assert phi(state, residuals(state, data)) == pytest.approx(1.0, abs=1e-12)


def test_phi_ignores_dual_when_residual_zero():
    arch = MlpArchitecture(layer_dims=(2, 3, 2))
    rng = Rng(1)
    data = Dataset(rng.normal(0, 1, (2, 4)), np.tile([[1.0], [0.0]], (1, 4)))
    state = forward_init(arch, data, rng, rho=1.0, nu=1.0)[0]
    base = phi(state, residuals(state, data))
    state.u = rng.normal(0, 1, state.u.shape) * 100.0
    assert phi(state, residuals(state, data)) == pytest.approx(base, abs=1e-12)


def test_risk_squared_zero_at_fit():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mean_risk("squared", y).value(y.copy()) == 0.0


def test_risk_cross_entropy_uniform_logits():
    k, m = 5, 3
    z = np.ones((k, m)) * 0.7
    y = np.zeros((k, m))
    y[0] = 1.0
    assert mean_risk("cross_entropy", y).value(z) == pytest.approx(np.log(k), rel=1e-12)


def test_risk_grad_is_softmax_minus_y_over_m():
    rng = Rng(3)
    z = rng.normal(0, 1, (4, 6))
    y = np.zeros((4, 6))
    y[rng.integers(0, 4, 6), np.arange(6)] = 1.0
    g = mean_risk("cross_entropy", y).grad(z)
    assert np.allclose(g, (softmax(z) - y) / 6, atol=1e-12)
    # finite differences
    h = 1e-6
    num = np.zeros_like(z)
    for idx in np.ndindex(*z.shape):
        zp = z.copy(); zp[idx] += h
        zm = z.copy(); zm[idx] -= h
        value = mean_risk("cross_entropy", y).value
        num[idx] = (value(zp) - value(zm)) / (2 * h)
    assert np.max(np.abs(g - num)) < 1e-8


def test_lagrangian_decomposition():
    arch = MlpArchitecture(layer_dims=(3, 4, 2), regularizer=Regularizer("l2", 0.1))
    state, data = random_state(arch, 5, seed=4)
    R = residuals(state, data)
    total = lagrangian(state, *terms(arch, data), R)
    parts = (
        mean_risk(arch.risk, data.y).value(state.z[-1])
        + sum(arch.regularizer.value(w) for w in state.W)
        + phi(state, R)
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_regularizer_total_added_in_layer_order(monkeypatch):
    """objective_F adds the layers' regularizer values one at a time, so its
    total is the same on every Python: from 3.12 the built-in ``sum`` of
    floats is compensated, here stood in for by ``math.fsum``."""
    arch = MlpArchitecture(layer_dims=(1, 1, 1, 1), regularizer=Regularizer("l2", 1.0),
                           risk="squared")
    zero = np.zeros((1, 1))
    data = Dataset(zero, zero)
    state = MlpState(W=[np.array([[1.0]]), np.array([[1e-8]]), np.array([[1e-8]])],
                     b=[zero] * 3, z=[zero] * 3, a=[zero] * 2, u=zero, rho=1.0, nu=1.0)
    R = residuals(state, data)
    assert objective_F(state, *terms(arch, data), R) == 1.0  # 1 + 1e-16 + 1e-16, rounded each step
    monkeypatch.setattr(objective, "sum", math.fsum, raising=False)
    assert objective_F(state, *terms(arch, data), R) == 1.0


def test_l2_regularizer_term():
    arch = MlpArchitecture(layer_dims=(3, 4, 2), regularizer=Regularizer("l2", 0.5))
    plain = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=5)
    R = residuals(state, data)
    diff = lagrangian(state, *terms(arch, data), R) - lagrangian(state, *terms(plain, data), R)
    assert diff == pytest.approx(0.5 * sum(l2sq(w) for w in state.W), rel=1e-12)


def test_dual_shift_identity():
    # replacing u by u + rho*r changes L_rho by rho*||r||^2
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=6)
    r = state.z[-1] - state.W[-1] @ state.a[-1] - state.b[-1]
    before = lagrangian(state, *terms(arch, data), residuals(state, data))
    state.u = state.u + state.rho * r
    after = lagrangian(state, *terms(arch, data), residuals(state, data))
    assert after - before == pytest.approx(state.rho * l2sq(r), rel=1e-9)


def test_objective_F_identity():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=7)
    r = state.z[-1] - state.W[-1] @ state.a[-1] - state.b[-1]
    expect = (
        lagrangian(state, *terms(arch, data), residuals(state, data))
        - float(np.vdot(state.u, r))
        - 0.5 * state.rho * l2sq(r)
    )
    value = objective_F(state, *terms(arch, data), residuals(state, data))
    assert value == pytest.approx(expect, rel=1e-10)


def test_objective_F_nonnegative():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=8)
    assert objective_F(state, *terms(arch, data), residuals(state, data)) >= 0.0


@pytest.mark.parametrize("risk_kind", ["cross_entropy", "squared"])
@pytest.mark.parametrize("block", ["W", "b", "z", "a"])
def test_grad_phi_finite_differences(block, risk_kind):
    arch = MlpArchitecture(layer_dims=(3, 4, 3, 2), risk=risk_kind)
    state, data = random_state(arch, 4, seed=9)
    h = 1e-6
    layers = range(arch.n_layers - 1) if block in ("a", "z") else range(arch.n_layers)
    # z gradient of phi is only defined below the output layer
    store = {"W": state.W, "b": state.b, "z": state.z, "a": state.a}[block]
    for layer in layers:
        g = grad_phi_block(state, data, block, layer, residuals(state, data))
        num = np.zeros_like(g)
        for idx in np.ndindex(*g.shape):
            orig = store[layer][idx]
            store[layer][idx] = orig + h
            fp = phi(state, residuals(state, data))
            store[layer][idx] = orig - h
            fm = phi(state, residuals(state, data))
            store[layer][idx] = orig
            num[idx] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(g - num)) / scale < 1e-5


def test_grad_phi_zero_at_feasible_point():
    arch = MlpArchitecture(layer_dims=(2, 3, 2))
    rng = Rng(10)
    data = Dataset(rng.normal(0, 1, (2, 4)), np.tile([[1.0], [0.0]], (1, 4)))
    state = forward_init(arch, data, rng, rho=1.0, nu=1.0)[0]
    R = residuals(state, data)
    for block in ("W", "b"):
        for layer in range(2):
            assert np.allclose(grad_phi_block(state, data, block, layer, R), 0.0, atol=1e-12)
    assert np.allclose(grad_phi_block(state, data, "z", 0, R), 0.0, atol=1e-12)
    assert np.allclose(grad_phi_block(state, data, "a", 0, R), 0.0, atol=1e-12)


def test_grad_b_last_hand_form():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=11)
    r = state.z[-1] - state.W[-1] @ state.a[-1] - state.b[-1]
    expect = -np.sum(state.u + state.rho * r, axis=1, keepdims=True)
    got = grad_phi_block(state, data, "b", arch.n_layers - 1, residuals(state, data))
    assert np.allclose(got, expect, atol=1e-10)


def test_grad_phi_errors():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    state, data = random_state(arch, 5, seed=12)
    R = residuals(state, data)
    with pytest.raises(IndexError):
        grad_phi_block(state, data, "W", 5, R)
    with pytest.raises(ValueError):
        grad_phi_block(state, data, "q", 0, R)


def test_forward_init_contract():
    arch = MlpArchitecture(layer_dims=(2, 3, 2))
    rng = Rng(13)
    data = Dataset(rng.normal(0, 1, (2, 4)), np.tile([[1.0], [0.0]], (1, 4)))
    s1, R = forward_init(arch, data, Rng(42), rho=1.0, nu=1.0)
    s2 = forward_init(arch, data, Rng(42), rho=1.0, nu=1.0)[0]
    assert phi(s1, residuals(s1, data)) == 0.0
    # the returned residuals are the fresh ones, bit for bit
    assert all(np.array_equal(c, f) for c, f in zip(R, residuals(s1, data)))
    assert all(np.array_equal(a, b) for a, b in zip(s1.W, s2.W))
    assert s1.W[0].shape == (3, 2) and s1.W[1].shape == (2, 3)
    assert all(np.all(b == 0) for b in s1.b)
    assert np.all(s1.u == 0)


def test_relu_is_the_one_activation():
    """ReLU has no option to set: the architecture has no activation,
    neither as an attribute nor as a constructor argument, and ``relu`` and
    ``relu_deriv`` are plain functions."""
    assert not hasattr(MlpArchitecture(layer_dims=(2, 3, 2)), "activation")
    with pytest.raises(TypeError):
        MlpArchitecture(layer_dims=(2, 3, 2), activation=None)
    z = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu(z), [[0.0, 0.0, 2.0]])
    assert np.array_equal(relu_deriv(z), [[0.0, 0.0, 1.0]])  # 0 at the kink


def test_cross_entropy_secant_lipschitz():
    rng = Rng(14)
    m = 5
    y = np.zeros((4, m))
    y[rng.integers(0, 4, m), np.arange(m)] = 1.0
    for _ in range(50):
        z1 = rng.normal(0, 2, (4, m))
        z2 = rng.normal(0, 2, (4, m))
        g1 = mean_risk("cross_entropy", y).grad(z1)
        g2 = mean_risk("cross_entropy", y).grad(z2)
        num = np.sqrt(l2sq(g1 - g2))
        den = np.sqrt(l2sq(z1 - z2))
        assert num <= (1.0 + 1e-9) * den


def top_hessian_eigenvalue(grad, z, rng, iters=200, h=1e-5):
    """Power iteration on central-difference Hessian-vector products."""
    v = rng.normal(0.0, 1.0, z.shape)
    lam = 0.0
    for _ in range(iters):
        v = v / np.sqrt(l2sq(v))
        hv = (grad(z + h * v) - grad(z - h * v)) / (2.0 * h)
        lam, v = float(np.vdot(v, hv)), hv
    return lam


@pytest.mark.parametrize("kind", ["cross_entropy", "squared"])
def test_risk_curvature_bounds_hessian(kind):
    rng = Rng(15)
    for k, m, scale in ((2, 7, 0.0), (2, 30, 1.0), (5, 12, 0.5), (10, 40, 3.0)):
        y = np.zeros((k, m))
        y[rng.integers(0, k, m), np.arange(m)] = 1.0
        z = scale * rng.normal(0.0, 1.0, (k, m))
        risk_m = mean_risk(kind, y)
        lam = top_hessian_eigenvalue(risk_m.grad, z, rng)
        bound = risk_m.curvature
        assert bound == (1.0 / m if kind == "squared" else 0.5 / m)
        assert lam <= bound * (1.0 + 1e-6)
        if scale == 0.0 or kind == "squared":
            # uniform two-class logits attain Boehning's bound; the squared
            # risk's Hessian is I/m everywhere
            assert lam >= bound * (1.0 - 1e-6)


def test_risk_curvature_bounds_masked_gcn_hessian():
    rng = Rng(16)
    for n, k, scale in ((20, 2, 0.0), (50, 3, 1.0), (80, 4, 2.0)):
        labels = np.eye(k)[rng.integers(0, k, n)]
        mask = rng.random(n) < 0.4
        mask[0] = True
        z = scale * rng.normal(0.0, 1.0, (n, k))
        risk_m = masked_ce(labels, mask)
        lam = top_hessian_eigenvalue(risk_m.grad, z, rng)
        bound = risk_m.curvature
        assert bound == 0.5 / int(np.sum(mask))  # 0.5/n_train
        assert lam <= bound * (1.0 + 1e-6)
        if scale == 0.0:
            assert lam >= bound * (1.0 - 1e-6)


def test_risk_curvature_unknown_kind():
    with pytest.raises(ValueError):
        mean_risk("hinge", np.zeros((2, 10)))


def test_regularizer_has_no_none_kind():
    """A zero weight is the one off state: there is no "none" kind, and
    ``Regularizer()``, l2 at weight 0, is off and the architecture's
    default."""
    with pytest.raises(ValueError, match="unknown regularizer kind"):
        Regularizer("none", 0.5)
    assert not Regularizer().active and Regularizer() == Regularizer("l2", 0.0)
    assert MlpArchitecture(layer_dims=(2, 3, 2)).regularizer == Regularizer()


@pytest.mark.parametrize("dims", [(4.7, 6, 2), (4, 6.0, 2), (4, "6", 2), (4, 0, 2)])
def test_architecture_rejects_a_width_that_is_no_positive_integer(dims):
    with pytest.raises(ValueError, match="all layer dimensions must be >= 1"):
        MlpArchitecture(layer_dims=dims)


def test_architecture_takes_numpy_integer_widths():
    dims = MlpArchitecture(layer_dims=np.array([4, 6, 2])).layer_dims
    assert dims == (4, 6, 2) and all(type(d) is int for d in dims)


def test_state_copy_has_new_block_lists_over_the_same_arrays():
    """``MlpState.copy`` gives new W, b, z, a lists holding the same arrays,
    and keeps u, rho and nu by identity."""
    state = random_state(MlpArchitecture(layer_dims=(3, 4, 2)), 5, seed=3)[0]
    new = state.copy()
    for name in ("W", "b", "z", "a"):
        old_list, new_list = getattr(state, name), getattr(new, name)
        assert new_list is not old_list
        assert all(x is y for x, y in zip(new_list, old_list)) and len(new_list) == len(old_list)
    assert new.u is state.u and new.rho is state.rho and new.nu is state.nu
