"""MLP splitting objective: variables, objective terms, penalty and block gradients.

Layer indexing is 0-based: layers 0 .. L-1, where layer L-1 is the output
layer.  Samples sit in columns; per-sample vectors of the scalar formulation
become n x m matrices.

Each term of the objective has one owner here, for the MLP and GCN
trainers and the baselines alike: a ``Risk`` (``mean_risk`` over columns,
``gcn.masked_ce`` over masked rows) holds R's value, gradient and H, the
Lipschitz constant of the gradient, which the output solve steps by and the
descent certificate reads; a ``Regularizer`` its value, gradient, prox and
one on/off test, ``active``.

ReLU is the one activation of both models (the hidden ``z`` update has a
closed form only for it, ``solvers.solve_z_relu``): ``relu`` and
``relu_deriv`` are plain functions, not an option.

This module holds the only copy of the MLP's penalty phi, its residuals,
block gradients, objective_F and Lagrangian.  Each takes the pre-bias
products P_l = W_l a_{l-1} of its state as ``P``: the trainer (``training``)
passes its cache, the finite-difference checks a fresh ``products``.
Sums run in the trainer's order, ((risk + regularizers) + hidden-layer
terms) + output-layer terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .linalg import Matrix, Rng, l2sq, require_finite


def relu(z: Matrix) -> Matrix:
    return np.maximum(z, 0.0)


def relu_deriv(z: Matrix) -> Matrix:
    # The subgradient at 0 is taken as 0 so that gradients of the activation
    # penalty are deterministic at the kink.
    return (z > 0.0).astype(np.float64)


@dataclass(frozen=True)
class Regularizer:
    """lam ||W||_1 or lam ||W||_F^2; a "none" kind or a zero weight is off."""

    kind: str = "none"  # "none", "l1" or "l2"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        require_finite(lam=self.lam)
        if self.lam < 0.0:
            raise ValueError("regularization weight must be nonnegative")

    @property
    def active(self) -> bool:
        return self.kind != "none" and self.lam > 0.0

    def value(self, w: Matrix) -> float:
        if not self.active:
            return 0.0
        if self.kind == "l2":
            return self.lam * l2sq(w)
        return self.lam * float(np.sum(np.abs(w)))

    def grad(self, w: Matrix) -> Matrix:
        """Gradient of an active regularizer, lam sign(W) for l1."""
        return 2.0 * self.lam * w if self.kind == "l2" else self.lam * np.sign(w)

    def prox(self, v: Matrix, step: float) -> Matrix:
        """argmin_w lam Omega(w) + (step/2)||w - v||^2 of an active regularizer."""
        if self.kind == "l2":
            return v / (1.0 + 2.0 * (self.lam / step))
        return np.sign(v) * np.maximum(np.abs(v) - self.lam / step, 0.0)


NO_REG = Regularizer()


@dataclass(frozen=True)
class MlpArchitecture:
    layer_dims: tuple  # (n_0, ..., n_L)
    regularizer: Regularizer = NO_REG
    risk: str = "cross_entropy"  # or "squared"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 3:
            raise ValueError("need at least two layers (three dimension entries)")
        if any(d < 1 for d in dims):
            raise ValueError("all layer dimensions must be >= 1")
        if self.risk not in ("cross_entropy", "squared"):
            raise ValueError(f"unknown risk kind {self.risk!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class Dataset:
    x: Matrix  # n_0 x m
    y: Matrix  # n_L x m

    def __post_init__(self):
        if self.x.shape[1] != self.y.shape[1]:
            raise ShapeError(
                f"sample counts differ: x has {self.x.shape[1]}, y has {self.y.shape[1]}"
            )

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]


@dataclass
class MlpState:
    W: list  # W[l]: n_{l+1} x n_l
    b: list  # b[l]: n_{l+1} x 1
    z: list  # z[l]: n_{l+1} x m
    a: list  # a[l]: n_{l+1} x m, l = 0 .. L-2
    u: Matrix  # n_L x m
    rho: float
    nu: float

    def __post_init__(self):
        if not (len(self.W) == len(self.b) == len(self.z)):
            raise ShapeError("W, b, z must all have one entry per layer")
        if len(self.a) != len(self.W) - 1:
            raise ShapeError("a must have one entry per hidden layer")
        if self.rho <= 0.0 or self.nu <= 0.0:
            raise ValueError("rho and nu must be positive")

    @property
    def n_layers(self) -> int:
        return len(self.W)

    def copy(self) -> "MlpState":
        """New block lists over the same arrays.  Block updates rebind list
        entries and never write into an array, so a copy can be updated
        while the original keeps its values."""
        return MlpState(
            W=list(self.W),
            b=list(self.b),
            z=list(self.z),
            a=list(self.a),
            u=self.u,
            rho=self.rho,
            nu=self.nu,
        )


# ---------------------------------------------------------------------------
# Risks (mean over samples)
# ---------------------------------------------------------------------------

def _log_softmax(z: Matrix) -> Matrix:
    shifted = z - np.max(z, axis=0, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=0, keepdims=True))


def _ce_value(logp: Matrix, y: Matrix, count: int) -> float:
    """Mean cross-entropy over ``count`` samples from their log-softmax."""
    return float(-np.sum(y * logp) / count)


def _ce_grad(logp: Matrix, y: Matrix, count: int) -> Matrix:
    """Gradient of ``_ce_value`` with respect to the logits."""
    return (np.exp(logp) - y) / count


def _memo_last(fn):
    """``fn`` with a one-entry memo keyed by the identity of its argument.

    Identity is a safe key as long as no caller writes into a point after
    passing it: the memo holds a reference to its point, so that object's
    id cannot be reused by a new array while the entry lives.
    """
    point = value = None

    def memoized(z):
        nonlocal point, value
        if z is not point:
            point, value = z, fn(z)
        return value

    return memoized


def risk_curvature(kind: str, count: int) -> float:
    """Lipschitz constant of the gradient of a risk averaged over ``count``
    samples: 1/(2 count) for cross-entropy, by Boehning's bound
    (I - 11^T/K)/2 on the softmax Hessian, and 1/count for the squared risk.
    """
    if kind == "squared":
        return 1.0 / count
    if kind == "cross_entropy":
        return 0.5 / count
    raise ValueError(f"unknown risk kind {kind!r}")


@dataclass(frozen=True)
class Risk:
    """R(z) of the output block z, with H = ``curvature``.  ``minimizer(w_aff,
    u, rho)``, when set, is the exact minimizer of the output subproblem
    R(z) + <u, z - w_aff> + (rho/2)||z - w_aff||^2."""

    value: Callable
    grad: Callable
    curvature: float
    minimizer: Callable = None


def mean_risk(kind: str, y: Matrix) -> Risk:
    """The risk of ``kind`` averaged over the columns of y; cross-entropy's
    value and gradient share the log-softmax of their last point."""
    m = y.shape[1]
    h = risk_curvature(kind, m)
    if kind == "squared":
        return Risk(lambda z: 0.5 * l2sq(z - y) / m, lambda z: (z - y) / m, h,
                    lambda w_aff, u, rho: (y / m + rho * w_aff - u) / (1.0 / m + rho))
    logp = _memo_last(_log_softmax)
    return Risk(lambda z: _ce_value(logp(z), y, m), lambda z: _ce_grad(logp(z), y, m), h)


# ---------------------------------------------------------------------------
# Penalty function, Lagrangian and block gradients
#
# These are the formulas the trainer runs.  Each one that reads the
# pre-bias products P_l = W_l a_{l-1} takes those of ``state`` as ``P``.
# ---------------------------------------------------------------------------

def _a_prev(state: MlpState, data: Dataset, layer: int) -> Matrix:
    return data.x if layer == 0 else state.a[layer - 1]


def products(state: MlpState, data: Dataset) -> list:
    """Fresh pre-bias products W_l a_{l-1}, one per layer."""
    return [state.W[l] @ _a_prev(state, data, l) for l in range(state.n_layers)]


def linear_residual(state: MlpState, data: Dataset, layer: int, P: list) -> Matrix:
    """z_l - W_l a_{l-1} - b_l for the given layer."""
    return state.z[layer] - P[layer] - state.b[layer]


def _residual(state: MlpState, data: Dataset, layer: int, P: list):
    """(r_l, d phi / d r_l) with r_l the layer's linear residual: the
    gradient is nu r_l below the output layer and u + rho r_l at it."""
    r = linear_residual(state, data, layer, P)
    if layer < state.n_layers - 1:
        return r, state.nu * r
    return r, state.u + state.rho * r


def linear_term(state: MlpState, lin: Matrix, is_last: bool, total: float = 0.0) -> float:
    """``total`` plus phi's term of one linear constraint with residual lin:
    (nu/2)||lin||^2 below the output layer, <u, lin> + (rho/2)||lin||^2 at
    it."""
    if is_last:
        return total + float(np.vdot(state.u, lin)) + 0.5 * state.rho * l2sq(lin)
    return total + 0.5 * state.nu * l2sq(lin)


def activation_term(state: MlpState, a: Matrix, fz: Matrix) -> float:
    """phi's term (nu/2)||a_l - f(z_l)||^2 of one hidden layer, given f(z_l)."""
    return 0.5 * state.nu * l2sq(a - fz)


def _hidden_terms(state: MlpState, data: Dataset, P: list, total: float) -> float:
    """``total`` plus phi's terms of the hidden layers, added in layer order."""
    for l in range(state.n_layers - 1):
        total = linear_term(state, linear_residual(state, data, l, P), False, total)
        total += activation_term(state, state.a[l], relu(state.z[l]))
    return total


def phi(state: MlpState, data: Dataset, P: list) -> float:
    last = state.n_layers - 1
    return linear_term(state, linear_residual(state, data, last, P), True,
                       _hidden_terms(state, data, P, 0.0))


def objective_F(state: MlpState, data: Dataset, arch: MlpArchitecture, P: list) -> float:
    """Relaxed training objective: risk + regularizers + nu-penalties only."""
    total = mean_risk(arch.risk, data.y).value(state.z[-1])
    total += sum(arch.regularizer.value(w) for w in state.W)
    return _hidden_terms(state, data, P, total)


def objective_and_lagrangian(state: MlpState, data: Dataset, arch: MlpArchitecture, P: list,
                             r: Matrix) -> tuple:
    """(objective_F, Lagrangian) of ``state``: the Lagrangian adds the output
    layer's dual and rho terms, read from r, the output-layer residual, to
    objective_F."""
    total = objective_F(state, data, arch, P)
    return total, linear_term(state, r, True, total)


def lagrangian(state: MlpState, data: Dataset, arch: MlpArchitecture, P: list) -> float:
    r = linear_residual(state, data, state.n_layers - 1, P)
    return objective_and_lagrangian(state, data, arch, P, r)[1]


def grad_W(state: MlpState, data: Dataset, layer: int, P: list):
    """Gradient of phi in W_l, and the layer residual r_l it reads."""
    r, scaled = _residual(state, data, layer, P)
    return -(scaled @ _a_prev(state, data, layer).T), r


def grad_a(state: MlpState, data: Dataset, layer: int, fz: Matrix, P: list):
    """Gradient of phi in a_l given f(z_l), the layer l+1 residual it reads,
    and phi's activation term (nu/2)||a_l - f(z_l)||^2 from the same
    difference (``activation_term`` of a_l)."""
    lin, scaled = _residual(state, data, layer + 1, P)
    grad = state.a[layer] - fz
    act = 0.5 * state.nu * l2sq(grad)
    grad *= state.nu
    grad -= state.W[layer + 1].T @ scaled
    return grad, lin, act


def grad_phi_block(state: MlpState, data: Dataset, block: str, layer: int, P: list) -> Matrix:
    """Gradient of phi w.r.t. one block, all other blocks held fixed.

    block is one of "W", "b", "z", "a"; layer is 0-based.  "a" is defined for
    layers 0..L-2; "z" for any layer (the last layer's phi-part is smooth).
    """
    last = state.n_layers - 1
    if block not in ("W", "b", "z", "a"):
        raise ValueError(f"unknown block {block!r}")
    if not 0 <= layer <= (last - 1 if block == "a" else last):
        raise IndexError(f"layer {layer} out of range for block {block}")
    if block == "W":
        return grad_W(state, data, layer, P)[0]
    if block == "b":
        return -np.sum(_residual(state, data, layer, P)[1], axis=1, keepdims=True)
    if block == "a":
        return grad_a(state, data, layer, relu(state.z[layer]), P)[0]
    _, scaled = _residual(state, data, layer, P)
    if layer == last:
        return scaled
    act_res = state.a[layer] - relu(state.z[layer])
    return scaled - state.nu * act_res * relu_deriv(state.z[layer])


# ---------------------------------------------------------------------------
# Initialization and prediction
# ---------------------------------------------------------------------------

def glorot(rng: Rng, shape: tuple) -> Matrix:
    """Glorot-uniform weights: U(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-s, s, shape)


def forward(W: list, b: list, x: Matrix) -> tuple:
    """Exact feed-forward pass: (z, a), the pre-activations of every layer
    and the activations of the hidden ones, as ``MlpState`` holds them."""
    z, a = [], []
    for l in range(len(W)):
        z.append(W[l] @ (x if l == 0 else a[-1]) + b[l])
        if l < len(W) - 1:
            a.append(relu(z[-1]))
    return z, a


def forward_init(arch: MlpArchitecture, data: Dataset, rng: Rng, rho: float, nu: float) -> MlpState:
    """Glorot-uniform weights, zero biases, exact forward pass for z and a."""
    dims = arch.layer_dims
    W = [glorot(rng, (dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    b = [np.zeros((d, 1)) for d in dims[1:]]
    z, a = forward(W, b, data.x)
    return MlpState(W=W, b=b, z=z, a=a, u=np.zeros((dims[-1], data.n_samples)), rho=rho, nu=nu)


def forward_logits(W: list, b: list, x: Matrix) -> Matrix:
    cur = x
    for l in range(len(W) - 1):
        cur = relu(W[l] @ cur + b[l])
    return W[-1] @ cur + b[-1]


def accuracy(logits: Matrix, y: Matrix) -> float:
    return float(np.mean(np.argmax(logits, axis=0) == np.argmax(y, axis=0)))
