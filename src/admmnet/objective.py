"""MLP splitting objective: variables, objective terms, penalty and block gradients.

Layer indexing is 0-based: layers 0 .. L-1, where layer L-1 is the output
layer.  Samples sit in columns; per-sample vectors of the scalar formulation
become n x m matrices.

Each term of the objective has one owner here, for the MLP and GCN
trainers and the baselines alike: a ``Risk`` (``mean_risk`` over columns,
``gcn.masked_ce`` over masked rows) holds R's value, gradient, H (the
gradient's Lipschitz constant, read by the descent certificate and the
GCN's FISTA) and what an exact output solve needs, and ``mean_risk`` alone
tells the risk kinds apart; a ``Regularizer`` holds its value, gradient,
prox and one on/off test, ``active``, which is its weight being positive.
Each run builds one ``Risk``, and every formula that evaluates R takes it,
so all share one cross-entropy memo.

ReLU is the one activation of both models (the hidden ``z`` update has a
closed form only for it, ``solvers.solve_z_relu``): ``relu`` and
``relu_deriv`` are plain functions, not an option.

This module holds the only copy of the MLP's penalty phi, its residuals,
block gradients, objective_F and Lagrangian.  Each takes the layer
residuals R_l = z_l - W_l a_{l-1} - b_l of its state as ``R``: the trainer
(``training``) passes its cache, the finite-difference checks a fresh
``residuals``.  Sums run in the trainer's order, ((risk + regularizers) +
hidden-layer terms) + output-layer terms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ShapeError
from .linalg import Matrix, Rng, is_index, l2sq, require_finite


def relu(z: Matrix) -> Matrix:
    return np.maximum(z, 0.0)


def relu_deriv(z: Matrix) -> Matrix:
    # The subgradient at 0 is taken as 0 so that gradients of the activation
    # penalty are deterministic at the kink.
    return (z > 0.0).astype(np.float64)


@dataclass(frozen=True)
class Regularizer:
    """lam ||W||_1 or lam ||W||_F^2, off at weight 0: ``Regularizer()`` is
    ``NO_REG``."""

    kind: str = "l2"  # "l1" or "l2"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("l1", "l2"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        require_finite(lam=self.lam)
        if self.lam < 0.0:
            raise ValueError("regularization weight must be nonnegative")

    @property
    def active(self) -> bool:
        return self.lam > 0.0

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
        if len(self.layer_dims) < 3:
            raise ValueError("need at least two layers (three dimension entries)")
        if not all(is_index(d, 1) for d in self.layer_dims):
            raise ValueError("all layer dimensions must be >= 1")
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
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
        x, y = np.shape(self.x), np.shape(self.y)
        if len(x) != 2 or len(y) != 2 or x[1] != y[1]:
            raise ShapeError(f"x and y must be 2-D with one column per sample, not {x} and {y}")

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]


def check_fit(arch: MlpArchitecture, data: Dataset, eval_data: Dataset) -> None:
    """ShapeError unless data and eval_data (if given) have arch's input and output widths."""
    dims = arch.layer_dims
    for name, d in (("data", data), ("eval_data", eval_data)):
        if d is not None and (d.x.shape[0], d.y.shape[0]) != (dims[0], dims[-1]):
            raise ShapeError(f"{name} does not fit layers {dims}: it has {d.x.shape[0]} inputs "
                             f"and {d.y.shape[0]} classes, not {dims[0]} and {dims[-1]}")


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
        return replace(self, W=list(self.W), b=list(self.b), z=list(self.z), a=list(self.a))


# ---------------------------------------------------------------------------
# Risks (mean over samples)
# ---------------------------------------------------------------------------

def _log_softmax(z: Matrix) -> Matrix:
    shifted = z - np.max(z, axis=0, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=0, keepdims=True))


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


@dataclass(frozen=True)
class Risk:
    """R(z) of the output block z, with H = ``curvature``.  ``minimizer(w_aff,
    u, rho)`` is the output subproblem's minimizer, ``newton(z, g, rho)`` its
    Newton direction (Hessian of R at z + rho I)^{-1} g, where R has them."""

    value: Callable
    grad: Callable
    curvature: float
    minimizer: Callable = None
    newton: Callable = None


def mean_risk(kind: str, y: Matrix) -> Risk:
    """The risk of ``kind`` averaged over the m columns of y: the one place
    that tells the kinds apart.  The squared risk has H = 1/m and a closed-form
    output minimizer.  Cross-entropy has H = 1/(2m), by Boehning's bound
    (I - 11^T/K)/2 on the softmax Hessian, and its oracles share their last
    point's log-softmax.  Its Hessian + rho I, per column D - p p^T/m
    (p = softmax, D = p/m + rho), has Sherman-Morrison's inverse, whose
    m - p^T (p/D) is m rho sum(p/D) as sum(p) = 1."""
    m = y.shape[1]
    if kind == "squared":
        return Risk(lambda z: 0.5 * l2sq(z - y) / m, lambda z: (z - y) / m, 1.0 / m,
                    lambda w_aff, u, rho: (y / m + rho * w_aff - u) / (1.0 / m + rho))
    if kind != "cross_entropy":
        raise ValueError(f"unknown risk kind {kind!r}")
    logp = _memo_last(_log_softmax)

    def newton(z, g, rho):
        p = np.exp(logp(z))
        q, s = g / (p / m + rho), p / (p / m + rho)
        return q + s * (np.sum(p * q, axis=0) / (m * rho * np.sum(s, axis=0)))

    return Risk(lambda z: float(-np.sum(y * logp(z)) / m), lambda z: (np.exp(logp(z)) - y) / m,
                0.5 / m, newton=newton)


# ---------------------------------------------------------------------------
# Penalty function, Lagrangian and block gradients
#
# These are the formulas the trainer runs.  Each one that reads the layer
# residuals R_l = z_l - W_l a_{l-1} - b_l takes those of ``state`` as ``R``.
# ---------------------------------------------------------------------------

def _a_prev(state: MlpState, data: Dataset, layer: int) -> Matrix:
    return data.x if layer == 0 else state.a[layer - 1]


def linear_residual(state: MlpState, data: Dataset, layer: int) -> Matrix:
    """z_l - W_l a_{l-1} - b_l for the given layer, formed fresh."""
    return state.z[layer] - state.W[layer] @ _a_prev(state, data, layer) - state.b[layer]


def residuals(state: MlpState, data: Dataset) -> list:
    """Fresh layer residuals, one per layer: the ``R`` of ``state``."""
    return [linear_residual(state, data, l) for l in range(state.n_layers)]


def _slope(state: MlpState, layer: int, r: Matrix) -> Matrix:
    """d phi / d r_l at the layer residual r_l: nu r_l below the output
    layer and u + rho r_l at it."""
    if layer < state.n_layers - 1:
        return state.nu * r
    return state.u + state.rho * r


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


def _hidden_terms(state: MlpState, R: list, total: float) -> float:
    """``total`` plus phi's terms of the hidden layers, added in layer order."""
    for l in range(state.n_layers - 1):
        total = linear_term(state, R[l], False, total)
        total += activation_term(state, state.a[l], relu(state.z[l]))
    return total


def phi(state: MlpState, R: list) -> float:
    return linear_term(state, R[-1], True, _hidden_terms(state, R, 0.0))


def loss(risk: Risk, regularizer: Regularizer, z_last: Matrix, W: list) -> float:
    """R(z_last) + the regularizers of W added in layer order: objective_F's
    head and the baselines' loss."""
    reg = 0.0
    for w in W:  # one by one: sum() of floats compensates from Python 3.12 on
        reg += regularizer.value(w)
    return risk.value(z_last) + reg


def objective_F(state: MlpState, risk: Risk, regularizer: Regularizer, R: list) -> float:
    """Relaxed training objective: risk + regularizers + nu-penalties only."""
    return _hidden_terms(state, R, loss(risk, regularizer, state.z[-1], state.W))


def objective_and_lagrangian(state: MlpState, risk: Risk, regularizer: Regularizer,
                             R: list) -> tuple:
    """(objective_F, Lagrangian) of ``state``: the Lagrangian adds the output
    layer's dual and rho terms, read from its residual R[-1], to
    objective_F."""
    total = objective_F(state, risk, regularizer, R)
    return total, linear_term(state, R[-1], True, total)


def lagrangian(state: MlpState, risk: Risk, regularizer: Regularizer, R: list) -> float:
    return objective_and_lagrangian(state, risk, regularizer, R)[1]


def grad_W(state: MlpState, data: Dataset, layer: int, R: list) -> Matrix:
    """Gradient of phi in W_l.  Below the output layer nu scales the
    n_{l+1} x n_l product, not r_l."""
    r, a_prev = R[layer], _a_prev(state, data, layer)
    if layer < state.n_layers - 1:
        return -state.nu * (r @ a_prev.T)
    return -(_slope(state, layer, r) @ a_prev.T)


def grad_a(state: MlpState, layer: int, fz: Matrix, R: list) -> tuple:
    """Gradient of phi in a_l given f(z_l), and phi's activation term
    (nu/2)||a_l - f(z_l)||^2 from the same difference (``activation_term``
    of a_l)."""
    grad = state.a[layer] - fz
    act = 0.5 * state.nu * l2sq(grad)
    grad *= state.nu
    grad -= state.W[layer + 1].T @ _slope(state, layer + 1, R[layer + 1])
    return grad, act


def grad_phi_block(state: MlpState, data: Dataset, block: str, layer: int, R: list) -> Matrix:
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
        return grad_W(state, data, layer, R)
    if block == "b":
        if layer < last:  # nu scales the n_{l+1} x 1 sum, not r_l
            return -state.nu * np.sum(R[layer], axis=1, keepdims=True)
        return -np.sum(_slope(state, layer, R[layer]), axis=1, keepdims=True)
    if block == "a":
        return grad_a(state, layer, relu(state.z[layer]), R)[0]
    scaled = _slope(state, layer, R[layer])
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
        z.append(W[l] @ (x if l == 0 else a[-1]))
        z[-1] += b[l]  # in place: the product is a new array
        if l < len(W) - 1:
            a.append(relu(z[-1]))
    return z, a


def init_weights(dims: tuple, rng: Rng) -> tuple:
    """(W, b) of an MLP of layer widths ``dims``: Glorot-uniform weights and
    zero biases, the start that ADMM and the baselines share."""
    W = [glorot(rng, (dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    return W, [np.zeros((d, 1)) for d in dims[1:]]


def forward_init(arch: MlpArchitecture, data: Dataset, rng: Rng, rho: float, nu: float) -> tuple:
    """``init_weights``, then the exact forward pass for z and a.  Returns
    the state and its residuals R, taken from the pass's own products: the
    biases are zero, so each z_l is the product W_l a_{l-1} itself, and
    z_l - z_l - b_l is bit for bit the fresh ``residuals``."""
    W, b = init_weights(arch.layer_dims, rng)
    z, a = forward(W, b, data.x)
    R = [zl - zl - bl for zl, bl in zip(z, b)]
    return MlpState(W=W, b=b, z=z, a=a, u=np.zeros(z[-1].shape), rho=rho, nu=nu), R


def forward_logits(W: list, b: list, x: Matrix) -> Matrix:
    """The output layer's pre-activations of ``forward``."""
    return forward(W, b, x)[0][-1]


def accuracy(logits: Matrix, y: Matrix) -> float:
    return float(np.mean(np.argmax(logits, axis=0) == np.argmax(y, axis=0)))
