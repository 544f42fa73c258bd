"""MLP splitting objective: variables, penalty function, risks and block gradients.

Layer indexing is 0-based: layers 0 .. L-1, where layer L-1 is the output
layer.  Samples sit in columns; per-sample vectors of the scalar formulation
become n x m matrices.  Risks are means over samples, so the Lipschitz
constant of their gradient shrinks with the sample count:
``risk_curvature`` gives it, and the output-block FISTA steps by it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import RELU, Activation
from .errors import ShapeError
from .linalg import Matrix, Rng, l2sq

@dataclass(frozen=True)
class Regularizer:
    kind: str = "none"  # "none", "l1" or "l2"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0.0:
            raise ValueError("regularization weight must be nonnegative")

    def value(self, w: Matrix) -> float:
        if self.kind == "none" or self.lam == 0.0:
            return 0.0
        if self.kind == "l2":
            return self.lam * l2sq(w)
        return self.lam * float(np.sum(np.abs(w)))


NO_REG = Regularizer()


@dataclass(frozen=True)
class MlpArchitecture:
    layer_dims: tuple  # (n_0, ..., n_L)
    activation: Activation = RELU
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


def softmax(z: Matrix) -> Matrix:
    return np.exp(_log_softmax(z))


def _ce_value(logp: Matrix, y: Matrix, count: int) -> float:
    """Mean cross-entropy over ``count`` samples from their log-softmax."""
    return float(-np.sum(y * logp) / count)


def _ce_grad(logp: Matrix, y: Matrix, count: int) -> Matrix:
    """Gradient of ``_ce_value`` with respect to the logits."""
    return (np.exp(logp) - y) / count


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


def risk(z_last: Matrix, y: Matrix, kind: str) -> float:
    if z_last.shape != y.shape:
        raise ShapeError(f"risk: shapes differ, {z_last.shape} vs {y.shape}")
    m = z_last.shape[1]
    if kind == "squared":
        return 0.5 * l2sq(z_last - y) / m
    if kind == "cross_entropy":
        return _ce_value(_log_softmax(z_last), y, m)
    raise ValueError(f"unknown risk kind {kind!r}")


def risk_grad(z_last: Matrix, y: Matrix, kind: str) -> Matrix:
    m = z_last.shape[1]
    if kind == "squared":
        return (z_last - y) / m
    if kind == "cross_entropy":
        return _ce_grad(_log_softmax(z_last), y, m)
    raise ValueError(f"unknown risk kind {kind!r}")


# ---------------------------------------------------------------------------
# Penalty function and friends
# ---------------------------------------------------------------------------

def _a_prev(state: MlpState, data: Dataset, layer: int) -> Matrix:
    return data.x if layer == 0 else state.a[layer - 1]


def linear_residual(state: MlpState, data: Dataset, layer: int) -> Matrix:
    """z_l - W_l a_{l-1} - b_l for the given layer."""
    return state.z[layer] - state.W[layer] @ _a_prev(state, data, layer) - state.b[layer]


def phi(state: MlpState, data: Dataset, activation: Activation = RELU) -> float:
    last = state.n_layers - 1
    total = 0.0
    for l in range(last):
        total += 0.5 * state.nu * l2sq(linear_residual(state, data, l))
        total += 0.5 * state.nu * l2sq(state.a[l] - activation.value(state.z[l]))
    r = linear_residual(state, data, last)
    total += float(np.vdot(state.u, r)) + 0.5 * state.rho * l2sq(r)
    return total


def lagrangian(state: MlpState, data: Dataset, arch: MlpArchitecture) -> float:
    reg = sum(arch.regularizer.value(w) for w in state.W)
    return risk(state.z[-1], data.y, arch.risk) + reg + phi(state, data, arch.activation)


def objective_F(state: MlpState, data: Dataset, arch: MlpArchitecture) -> float:
    """Relaxed training objective: risk + regularizers + nu-penalties only."""
    total = risk(state.z[-1], data.y, arch.risk)
    total += sum(arch.regularizer.value(w) for w in state.W)
    for l in range(state.n_layers - 1):
        total += 0.5 * state.nu * l2sq(linear_residual(state, data, l))
        total += 0.5 * state.nu * l2sq(state.a[l] - arch.activation.value(state.z[l]))
    return total


def grad_phi_block(
    state: MlpState,
    data: Dataset,
    block: str,
    layer: int,
    activation: Activation = RELU,
) -> Matrix:
    """Gradient of phi w.r.t. one block, all other blocks held fixed.

    block is one of "W", "b", "z", "a"; layer is 0-based.  "a" is defined for
    layers 0..L-2; "z" for any layer (the last layer's phi-part is smooth).
    """
    last = state.n_layers - 1
    nu, rho = state.nu, state.rho

    if block in ("W", "b"):
        if not 0 <= layer <= last:
            raise IndexError(f"layer {layer} out of range for block {block}")
        res = linear_residual(state, data, layer)
        scaled = nu * res if layer < last else state.u + rho * res
        if block == "b":
            return -np.sum(scaled, axis=1, keepdims=True)
        return -scaled @ _a_prev(state, data, layer).T

    if block == "z":
        if not 0 <= layer <= last:
            raise IndexError(f"layer {layer} out of range for block z")
        res = linear_residual(state, data, layer)
        if layer == last:
            return state.u + rho * res
        act_res = state.a[layer] - activation.value(state.z[layer])
        return nu * res - nu * act_res * activation.deriv(state.z[layer])

    if block == "a":
        if not 0 <= layer <= last - 1:
            raise IndexError(f"layer {layer} out of range for block a")
        g = nu * (state.a[layer] - activation.value(state.z[layer]))
        nxt = layer + 1
        res = linear_residual(state, data, nxt)
        scaled = nu * res if nxt < last else state.u + rho * res
        return g - state.W[nxt].T @ scaled

    raise ValueError(f"unknown block {block!r}")


# ---------------------------------------------------------------------------
# Initialization and prediction
# ---------------------------------------------------------------------------

def forward_init(
    arch: MlpArchitecture,
    data: Dataset,
    rng: Rng,
    rho: float,
    nu: float,
) -> MlpState:
    """Glorot-uniform weights, zero biases, exact forward pass for z and a."""
    dims = arch.layer_dims
    n_layers = len(dims) - 1
    W, b, z, a = [], [], [], []
    cur = data.x
    for l in range(n_layers):
        fan_out, fan_in = dims[l + 1], dims[l]
        s = np.sqrt(6.0 / (fan_in + fan_out))
        W.append(rng.uniform(-s, s, (fan_out, fan_in)))
        b.append(np.zeros((fan_out, 1)))
        zl = W[l] @ cur + b[l]
        z.append(zl)
        if l < n_layers - 1:
            cur = arch.activation.value(zl)
            a.append(cur)
    u = np.zeros((dims[-1], data.n_samples))
    return MlpState(W=W, b=b, z=z, a=a, u=u, rho=rho, nu=nu)


def forward_logits(W: list, b: list, x: Matrix, activation: Activation) -> Matrix:
    cur = x
    for l in range(len(W) - 1):
        cur = activation.value(W[l] @ cur + b[l])
    return W[-1] @ cur + b[-1]


def accuracy(logits: Matrix, y: Matrix) -> float:
    return float(np.mean(np.argmax(logits, axis=0) == np.argmax(y, axis=0)))
