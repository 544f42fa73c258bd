"""Backward-forward ADMM training for graph convolutional networks.

Nodes sit in rows (N x C matrices), matching the propagation rule
Z_l = f(A_norm Z_{l-1} W_l).  The risk is the masked mean cross-entropy
over training nodes.  ``gcn_train`` runs ``gcn_iteration`` under the
certified driver of ``training``, with mu in the role of the MLP's nu.

Iteration.  ``gcn_iteration`` walks the forward block list, W and Z of each
layer, with ``training.walk_blocks`` (which holds the step seeds) backward
and then forward on a copy of the state's block lists, then updates the
dual.  The output block is solved by ``solvers.fista_output_block``, as in
the MLP.  psi's term of one layer and its slope in the layer's propagation
are written once, in ``_term`` and ``_term_slope``.

Cached propagation.  Besides the blocks, the sweep state holds the products
az[l] = A_norm Z_{l-1} of every layer (Z_{-1} is the features X), so each
propagation A_norm Z_{l-1} W_l is a thin az[l] @ W_l product instead of a
dense N x N one.  ``gcn_train`` takes the list from the initial exact
propagation, which forms exactly these products, so az[0] = A_norm X is a
once-per-call product.  Only an accepted hidden Z_l step changes it:
``_update_Z_hidden`` then sets az[l+1] = A_norm Z_l with one fresh product,
not by an incremental update, so every later (A_norm Z) W has exactly the
float order of a fresh propagation.  The block gradients, the backtracking
anchors, the output solve's affine target, the dual residual, the Lagrangian
and the accuracies all read az.  A hidden Z update thus makes three N x N
products (A_norm^T in its gradient, A_norm times the gradient for the trial
propagations, and the refresh); no other block update makes any.  With L
layers a ``gcn_train`` call of E epochs makes L + 6 (L - 1) E products:
2 + 6 E with one hidden layer.

The cache is not part of ``GcnState``: the public functions take an
optional ``az`` holding the products of the state they are given and
compute the products fresh when it is omitted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .activations import RELU, Activation
from .errors import ShapeError
from .linalg import Matrix, Rng, l2sq
from .objective import _ce_grad, _ce_value, _log_softmax, risk_curvature
from .solvers import (
    StepSeeds,
    _memo_last,
    backtrack_quadratic,
    fista_minimize,  # unused here: a target that perfbench/tracer.py wraps on this module
    fista_output_block,
)
from .training import CertifiedTrace, run_certified, walk_blocks


@dataclass
class Graph:
    n_nodes: int
    adjacency: Matrix  # 0/1, symmetric, zero diagonal
    features: Matrix  # N x C0
    labels: Matrix  # N x K one-hot (zero rows allowed for unlabeled nodes)
    train_mask: np.ndarray  # boolean (N,)
    test_mask: np.ndarray  # boolean (N,)

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n_nodes, self.n_nodes):
            raise ShapeError("adjacency must be n_nodes x n_nodes")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(self.train_mask & self.test_mask):
            raise ValueError("train and test masks must be disjoint")
        if not np.any(self.train_mask):
            raise ValueError("need at least one training node")


@dataclass
class GcnState:
    W: list  # W[l]: C_l x C_{l+1}
    Z: list  # Z[l]: N x C_{l+1}
    U: Matrix  # N x C_L
    A_norm: Matrix
    rho: float
    mu: float

    @property
    def n_layers(self) -> int:
        return len(self.W)

    def copy(self) -> "GcnState":
        """New block lists over the same arrays, which block updates never write into."""
        return GcnState(
            W=list(self.W),
            Z=list(self.Z),
            U=self.U,
            A_norm=self.A_norm,
            rho=self.rho,
            mu=self.mu,
        )


@dataclass
class GcnConfig:
    hidden_dims: tuple
    rho: float
    mu: float
    epochs: int
    seed: int = 0
    activation: Activation = RELU

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden widths must be >= 1")


@dataclass
class GcnTrace(CertifiedTrace):
    risk: float
    residual_fro: float


def normalize_adjacency(graph: Graph) -> Matrix:
    """(D + I)^{-1/2} (A + I) (D + I)^{-1/2} with self-loops added."""
    deg = graph.adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    a = graph.adjacency.astype(float)  # a copy
    np.fill_diagonal(a, 1.0)  # the validated diagonal is zero, so this is A + I
    a *= inv_sqrt[:, None]
    a *= inv_sqrt[None, :]
    return a


# ---------------------------------------------------------------------------
# Masked risk (rows = nodes)
# ---------------------------------------------------------------------------

def _row_log_softmax(rows: Matrix) -> Matrix:
    return _log_softmax(rows.T).T


def masked_risk(z_last: Matrix, labels: Matrix, mask: np.ndarray) -> float:
    n_train = int(np.sum(mask))
    return _ce_value(_row_log_softmax(z_last[mask]), labels[mask], n_train)


def masked_risk_grad(z_last: Matrix, labels: Matrix, mask: np.ndarray) -> Matrix:
    n_train = int(np.sum(mask))
    g = np.zeros_like(z_last)
    g[mask] = _ce_grad(_row_log_softmax(z_last[mask]), labels[mask], n_train)
    return g


# ---------------------------------------------------------------------------
# Penalty function and block gradients
# ---------------------------------------------------------------------------

def _z_prev(state: GcnState, graph: Graph, layer: int) -> Matrix:
    return graph.features if layer == 0 else state.Z[layer - 1]


def products(state: GcnState, graph: Graph) -> list:
    """az[l] = A_norm Z_{l-1} for every layer, computed fresh."""
    return [state.A_norm @ _z_prev(state, graph, l) for l in range(state.n_layers)]


def _az(state: GcnState, graph: Graph, layer: int, az) -> Matrix:
    return state.A_norm @ _z_prev(state, graph, layer) if az is None else az[layer]


def propagated(state: GcnState, graph: Graph, layer: int, az: list = None) -> Matrix:
    """A_norm Z_{l-1} W_l for the given layer; az, when given, holds the
    products A_norm Z_{l-1} of ``state``."""
    return _az(state, graph, layer, az) @ state.W[layer]


def _term(state: GcnState, layer: int, m: Matrix, activation: Activation,
          total: float = 0.0) -> float:
    """``total`` plus psi's term of one layer given its propagation m:
    (mu/2)||Z_l - f(m)||^2 below the output layer, <U, eps> +
    (rho/2)||eps||^2 with eps = Z_L - m at it."""
    if layer == state.n_layers - 1:
        eps = state.Z[layer] - m
        return total + float(np.vdot(state.U, eps)) + 0.5 * state.rho * l2sq(eps)
    return total + 0.5 * state.mu * l2sq(state.Z[layer] - activation.value(m))


def _term_slope(state: GcnState, layer: int, m: Matrix, activation: Activation) -> Matrix:
    """Minus the gradient of ``_term`` in the propagation m: U + rho (Z_L -
    m) at the output layer, mu (Z_l - f(m)) f'(m) below it."""
    if layer == state.n_layers - 1:
        return state.U + state.rho * (state.Z[layer] - m)
    return state.mu * (state.Z[layer] - activation.value(m)) * activation.deriv(m)


def psi(state: GcnState, graph: Graph, activation: Activation = RELU, az: list = None) -> float:
    total = 0.0
    for l in range(state.n_layers):
        total += _term(state, l, propagated(state, graph, l, az), activation)
    return total


def lagrangian(state: GcnState, graph: Graph, activation: Activation = RELU,
               az: list = None, risk: float = None) -> float:
    """Masked risk plus psi; ``risk``, when given, is the masked risk of
    ``state``'s output block."""
    if risk is None:
        risk = masked_risk(state.Z[-1], graph.labels, graph.train_mask)
    return risk + psi(state, graph, activation, az)


def grad_psi_block(
    state: GcnState,
    graph: Graph,
    block: str,
    layer: int,
    activation: Activation = RELU,
    az: list = None,
) -> Matrix:
    last = state.n_layers - 1
    if block not in ("W", "Z"):
        raise ValueError(f"unknown block {block!r}")
    if not 0 <= layer <= last:
        raise IndexError(f"layer {layer} out of range")
    if block == "W":
        a_z = _az(state, graph, layer, az)
        return -a_z.T @ _term_slope(state, layer, a_z @ state.W[layer], activation)
    if layer == last:
        return _term_slope(state, last, propagated(state, graph, last, az), activation)
    g = state.mu * (state.Z[layer] - activation.value(propagated(state, graph, layer, az)))
    nxt = layer + 1
    slope = _term_slope(state, nxt, propagated(state, graph, nxt, az), activation)
    return g - state.A_norm.T @ slope @ state.W[nxt].T


# ---------------------------------------------------------------------------
# Block updates
# ---------------------------------------------------------------------------

def _update_W_gcn(work, az, graph, activation, layer, seed):
    anchor = work.W[layer]
    grad = grad_psi_block(work, graph, "W", layer, activation, az)
    m0 = az[layer] @ anchor
    az_grad = az[layer] @ grad  # trial propagation is m0 - az_grad / step

    def eval_phi(cand, step):
        return _term(work, layer, m0 if step is None else m0 - az_grad / step, activation)

    res = backtrack_quadratic(eval_phi, grad, anchor, seed)
    work.W[layer] = res.candidate
    return res


def _update_Z_hidden(work, az, graph, activation, layer, seed):
    anchor = work.Z[layer]
    grad = grad_psi_block(work, graph, "Z", layer, activation, az)
    fm = activation.value(propagated(work, graph, layer, az))
    nxt = layer + 1
    m_next0 = propagated(work, graph, nxt, az)
    a_grad_w = work.A_norm @ grad @ work.W[nxt]  # next propagation shifts by -a_grad_w/step

    def eval_phi(cand, step):
        own = 0.5 * work.mu * l2sq(cand - fm)
        return _term(work, nxt, m_next0 if step is None else m_next0 - a_grad_w / step,
                     activation, own)

    res = backtrack_quadratic(eval_phi, grad, anchor, seed)
    work.Z[layer] = res.candidate
    az[nxt] = work.A_norm @ res.candidate
    return res


def _update_Z_last(work, az, graph):
    """The output block under the masked cross-entropy, whose rows, labels
    and count are gathered once per solve; the risk and its gradient share
    the log-softmax of their last point's training rows."""
    last = work.n_layers - 1
    train_idx = np.flatnonzero(graph.train_mask)
    y_train, n_train = graph.labels[train_idx], train_idx.size
    logp = _memo_last(lambda z: _row_log_softmax(z[train_idx]))

    def risk_grad(z):
        g = np.zeros_like(z)
        g[train_idx] = _ce_grad(logp(z), y_train, n_train)
        return g

    res = fista_output_block(lambda z: _ce_value(logp(z), y_train, n_train), risk_grad,
                             risk_curvature("cross_entropy", n_train),
                             propagated(work, graph, last, az), work.U, work.rho, work.Z[last])
    work.Z[last] = res.z
    return res


def gcn_iteration(state: GcnState, graph: Graph, cfg: GcnConfig, seeds: StepSeeds,
                  az: list = None):
    """One backward + forward + dual iteration.  Returns the new state plus
    (step stats, max certificate violation, residual, squared block moves,
    both output solves converged).

    az, when given, holds the products A_norm Z_{l-1} of ``state`` and is
    moved in place to those of the returned state; when omitted they are
    computed fresh."""
    act = cfg.activation
    last = state.n_layers - 1
    if az is None:
        az = products(state, graph)
    work = state.copy()
    blocks = [(kind, l) for l in range(last + 1) for kind in "WZ"]  # the forward order

    def update(kind, layer, seed):
        if kind == "W":
            return _update_W_gcn(work, az, graph, act, layer, seed)
        if layer < last:
            return _update_Z_hidden(work, az, graph, act, layer, seed)
        return _update_Z_last(work, az, graph)

    bsteps, bmoved, bworst, bfista = walk_blocks(blocks, update, seeds, backward=True)
    z_last_bar = work.Z[last]
    fsteps, fmoved, fworst, ffista = walk_blocks(blocks, update, seeds, backward=False)

    eps = work.Z[last] - propagated(work, graph, last, az)
    work.U = work.U + work.rho * eps

    moves = 0.0
    for l in range(last + 1):
        moves += bmoved["W", l] + fmoved["W", l]
    for l in range(last):
        moves += bmoved["Z", l] + fmoved["Z", l]
    moves += l2sq(z_last_bar - state.Z[last]) + l2sq(work.Z[last] - z_last_bar)
    return work, {**bsteps, **fsteps}, max(bworst, fworst), eps, moves, bfista and ffista


def _forward_init(graph: Graph, dims: tuple, activation: Activation, rng: Rng,
                  rho: float, mu: float):
    """``gcn_forward_init`` plus the products az of the state it returns
    (the ones its exact propagation forms)."""
    a_norm = normalize_adjacency(graph)
    W, Z, az = [], [], []
    cur = graph.features
    n_layers = len(dims) - 1
    for l in range(n_layers):
        fan_in, fan_out = dims[l], dims[l + 1]
        s = np.sqrt(6.0 / (fan_in + fan_out))
        W.append(rng.uniform(-s, s, (fan_in, fan_out)))
        az.append(a_norm @ cur)
        m = az[l] @ W[l]
        cur = activation.value(m) if l < n_layers - 1 else m
        Z.append(cur)
    u = np.zeros_like(Z[-1])
    return GcnState(W=W, Z=Z, U=u, A_norm=a_norm, rho=rho, mu=mu), az


def gcn_forward_init(graph: Graph, dims: tuple, activation: Activation, rng: Rng,
                     rho: float, mu: float) -> GcnState:
    """Glorot-uniform weights, Z by exact propagation, zero dual."""
    return _forward_init(graph, dims, activation, rng, rho, mu)[0]


def gcn_accuracy(state: GcnState, graph: Graph, mask: np.ndarray, az: list = None) -> float:
    logits = propagated(state, graph, state.n_layers - 1, az)
    pred = np.argmax(logits[mask], axis=1)
    truth = np.argmax(graph.labels[mask], axis=1)
    return float(np.mean(pred == truth)) if np.any(mask) else float("nan")


def gcn_train(graph: Graph, cfg: GcnConfig, trace_sink=None):
    dims = (graph.features.shape[1], *cfg.hidden_dims, graph.labels.shape[1])
    state, az = _forward_init(graph, dims, cfg.activation, Rng(cfg.seed), cfg.rho, cfg.mu)

    mask = graph.train_mask
    y_train, n_train = graph.labels[mask], int(np.sum(mask))

    def iterate(seeds: StepSeeds):
        nonlocal state
        state, steps, worst, eps, moves, fista_ok = gcn_iteration(state, graph, cfg, seeds, az)
        logp = _row_log_softmax(state.Z[-1][mask])  # one per epoch: risk, Lagrangian, gradient
        risk = _ce_value(logp, y_train, n_train)
        risk_grad = np.zeros_like(state.U)
        risk_grad[mask] = _ce_grad(logp, y_train, n_train)
        return lagrangian(state, graph, cfg.activation, az, risk), moves, dict(
            risk=risk,
            residual_fro=float(np.sqrt(l2sq(eps))),
            stationarity_residual=diagnostics.stationarity_residual(risk_grad, state.U),
            train_acc=gcn_accuracy(state, graph, graph.train_mask, az),
            test_acc=gcn_accuracy(state, graph, graph.test_mask, az),
            step_stats=steps,
            max_cert_violation=worst,
            fista_converged=fista_ok,
        )

    traces = run_certified(cfg.epochs, lagrangian(state, graph, cfg.activation, az), iterate,
                           GcnTrace, ("cross_entropy", cfg.rho, cfg.mu), trace_sink)
    return state, traces
