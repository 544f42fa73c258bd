"""Backward-forward ADMM training for graph convolutional networks.

Nodes sit in rows (N x C matrices), matching the propagation rule
Z_l = f(A_norm Z_{l-1} W_l), with f the MLP's ``objective.relu``.  The risk
is the masked mean cross-entropy over training nodes, the
``objective.Risk`` that ``masked_ce`` returns.
``gcn_train`` runs ``gcn_iteration`` under the certified driver of
``training``, with mu in the role of the MLP's nu and the descent bound's H
that risk's curvature, the output solve's constant.

Iteration.  ``gcn_iteration`` walks the forward block list, W and Z of each
layer, with ``training.walk_blocks`` (which keeps each block's record)
backward and then forward on a copy of the state's block lists, then updates
the dual.  Both output solves of an iteration run ``solvers.solve_z_last``, as
in the MLP, under its one ``masked_ce``.  psi's term of one layer and its
slope in the layer's propagation are written once, in ``_term`` and
``_term_slope``.

Cached propagation.  Besides the blocks, the sweep state holds a
``Propagations``: the fixed ax = A_norm X and the layer propagations m[l] =
A_norm Z_{l-1} W_l, N x C_{l+1} each.  ``gcn_train`` takes it from the
initial exact propagation, which forms exactly these products.  Like the
MLP's P, m then moves only with the blocks it depends on, and both blocks
backtrack through ``training.backtrack_shifted``, as the MLP's W and a do,
with m as the moved quantity.  Trials are affine in the inverse step, so
each update forms one direction product d, negated through its small factor
(sign flips are exact, so m + (-d)/t is m - d/t bit for bit), and the
accepted trial's shift then moves m:

* an accepted W_l step, W_l - G/t, moves m[l] by -(A_norm Z_{l-1} G)/t, with
  the direction formed as ax G at the first layer and A_norm (Z_{l-1} G)
  above it;
* an accepted hidden Z_l step, Z_l - G/t, moves m[l+1] by -(A_norm (G
  W_{l+1}))/t.

The output Z and the dual leave m alone.  The block gradients (whose
A_norm^T factor multiplies psi's slope in a propagation, C_{l+1} wide), the
backtracking anchors, the output solve's affine target, the dual residual,
the Lagrangian and the accuracies all read m, and none of the last four
multiplies by A_norm.  Every product with A_norm goes through ``_adj``.  A
W_l (l >= 1) or hidden Z_{l-1} update makes two, one for its gradient and
one for its trial direction, each with C_{l+1} columns; W_0 makes none.
With L layers a ``gcn_train`` call of E epochs makes L + 8 (L - 1) E
products: ax (C_0 columns) and the L - 1 initial A_norm (Z_{l-1} W_l) once,
and four per hidden layer in each half-iteration.

Sparse A_norm.  ``normalize_adjacency`` returns A_norm in compressed rows
(``SparseAdjacency``): per row, the ascending columns of its nonzeros and
the values s_i s_j, s = (deg + 1)^{-1/2}, the same products the dense
matrix holds, so the operator equals its transpose bit for bit.  Every row
holds its self-loop, so no row's range is empty; ``np.add.reduceat``, which
sums the ranges, would silently return the next row's first entry for an
empty one.  ``_adj`` gathers each column of y at the stored columns, scales
by the values and sums each row's range, O(C nnz) per product with no N x N
array.  The graph itself is an edge list (``Graph.edges``), from which
``normalize_adjacency`` sorts the stored entries, so from the SBM draw or
the bundle files to A_norm no step forms an N x N array either.  Every
product above is C_{l+1} wide (2 on a two-class graph with
one hidden layer), where the gather wins; per product, on an SBM graph of
mean degree 56 at one BLAS thread (2-core Xeon), in ms:

    columns                     1            2           8           32
    N=1000, compressed / dense  0.15 / 0.44  0.33 / 1.02  1.35 / 1.21  7.4 / 2.4
    N=2000, compressed / dense  0.72 / 2.66  1.42 / 5.99  7.43 / 6.49  39 / 11

The cache is not part of ``GcnState``: the public functions take ``props``,
the propagations of the state they are given, which a caller without the
trainer's cache forms fresh with ``propagations``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import ShapeError
from .linalg import Matrix, Rng, l2sq, require_finite
from .objective import (Risk, _ce_grad, _ce_value, _log_softmax, _memo_last, glorot, relu,
                        relu_deriv, risk_curvature)
# backtrack_quadratic and fista_minimize are unused here: perfbench/tracer.py wraps them on this module
from .solvers import backtrack_quadratic, fista_minimize, solve_z_last
from .training import BlockRecord, CertifiedTrace, backtrack_shifted, run_certified, walk_blocks


@dataclass
class Graph:
    n_nodes: int
    edges: np.ndarray  # (E, 2) int: (u, v) with u < v, rows ascending, no repeats
    features: Matrix  # N x C0
    labels: Matrix  # N x K one-hot (zero rows for unlabeled nodes, which no mask holds)
    train_mask: np.ndarray  # boolean (N,)
    test_mask: np.ndarray  # boolean (N,)

    def __post_init__(self):
        e, n = self.edges, self.n_nodes
        if e.ndim != 2 or e.shape[1] != 2:
            raise ShapeError(f"edges must be an (E, 2) array, not {e.shape}")
        if not np.issubdtype(e.dtype, np.integer):
            raise ValueError(f"edges must hold integer node ids, not {e.dtype}")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge endpoint out of range (N={n})")
        if np.any(e[:, 0] >= e[:, 1]):
            raise ValueError("each edge must be (u, v) with u < v: no self-loops")
        keys = e[:, 0].astype(np.int64) * n + e[:, 1].astype(np.int64)
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edges must be in ascending row-major order, each once")
        for name in ("features", "labels", "train_mask", "test_mask"):
            rows = getattr(self, name)
            if len(rows) != n:
                raise ShapeError(f"{name} has {len(rows)} rows for {n} nodes")
            if name.endswith("mask") and (rows.ndim != 1 or rows.dtype != bool):
                raise ValueError(f"{name} must be a boolean vector, not {rows.dtype} {rows.shape}")
        y = self.labels
        if not (np.all((y == 0) | (y == 1)) and np.all(np.count_nonzero(y, axis=1) <= 1)):
            raise ValueError("each labels row must be one-hot or zero")
        if np.any(self.train_mask & self.test_mask):
            raise ValueError("train and test masks must be disjoint")
        unlabeled = np.flatnonzero((self.train_mask | self.test_mask) & ~np.any(y, axis=1))
        if unlabeled.size:
            raise ValueError(f"node {unlabeled[0]} is in a mask but has no label")
        if not np.any(self.train_mask):
            raise ValueError("need at least one training node")

    @property
    def adjacency(self) -> Matrix:
        """The dense symmetric 0/1 N x N adjacency, built on each read: for
        small graphs only, since it is O(N^2); the package itself reads
        ``edges``."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        u, v = self.edges.T
        a[u, v] = a[v, u] = 1.0
        return a


@dataclass
class GcnState:
    W: list  # W[l]: C_l x C_{l+1}
    Z: list  # Z[l]: N x C_{l+1}
    U: Matrix  # N x C_L
    A_norm: SparseAdjacency
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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        require_finite(rho=self.rho, mu=self.mu)
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden widths must be >= 1")


@dataclass
class GcnTrace(CertifiedTrace):
    risk: float
    residual_fro: float


@dataclass(frozen=True)
class SparseAdjacency:
    """A_norm in compressed rows: row i holds vals[k] at column cols[k] for
    starts[i] <= k < starts[i+1] (k < nnz in the last row), columns
    ascending.

    Every row holds its self-loop, so no row's range is empty.  ``_adj``
    relies on this: ``np.add.reduceat`` returns the next row's first entry
    for an empty range instead of 0, a silent wrong answer."""

    n: int
    starts: np.ndarray  # (N,) int, strictly increasing from 0
    cols: np.ndarray  # (nnz,) int
    vals: np.ndarray  # (nnz,) float


def normalize_adjacency(graph: Graph) -> SparseAdjacency:
    """(D + I)^{-1/2} (A + I) (D + I)^{-1/2}, A with self-loops added, in
    compressed rows.  The entry (i, j) is s_i s_j with s = (deg + 1)^{-1/2},
    the same product as (j, i), so the operator equals its transpose bit for
    bit.  The stored entries are the sorted row-major keys i N + j of the
    edges both ways and the self-loops, O(nnz log nnz)."""
    n = graph.n_nodes
    u, v = graph.edges.T.astype(np.intp)
    keys = np.concatenate((u * n + v, v * n + u, np.arange(n, dtype=np.intp) * (n + 1)))
    keys.sort()
    rows, cols = np.divmod(keys, n)
    counts = np.bincount(rows, minlength=n)  # deg + 1, at least 1
    inv_sqrt = 1.0 / np.sqrt(counts)
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return SparseAdjacency(n, starts, cols, inv_sqrt[rows] * inv_sqrt[cols])


# ---------------------------------------------------------------------------
# Masked risk (rows = nodes)
# ---------------------------------------------------------------------------

def masked_ce(labels: Matrix, mask: np.ndarray) -> Risk:
    """The mean cross-entropy over the rows in ``mask``, as a ``Risk`` of the
    output block.  The masked rows, labels and count are gathered once; the
    value and gradient share the log-softmax of their last point's masked
    rows, and H is the cross-entropy curvature over the count."""
    idx = np.flatnonzero(mask)
    y, count = labels[idx], idx.size
    logp = _memo_last(lambda z: _log_softmax(z[idx].T).T)  # nodes sit in rows

    def grad(z):
        g = np.zeros_like(z)
        g[idx] = _ce_grad(logp(z), y, count)
        return g

    return Risk(lambda z: _ce_value(logp(z), y, count), grad, risk_curvature("cross_entropy", count))


# ---------------------------------------------------------------------------
# Propagations
# ---------------------------------------------------------------------------

@dataclass
class Propagations:
    """The sweep's cache for one state: ax = A_norm X and m[l] = A_norm
    Z_{l-1} W_l for every layer."""

    ax: Matrix
    m: list


def _adj(a_norm: SparseAdjacency, y: Matrix) -> Matrix:
    """A_norm y, which equals A_norm^T y; every product with A_norm is
    formed here.  Each row of y^T is gathered at the stored columns (as
    floats, so integer features work too), scaled by the stored values and
    summed over each row's range."""
    p = np.take(y.T, a_norm.cols, axis=1).astype(float, copy=False)
    p *= a_norm.vals
    return np.add.reduceat(p, a_norm.starts, axis=1).T


def _through(state: GcnState, ax: Matrix, layer: int, w: Matrix) -> Matrix:
    """A_norm Z_{l-1} w, as ax w at the first layer and A_norm (Z_{l-1} w)
    above it."""
    return ax @ w if layer == 0 else _adj(state.A_norm, state.Z[layer - 1] @ w)


def propagations(state: GcnState, graph: Graph) -> Propagations:
    """The propagations of ``state``, computed fresh."""
    ax = _adj(state.A_norm, graph.features)
    return Propagations(ax, [_through(state, ax, l, state.W[l]) for l in range(state.n_layers)])


def propagated(props: Propagations, layer: int) -> Matrix:
    """A_norm Z_{l-1} W_l for the given layer, read from ``props``.  It is a
    function only because perfbench/tracer.py counts its calls, which GCN
    training must make (tests/test_tracer_targets.py)."""
    return props.m[layer]


# ---------------------------------------------------------------------------
# Penalty function and block gradients
# ---------------------------------------------------------------------------

def _term(state: GcnState, layer: int, m: Matrix, total: float = 0.0) -> float:
    """``total`` plus psi's term of one layer given its propagation m:
    (mu/2)||Z_l - f(m)||^2 below the output layer, <U, eps> +
    (rho/2)||eps||^2 with eps = Z_L - m at it."""
    if layer == state.n_layers - 1:
        eps = state.Z[layer] - m
        return total + float(np.vdot(state.U, eps)) + 0.5 * state.rho * l2sq(eps)
    return total + 0.5 * state.mu * l2sq(state.Z[layer] - relu(m))


def _term_slope(state: GcnState, layer: int, m: Matrix) -> Matrix:
    """Minus the gradient of ``_term`` in the propagation m: U + rho (Z_L -
    m) at the output layer, mu (Z_l - f(m)) f'(m) below it."""
    if layer == state.n_layers - 1:
        return state.U + state.rho * (state.Z[layer] - m)
    return state.mu * (state.Z[layer] - relu(m)) * relu_deriv(m)


def psi(state: GcnState, graph: Graph, props: Propagations) -> float:
    total = 0.0
    for l in range(state.n_layers):
        total += _term(state, l, propagated(props, l))
    return total


def lagrangian(state: GcnState, graph: Graph, risk: float, props: Propagations) -> float:
    """Masked risk plus psi, given ``risk``, the masked risk of ``state``'s
    output block."""
    return risk + psi(state, graph, props)


def grad_psi_block(state: GcnState, graph: Graph, block: str, layer: int,
                   props: Propagations) -> Matrix:
    last = state.n_layers - 1
    if block not in ("W", "Z"):
        raise ValueError(f"unknown block {block!r}")
    if not 0 <= layer <= last:
        raise IndexError(f"layer {layer} out of range")
    m = props.m
    if block == "W":
        slope = _term_slope(state, layer, m[layer])
        if layer == 0:
            return -props.ax.T @ slope
        return -state.Z[layer - 1].T @ _adj(state.A_norm, slope)
    if layer == last:
        return _term_slope(state, last, m[last])
    nxt = layer + 1
    g = state.mu * (state.Z[layer] - relu(m[layer]))
    slope = _term_slope(state, nxt, m[nxt])
    return g - _adj(state.A_norm, slope) @ state.W[nxt].T


# ---------------------------------------------------------------------------
# Block updates
# ---------------------------------------------------------------------------

def _update_W_gcn(work, props, graph, layer, seed):
    grad = grad_psi_block(work, graph, "W", layer, props)
    neg_dir = _through(work, props.ax, layer, -grad)  # W - G/t moves m[layer] by neg_dir/t
    res, shift = backtrack_shifted(lambda x, moved: _term(work, layer, moved()),
                                   props.m[layer], lambda x, t: neg_dir / t, grad, work.W[layer],
                                   seed)
    work.W[layer] = res.candidate
    props.m[layer] = props.m[layer] + shift
    return res


def _update_Z_hidden(work, props, graph, layer, seed):
    grad = grad_psi_block(work, graph, "Z", layer, props)
    fm = relu(props.m[layer])
    nxt = layer + 1
    neg_dir = _adj(work.A_norm, grad @ -work.W[nxt])  # Z - G/t moves m[nxt] by neg_dir/t
    res, shift = backtrack_shifted(
        lambda x, moved: _term(work, nxt, moved(), 0.5 * work.mu * l2sq(x - fm)),
        props.m[nxt], lambda x, t: neg_dir / t, grad, work.Z[layer], seed)
    work.Z[layer] = res.candidate
    props.m[nxt] = props.m[nxt] + shift
    return res


def _update_Z_last(work, props, graph, risk):
    """The output block under ``risk``, the masked cross-entropy."""
    last = work.n_layers - 1
    res = solve_z_last(propagated(props, last), work.U, work.rho, risk, work.Z[last])
    work.Z[last] = res.z
    return res


def gcn_iteration(state: GcnState, graph: Graph, record: BlockRecord, props: Propagations):
    """One backward + forward + dual iteration, its blocks added to
    ``record``.  Returns the new state and the dual residual.  props holds
    the propagations of ``state`` and is moved in place to those of the
    returned state."""
    last = state.n_layers - 1
    work = state.copy()
    blocks = [(kind, l) for l in range(last + 1) for kind in "WZ"]  # the forward order
    risk = masked_ce(graph.labels, graph.train_mask)  # both output solves

    def update(kind, layer, seed):
        if kind == "W":
            return _update_W_gcn(work, props, graph, layer, seed)
        if layer < last:
            return _update_Z_hidden(work, props, graph, layer, seed)
        return _update_Z_last(work, props, graph, risk)

    walk_blocks(blocks, update, record, backward=True)
    walk_blocks(blocks, update, record, backward=False)

    eps = work.Z[last] - propagated(props, last)
    work.U = work.U + work.rho * eps
    return work, eps


def gcn_forward_init(graph: Graph, dims: tuple, rng: Rng, rho: float, mu: float) -> tuple:
    """Glorot-uniform weights, Z by exact propagation, zero dual.  Returns
    the state and its propagations, the ones that exact propagation forms."""
    n_layers = len(dims) - 1
    W = [glorot(rng, (dims[l], dims[l + 1])) for l in range(n_layers)]
    state = GcnState(W=W, Z=[], U=None, A_norm=normalize_adjacency(graph), rho=rho, mu=mu)
    ax = _adj(state.A_norm, graph.features)
    m = []
    for l in range(n_layers):
        m.append(_through(state, ax, l, W[l]))
        state.Z.append(relu(m[l]) if l < n_layers - 1 else m[l])
    state.U = np.zeros_like(state.Z[-1])
    return state, Propagations(ax, m)


def gcn_accuracy(state: GcnState, graph: Graph, mask: np.ndarray, props: Propagations) -> float:
    logits = propagated(props, state.n_layers - 1)
    pred = np.argmax(logits[mask], axis=1)
    truth = np.argmax(graph.labels[mask], axis=1)
    return float(np.mean(pred == truth)) if np.any(mask) else float("nan")


def gcn_train(graph: Graph, cfg: GcnConfig, trace_sink=None):
    dims = (graph.features.shape[1], *cfg.hidden_dims, graph.labels.shape[1])
    state, props = gcn_forward_init(graph, dims, Rng(cfg.seed), cfg.rho, cfg.mu)

    risk = masked_ce(graph.labels, graph.train_mask)  # one log-softmax per epoch

    def iterate(record: BlockRecord):
        nonlocal state
        state, eps = gcn_iteration(state, graph, record, props)
        value = risk.value(state.Z[-1])
        return lagrangian(state, graph, value, props), dict(
            risk=value,
            residual_fro=float(np.sqrt(l2sq(eps))),
            stationarity_residual=diagnostics.stationarity_residual(risk.grad(state.Z[-1]),
                                                                    state.U),
            train_acc=gcn_accuracy(state, graph, graph.train_mask, props),
            test_acc=gcn_accuracy(state, graph, graph.test_mask, props),
        )

    lagr0 = lagrangian(state, graph, risk.value(state.Z[-1]), props)
    traces = run_certified(cfg.epochs, lagr0, iterate, GcnTrace, (risk.curvature, cfg.rho, cfg.mu),
                           trace_sink)
    return state, traces
