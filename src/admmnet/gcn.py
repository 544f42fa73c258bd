"""Backward-forward ADMM training for graph convolutional networks.

Nodes sit in rows (N x C matrices), matching the propagation rule
Z_l = f(A_norm Z_{l-1} W_l), with f the MLP's ``objective.relu``.  The risk
is the masked mean cross-entropy over training nodes, the
``objective.Risk`` that ``masked_ce`` returns: the MLP's ``mean_risk`` on
the training nodes' rows, without its Newton direction.
``gcn_train`` runs ``gcn_iteration`` under the certified driver of
``training``, which forms the descent certificate and the stationarity
residual, with mu in the role of the MLP's nu and the descent bound's H
that risk's curvature, the step constant of its FISTA output solve.

Iteration.  ``gcn_iteration`` walks the forward block list, W and Z of each
layer, with ``training.walk_blocks`` (which keeps each block's record)
backward and then forward on a copy of the state's block lists, then updates
the dual.  Both output solves of an iteration run ``solvers.solve_z_last``, as
in the MLP, under the ``masked_ce`` that ``gcn_train`` passes in.  psi's term
of one layer and its slope in the layer's propagation are written once, in
``_term`` and ``_term_slope``.

Cached propagation.  Besides the blocks, the sweep state holds a
``Propagations``: the fixed ax = A_norm X and the layer propagations m[l] =
A_norm Z_{l-1} W_l, N x C_{l+1} each.  ``gcn_train`` takes it from the
initial exact propagation, which forms exactly these products.  Like the
MLP's residuals R, m then moves only with the blocks it depends on, and both
blocks call ``solvers.backtrack_quadratic``, as the MLP's W and a do, with m
as the moved quantity.  Trials are affine in the inverse step, so each
update forms one direction product d, negated through its small factor
(sign flips are exact, so m + (-d)/t is m - d/t bit for bit), and the
accepted trial's moved m, m + (-d)/t as its penalty term read it, becomes
the cache:

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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .linalg import Matrix, Rng, is_index, l2sq, require_epochs_seed, require_finite
from .objective import Risk, _memo_last, glorot, mean_risk, relu, relu_deriv
# fista_minimize is unused here: perfbench/tracer.py wraps it on this module
from .solvers import backtrack_quadratic, fista_minimize, solve_z_last
from .training import (BlockRecord, CertifiedTrace, run_certified, stationarity_residual,
                       walk_blocks)


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
            if not name.endswith("mask") and np.ndim(rows) != 2:
                raise ShapeError(f"{name} must be a 2-D array, not shape {np.shape(rows)}")
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
        return replace(self, W=list(self.W), Z=list(self.Z))


@dataclass
class GcnConfig:
    hidden_dims: tuple
    rho: float
    mu: float
    epochs: int
    seed: int = 0

    def __post_init__(self):
        require_epochs_seed(self.epochs, self.seed)
        require_finite(rho=self.rho, mu=self.mu)
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")
        if not all(is_index(d, 1) for d in self.hidden_dims):
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
    output block: ``objective.mean_risk`` over the masked rows as columns,
    with its H.  The value and gradient share their last point's row
    gather, and so that risk's log-softmax memo; the gradient is zero off
    the mask.  It has no Newton direction: its output solve is FISTA's."""
    idx = np.flatnonzero(mask)
    ce = mean_risk("cross_entropy", labels[idx].T)
    rows = _memo_last(lambda z: z[idx].T)  # nodes sit in rows

    def grad(z):
        g = np.zeros_like(z)
        g[idx] = ce.grad(rows(z)).T
        return g

    return Risk(lambda z: ce.value(rows(z)), grad, ce.curvature)


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


def psi(state: GcnState, props: Propagations) -> float:
    total = 0.0
    for l in range(state.n_layers):
        total += _term(state, l, propagated(props, l))
    return total


def lagrangian(state: GcnState, risk_value: float, props: Propagations) -> float:
    """Masked risk plus psi, given ``risk_value``, the masked risk of
    ``state``'s output block."""
    return risk_value + psi(state, props)


def grad_psi_block(state: GcnState, block: str, layer: int, props: Propagations) -> Matrix:
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

def _update_W_gcn(work, props, layer, seed):
    grad = grad_psi_block(work, "W", layer, props)
    neg_dir = _through(work, props.ax, layer, -grad)  # W - G/t moves m[layer] by neg_dir/t
    res = backtrack_quadratic(lambda x, moved: _term(work, layer, moved), props.m[layer],
                              lambda x, t: neg_dir / t, grad, work.W[layer], seed)
    work.W[layer] = res.candidate
    props.m[layer] = res.moved
    return res


def _update_Z_hidden(work, props, layer, seed):
    grad = grad_psi_block(work, "Z", layer, props)
    fm = relu(props.m[layer])
    nxt = layer + 1
    neg_dir = _adj(work.A_norm, grad @ -work.W[nxt])  # Z - G/t moves m[nxt] by neg_dir/t
    res = backtrack_quadratic(
        lambda x, moved: _term(work, nxt, moved, 0.5 * work.mu * l2sq(x - fm)),
        props.m[nxt], lambda x, t: neg_dir / t, grad, work.Z[layer], seed)
    work.Z[layer] = res.candidate
    props.m[nxt] = res.moved
    return res


def _update_Z_last(work, props, risk):
    """The output block under ``risk``, the masked cross-entropy."""
    res = solve_z_last(propagated(props, work.n_layers - 1), work.U, work.rho, risk, work.Z[-1])
    work.Z[-1] = res.z
    return res


def gcn_iteration(state: GcnState, risk: Risk, record: BlockRecord, props: Propagations):
    """One backward + forward + dual iteration under ``risk``, the run's
    masked cross-entropy, its blocks added to ``record``.  Returns the new
    state and the dual residual.  props holds the propagations of ``state``
    and is moved in place to those of the returned state."""
    last = state.n_layers - 1
    work = state.copy()
    blocks = [(kind, l) for l in range(last + 1) for kind in "WZ"]  # the forward order

    def update(kind, layer, seed):
        if kind == "W":
            return _update_W_gcn(work, props, layer, seed)
        if layer < last:
            return _update_Z_hidden(work, props, layer, seed)
        return _update_Z_last(work, props, risk)

    walk_blocks(blocks, update, record, backward=True)
    walk_blocks(blocks, update, record, backward=False)

    eps = work.Z[last] - propagated(props, last)
    work.U = work.U + work.rho * eps
    return work, eps


def gcn_forward_init(graph: Graph, dims: tuple, rng: Rng, rho: float, mu: float) -> tuple:
    """Glorot-uniform weights, Z by exact propagation (Z_L a row-major copy of
    the transposed m[L-1]), zero dual.  Returns the state and its propagations."""
    n_layers = len(dims) - 1
    W = [glorot(rng, (dims[l], dims[l + 1])) for l in range(n_layers)]
    state = GcnState(W=W, Z=[], U=None, A_norm=normalize_adjacency(graph), rho=rho, mu=mu)
    ax = _adj(state.A_norm, graph.features)
    m = []
    for l in range(n_layers):
        m.append(_through(state, ax, l, W[l]))
        state.Z.append(relu(m[l]) if l < n_layers - 1 else m[l].copy())
    state.U = np.zeros_like(state.Z[-1])
    return state, Propagations(ax, m)


def gcn_accuracy(state: GcnState, mask: np.ndarray, truth: np.ndarray, props: Propagations) -> float:
    """Accuracy over the nodes in ``mask``, whose classes, in node order, are
    ``truth``: np.argmax(labels[mask], axis=1), formed once per run."""
    pred = np.argmax(propagated(props, state.n_layers - 1)[mask], axis=1)
    return float(np.mean(pred == truth)) if truth.size else float("nan")


def gcn_train(graph: Graph, cfg: GcnConfig, trace_sink=None):
    dims = (graph.features.shape[1], *cfg.hidden_dims, graph.labels.shape[1])
    state, props = gcn_forward_init(graph, dims, Rng(cfg.seed), cfg.rho, cfg.mu)

    risk = masked_ce(graph.labels, graph.train_mask)  # one per run: every iteration shares its memo
    scored = [(mask, np.argmax(graph.labels[mask], axis=1)) for mask in (graph.train_mask, graph.test_mask)]

    def iterate(record: BlockRecord):
        nonlocal state
        state, eps = gcn_iteration(state, risk, record, props)
        value = risk.value(state.Z[-1])
        return lagrangian(state, value, props), dict(
            risk=value,
            residual_fro=float(np.sqrt(l2sq(eps))),
            stationarity_residual=stationarity_residual(risk.grad(state.Z[-1]), state.U),
            train_acc=gcn_accuracy(state, *scored[0], props),
            test_acc=gcn_accuracy(state, *scored[1], props),
        )

    lagr0 = lagrangian(state, risk.value(state.Z[-1]), props)
    traces = run_certified(cfg.epochs, lagr0, iterate, GcnTrace, (risk.curvature, cfg.rho, cfg.mu),
                           trace_sink)
    return state, traces
