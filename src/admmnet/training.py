"""Backward-then-forward ADMM training: the certified iteration driver, the
block walk, and the MLP model.

The driver, ``run_certified``, is the loop both models share, and the one
owner of the convergence certificate.  It rejects a non-finite Lagrangian
before iteration 1; it forms C1 and the bound's hypothesis once per run,
and after each iteration checks the sufficient-descent bound against the
previous Lagrangian, extends the running minimum c_k of the squared block
moves, assembles the trace, hands it to the sink and stops on a
non-finite Lagrangian.  On any abort the traces of the completed
iterations are attached to the ``TrainingAborted`` it raises.  A model
supplies its initial Lagrangian, the bound's H (the curvature of its own
``objective.Risk``), rho and penalty, its trace type, and one iteration
that walks its blocks into a ``BlockRecord`` and returns the new
Lagrangian and its own trace fields, among them ``stationarity_residual``:
``train`` below (backward sweep, forward sweep, dual update),
``gcn.gcn_train`` (``gcn.gcn_iteration``).  The record gives the step
stats, moves, worst violation and FISTA flag.  Each run builds one
``Risk``, which its output solves (Newton's for the MLP's cross-entropy,
whose Hessian inverts in O(K) per sample, FISTA's for the GCN's masked
risk), Lagrangian and stationarity residual read.
Iteration 1's ``descent_ok`` is reported as measured; from the zero initial
dual it can miss while ``hypothesis_met``, rho > 2H, holds.

The walk.  Each model states its forward block list once, as (kind, layer)
pairs.  ``walk_blocks`` runs it in reverse for the backward half, with step
keys tagged "_bar", and in order for the forward half.  The walk alone
seeds the step search from the key's previous accepted step, and it adds
each block's accepted step, squared move, violation and output-solve
convergence to the iteration's record.

MLP iteration.  The two halves over W, b, z, a of each hidden layer and W,
b, z of the output layer, then the residual and dual update.  Each half works
on a copy of the state's block lists and every block update rebinds one
entry, so arrays are shared, never written into.  This reproduces the mixed
old/new indexing of the block subproblems: when layer l is visited, higher
layers already hold this sweep's values and lower layers the previous ones.

Cached residuals.  Besides the blocks, the sweep state holds the residual
R_l = z_l - W_l a_{l-1} - b_l of every layer (a_{-1} is the input x), so no
reader forms a matrix product for it.  ``objective.forward_init`` returns R
with the initial state, and each block update then sets what it moves:

* an accepted W_l step, W_l - G/t, sets R_l to the residual its accepted
  trial formed and evaluated, R_l + (G a_{l-1})/t, or R_l + (anchor - W_l)
  a_{l-1} for a regularized (prox) step, whose trials are not affine in 1/t;
* an accepted a_l step, a_l - G/t, sets R_{l+1} to its trial's
  R_{l+1} + (W_{l+1} G)/t;
* a b_l step subtracts its move from R_l;
* a z_l step solves from m = z_l - R_l = W_l a_{l-1} + b_l and sets R_l to
  z_new - m.

The b and W gradients, the z-update inputs, the output solve, the dual
residual, the Lagrangian and objective_F all read R, and the train accuracy
starts from relu(z_0 - R_0), with no product W_0 x.  The Lagrangian after
iteration k is the one entering iteration k+1.

Block moves.  The walk sums the squared moves of the descent bound and c_k
in block order: the ``move_sq`` of a W or an a step's ``BacktrackResult`` and
of the output z's ``FistaResult``, and the float the b update returns.  The
hidden z update returns None, outside the bound.

Formulas.  This module holds the walk, the sweeps, the cache updates and
the driver, and no formula of the objective: every block gradient, penalty
term, objective_F and Lagrangian is a call into ``objective``, the
functions the finite-difference checks test, with the cache passed as their
``R``; the output solve takes the run's ``objective.Risk`` and a W step the
regularizer's ``prox`` when it is ``active``.  A W or an a step calls
``solvers.backtrack_quadratic`` with the layer residual as the moved
quantity: only the penalty terms holding the block are evaluated at it, and
the accepted trial's ``moved`` residual becomes the cache entry.  Plain
trials are affine in the inverse step, so their shifts reuse one
precomputed product.  The a anchor's activation term comes with its
gradient from ``objective.grad_a``, which forms a_l - f(z_l) anyway.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import objective
from .errors import DivergenceError, TrainingAborted
from .linalg import Matrix, Rng, l2sq, require_epochs_seed, require_finite
from .objective import Dataset, MlpArchitecture, MlpState, Regularizer, Risk, _a_prev
from .solvers import (
    SEED_FLOOR,
    SEED_INIT,
    STEP_GROWTH,
    BacktrackResult,
    FistaResult,
    backtrack_quadratic,
    solve_z_last,
    solve_z_relu,
    update_b,
)


# Absolute slack on the sufficient-descent inequality, for rounding in the
# Lagrangian difference.
DESCENT_SLACK = 1e-8


@dataclass
class TrainConfig:
    rho: float
    nu: float
    epochs: int
    seed: int = 0

    def __post_init__(self):
        require_epochs_seed(self.epochs, self.seed)
        require_finite(rho=self.rho, nu=self.nu)
        if self.rho <= 0 or self.nu <= 0:
            raise ValueError("rho and nu must be positive")


@dataclass
class CertifiedTrace:
    """The trace fields of one iteration that both models report."""

    iter: int
    lagrangian: float
    descent_lhs: float
    block_move_sq_sum: float
    c2: float
    ck: float
    descent_ok: bool
    hypothesis_met: bool
    stationarity_residual: float  # ||grad R(z_L) + u||_inf after the dual step
    train_acc: float
    test_acc: float
    step_stats: dict
    max_cert_violation: float
    fista_converged: bool
    wall_time: float


@dataclass
class IterationTrace(CertifiedTrace):
    objective_F: float
    residual_l2: float


@dataclass
class BlockRecord:
    """What ``walk_blocks`` adds up over one iteration, seeded by the
    previous one's steps: accepted steps by step key, the squared moves, the
    worst certificate violation and whether every output solve converged."""

    prev_steps: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)
    moves: float = 0.0
    worst: float = 0.0
    fista_ok: bool = True


@dataclass
class TrainResult:
    state: MlpState
    traces: list


def stationarity_residual(risk_grad: Matrix, dual: Matrix) -> float:
    """Infinity norm of grad R(z_last) + u, given the risk gradient at the
    output block and the dual, after a completed iteration."""
    return float(np.max(np.abs(risk_grad + dual)))


def run_certified(epochs: int, lagr0: float, iterate, trace_type, descent: tuple,
                  trace_sink=None) -> list:
    """Runs ``epochs`` iterations of one model and returns their traces.

    ``iterate(record)`` advances the model by one iteration, walking its
    blocks into ``record``, a ``BlockRecord`` of the previous steps, and
    returns (Lagrangian after it, trace fields), where the fields are those
    of ``trace_type``, a ``CertifiedTrace`` subclass, that neither this
    driver nor the record fills.  ``lagr0`` is the Lagrangian entering
    iteration 1 and ``descent`` the (H, rho, penalty) of the
    sufficient-descent bound L_prev - L_new >= C2 (block moves), C2 the
    least of penalty/2, C1 = rho/2 - H/2 - H^2/rho and the accepted steps.
    It is in force, ``hypothesis_met``, when rho > 2H and C1 > 0.
    """
    h, rho, penalty = descent
    c1 = rho / 2.0 - h / 2.0 - h * h / rho
    hypothesis_met = rho > 2.0 * h and c1 > 0.0
    traces = []
    try:
        if not np.isfinite(lagr0):
            raise DivergenceError("non-finite Lagrangian entering iteration 1")
        t0 = time.perf_counter()
        lagr_prev, steps = lagr0, {}
        for it in range(1, epochs + 1):
            record = BlockRecord(steps)
            lagr_new, fields = iterate(record)
            moves = record.moves
            ck = moves if it == 1 else min(ck, moves)  # c_k, the running minimum
            lhs = lagr_prev - lagr_new
            c2 = min(penalty / 2.0, c1, *record.steps.values())
            trace = trace_type(
                iter=it,
                lagrangian=lagr_new,
                descent_lhs=lhs,
                block_move_sq_sum=moves,
                c2=c2,
                ck=ck,
                descent_ok=lhs >= c2 * moves - DESCENT_SLACK,
                hypothesis_met=hypothesis_met,
                step_stats=record.steps,
                max_cert_violation=record.worst,
                fista_converged=record.fista_ok,
                wall_time=time.perf_counter() - t0,
                **fields,
            )
            traces.append(trace)
            if trace_sink is not None:
                trace_sink(trace)
            if not np.isfinite(lagr_new):
                raise DivergenceError(f"non-finite Lagrangian at iteration {it}")
            lagr_prev, steps = lagr_new, record.steps
    except TrainingAborted as exc:
        exc.traces = traces
        raise
    return traces


def walk_blocks(blocks: list, update, record: BlockRecord, backward: bool) -> None:
    """One half-iteration over ``blocks``, a model's forward list of (kind,
    layer), added to ``record``.  ``update(kind, layer, seed)`` updates one
    block from its step key's seed, solvers' rule applied to its step in
    ``record.prev_steps``, and returns its ``BacktrackResult``, its
    ``FistaResult``, its squared move when closed-form, or None."""
    tag = "_bar" if backward else ""
    for kind, layer in (reversed(blocks) if backward else blocks):
        key = (kind + tag, layer)
        prev = record.prev_steps.get(key)
        seed = SEED_INIT if prev is None else max(prev / STEP_GROWTH, SEED_FLOOR)
        res = update(kind, layer, seed)
        if isinstance(res, BacktrackResult):
            record.steps[key] = res.step
            record.worst = max(record.worst, res.violation)
        elif isinstance(res, FistaResult):
            record.fista_ok = record.fista_ok and res.converged
        if res is not None:
            record.moves += res if isinstance(res, float) else res.move_sq
        del res  # a replaced cache entry is not held through the next block's update


def dual_update(state: MlpState, r: Matrix) -> Matrix:
    return state.u + state.rho * r


def _update_W(work: MlpState, R: list, data: Dataset, regularizer: Regularizer, layer: int,
              seed: float) -> BacktrackResult:
    a_prev = _a_prev(work, data, layer)
    anchor = work.W[layer]
    grad = objective.grad_W(work, data, layer, R)
    is_last = layer == work.n_layers - 1
    prox = regularizer.prox if regularizer.active else None
    if prox is not None:
        shift_of = lambda cand, step: (anchor - cand) @ a_prev  # a prox trial is not affine
    else:
        grad_a = grad @ a_prev  # trial residual is R_l + grad_a / step
        shift_of = lambda cand, step: grad_a / step
    res = backtrack_quadratic(lambda x, moved: objective.linear_term(work, moved, is_last),
                              R[layer], shift_of, grad, anchor, seed, prox)
    work.W[layer] = res.candidate
    R[layer] = res.moved
    return res


def _update_a(work: MlpState, R: list, layer: int, seed: float) -> BacktrackResult:
    nxt = layer + 1
    anchor = work.a[layer]
    fz = objective.relu(work.z[layer])
    grad, act0 = objective.grad_a(work, layer, fz, R)
    w_grad = work.W[nxt] @ grad  # trial residual is R_{l+1} + w_grad / step
    is_last = nxt == work.n_layers - 1

    def terms(x, moved):
        act = act0 if x is anchor else objective.activation_term(work, x, fz)  # act0: from grad_a
        return act + objective.linear_term(work, moved, is_last)

    res = backtrack_quadratic(terms, R[nxt], lambda x, t: w_grad / t, grad, anchor, seed)
    work.a[layer] = res.candidate
    R[nxt] = res.moved
    return res


def _update_b_block(work: MlpState, R: list, data: Dataset, layer: int) -> float:
    anchor = work.b[layer]
    grad = objective.grad_phi_block(work, data, "b", layer, R)
    work.b[layer] = update_b(anchor, grad, layer, work.n_layers, work.nu, work.rho,
                             n_samples=data.n_samples)
    move = work.b[layer] - anchor
    R[layer] -= move  # a cache array, never a block of a state
    return l2sq(move)  # the squared move


def _update_z_hidden(work: MlpState, R: list, layer: int):
    half_nu = 0.5 * work.nu
    m = work.z[layer] - R[layer]
    work.z[layer] = solve_z_relu(m, work.a[layer], half_nu, half_nu)
    R[layer] = work.z[layer] - m


def _update_z_last(work: MlpState, R: list, risk: Risk):
    m = work.z[-1] - R[-1]
    res = solve_z_last(m, work.u, work.rho, risk, work.z[-1])
    work.z[-1] = res.z
    R[-1] = res.z - m
    return res


def _sweep(state: MlpState, data: Dataset, risk: Risk, regularizer: Regularizer,
           record: BlockRecord, R: list, backward: bool) -> MlpState:
    """One half-iteration from ``state``, as ``backward_sweep`` returns it."""
    work = state.copy()
    last = work.n_layers - 1
    # the forward block order: W, b, z, a of each hidden layer, then W, b, z
    blocks = [(kind, l) for l in range(last) for kind in "Wbza"]
    blocks += [("W", last), ("b", last), ("z", last)]

    def update(kind, layer, seed):
        if kind == "W":
            return _update_W(work, R, data, regularizer, layer, seed)
        if kind == "a":
            return _update_a(work, R, layer, seed)
        if kind == "b":
            return _update_b_block(work, R, data, layer)
        if layer == last:
            return _update_z_last(work, R, risk)
        _update_z_hidden(work, R, layer)
        return None

    walk_blocks(blocks, update, record, backward)
    return work


def backward_sweep(state: MlpState, data: Dataset, risk: Risk, regularizer: Regularizer,
                   record: BlockRecord, R: list) -> MlpState:
    """Returns the barred state, walking its blocks into ``record``, moves
    measured from ``state``.  R holds the layer residuals of ``state`` and
    is moved in place to those of the barred state.
    """
    return _sweep(state, data, risk, regularizer, record, R, backward=True)


def forward_sweep(barred: MlpState, data: Dataset, risk: Risk, regularizer: Regularizer,
                  record: BlockRecord, R: list) -> MlpState:
    """Continues from the barred state; anchors are the barred blocks.
    Returns, records and handles R as ``backward_sweep``."""
    return _sweep(barred, data, risk, regularizer, record, R, backward=False)


def train(
    arch: MlpArchitecture,
    data: Dataset,
    cfg: TrainConfig,
    eval_data: Dataset = None,
    trace_sink=None,
) -> TrainResult:
    objective.check_fit(arch, data, eval_data)
    state, R = objective.forward_init(arch, data, Rng(cfg.seed), cfg.rho, cfg.nu)
    risk, reg = objective.mean_risk(arch.risk, data.y), arch.regularizer  # one risk, one memo
    lagr0 = objective.lagrangian(state, risk, reg, R)

    def accuracy(W: list, b: list, x: Matrix, y: Matrix) -> float:
        return objective.accuracy(objective.forward_logits(W, b, x), y)

    def iterate(record: BlockRecord):
        nonlocal state
        barred = backward_sweep(state, data, risk, reg, record, R)
        del state  # the forward half needs only the barred blocks
        state = forward_sweep(barred, data, risk, reg, record, R)
        del barred
        state.u = dual_update(state, R[-1])
        objective_F, lagr = objective.objective_and_lagrangian(state, risk, reg, R)
        return lagr, dict(
            objective_F=objective_F,
            residual_l2=float(np.sqrt(l2sq(R[-1]))),
            stationarity_residual=stationarity_residual(risk.grad(state.z[-1]), state.u),
            # the first hidden layer is relu(W_0 x + b_0) = relu(z_0 - R_0)
            train_acc=accuracy(state.W[1:], state.b[1:], objective.relu(state.z[0] - R[0]), data.y),
            test_acc=(accuracy(state.W, state.b, eval_data.x, eval_data.y)
                      if eval_data is not None else float("nan")),
        )

    traces = run_certified(cfg.epochs, lagr0, iterate, IterationTrace,
                           (risk.curvature, cfg.rho, cfg.nu), trace_sink)
    return TrainResult(state=state, traces=traces)
