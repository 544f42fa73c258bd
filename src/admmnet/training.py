"""Backward-then-forward ADMM training: the certified iteration driver, the
block walk, and the MLP model.

The driver, ``run_certified``, is the loop both models share.  It creates
the step seeds, rejects a non-finite Lagrangian before iteration 1, and
after each iteration checks the sufficient-descent bound against the
previous Lagrangian, extends the running minimum c_k of the squared block
moves, assembles the trace, hands it to the sink and stops on a non-finite
Lagrangian.  On any abort the traces of the completed iterations are
attached to the ``TrainingAborted`` it raises.  A model supplies its
initial Lagrangian, the descent constants' H (the curvature of its own
``objective.Risk``, the constant the output solve steps by), rho and
penalty, its trace type, and one iteration that walks its blocks into a
``BlockRecord`` and returns the new Lagrangian and its own trace fields:
``train`` below (backward sweep, forward sweep, dual update),
``gcn.gcn_train`` (``gcn.gcn_iteration``).  The record gives the step
stats, moves, worst violation and FISTA flag.  The stationarity residual
reads the gradient of the same ``Risk``.
Iteration 1's ``descent_ok`` is reported as measured; from the zero initial
dual it can miss while ``hypothesis_met``, rho > 2H, holds.

The walk.  Each model states its forward block list once, as (kind, layer)
pairs.  ``walk_blocks`` runs it in reverse for the backward half, with step
keys tagged "_bar", and in order for the forward half.  The walk alone reads
and moves the step seeds, and it adds each block's accepted step, squared
move, violation and output-solve convergence to the iteration's record.

MLP iteration.  The two halves over W, b, z, a of each hidden layer and W,
b, z of the output layer, then the residual and dual update.  Each half works
on a copy of the state's block lists and every block update rebinds one
entry, so arrays are shared, never written into.  This reproduces the mixed
old/new indexing of the block subproblems: when layer l is visited, higher
layers already hold this sweep's values and lower layers the previous ones.

Cached products.  Besides the blocks, the sweep state holds the pre-bias
product P_l = W_l a_{l-1} of every layer (a_{-1} is the input x), so a
layer residual z_l - P_l - b_l costs no matrix product.  P is computed
fresh once per ``train()`` call and afterwards moves only with the two
blocks it depends on:

* an accepted W_l step, W_l - G/t, moves P_l by -(G a_{l-1})/t, the shift
  the accepted trial already formed for its residual; a regularized (prox)
  step, whose trials are not affine in 1/t, moves it likewise by the
  accepted trial's own product (W_l - anchor) a_{l-1};
* an accepted a_l step, a_l - G/t, moves P_{l+1} by -(W_{l+1} G)/t, the
  accepted trial's shift likewise.

b and z updates leave P alone.  The b and W gradients, the z-update inputs,
the output solve, the dual residual, the Lagrangian and objective_F all read
P.  The Lagrangian after iteration k is the one entering iteration k+1.

Block moves.  The walk sums the squared moves of the descent bound and c_k
in block order: the ``move_sq`` of a W or an a step's ``BacktrackResult`` and
of the output z's ``FistaResult``, and the float the b update returns.  The
hidden z update returns None, outside the bound.

Formulas.  This module holds the walk, the shared backtracking, the sweeps,
the P moves and the driver, and no formula of the objective: every
residual, block gradient, penalty term, objective_F and Lagrangian is a
call into ``objective``, the functions the finite-difference checks test,
with the cache passed as their ``P``; the output solve takes the risk's
``objective.Risk`` and a W step the regularizer's ``prox`` when it is
``active``.  Every backtracked block of both models runs
``backtrack_shifted``: a trial moves one cached linear quantity (a layer
residual here, a propagation in ``gcn``) by a shift, only the penalty terms
holding the block are evaluated at the moved quantity, and the accepted
trial's shift then moves the cache.  Plain trials are affine in the inverse
step, so their shifts reuse one precomputed product.  The a anchor's
activation term comes with its gradient from ``objective.grad_a``, which
forms a_l - f(z_l) anyway.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, objective
from .errors import DivergenceError, TrainingAborted
from .linalg import Matrix, Rng, l2sq, require_finite
from .objective import Dataset, MlpArchitecture, MlpState, _a_prev
from .solvers import (
    BacktrackResult,
    FistaResult,
    StepSeeds,
    backtrack_quadratic,
    solve_z_last,
    solve_z_relu,
    update_b,
)


@dataclass
class TrainConfig:
    rho: float
    nu: float
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    """What ``walk_blocks`` adds up over one iteration, with the run's step
    seeds: accepted steps by step key, the squared block moves, the worst
    certificate violation and whether every output solve converged."""

    seeds: StepSeeds
    steps: dict = field(default_factory=dict)
    moves: float = 0.0
    worst: float = 0.0
    fista_ok: bool = True


@dataclass
class TrainResult:
    state: MlpState
    traces: list


def run_certified(epochs: int, lagr0: float, iterate, trace_type, descent: tuple,
                  trace_sink=None) -> list:
    """Runs ``epochs`` iterations of one model and returns their traces.

    ``iterate(record)`` advances the model by one iteration, walking its
    blocks into ``record``, a fresh ``BlockRecord`` over the run's seeds, and
    returns (Lagrangian after it, trace fields), where the fields are those
    of ``trace_type``, a ``CertifiedTrace`` subclass, that neither this
    driver nor the record fills.  ``lagr0`` is the Lagrangian entering
    iteration 1 and ``descent`` the (H, rho, penalty) of the
    sufficient-descent constants.
    """
    traces = []
    try:
        if not np.isfinite(lagr0):
            raise DivergenceError("non-finite Lagrangian entering iteration 1")
        seeds = StepSeeds()
        t0 = time.perf_counter()
        lagr_prev = lagr0
        for it in range(1, epochs + 1):
            record = BlockRecord(seeds)
            lagr_new, fields = iterate(record)
            moves = record.moves
            ck = moves if it == 1 else min(ck, moves)  # c_k, the running minimum
            report = diagnostics.check_sufficient_descent(lagr_prev, lagr_new, moves, record.steps,
                                                          *descent)
            trace = trace_type(
                iter=it,
                lagrangian=lagr_new,
                descent_lhs=report.lhs,
                block_move_sq_sum=moves,
                c2=report.c2,
                ck=ck,
                descent_ok=report.satisfied,
                hypothesis_met=report.hypothesis_met,
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
            lagr_prev = lagr_new
    except TrainingAborted as exc:
        exc.traces = traces
        raise
    return traces


def walk_blocks(blocks: list, update, record: BlockRecord, backward: bool) -> None:
    """One half-iteration over ``blocks``, a model's forward list of (kind,
    layer), added to ``record``.  ``update(kind, layer, seed)`` updates one
    block from its step key's seed and returns its ``BacktrackResult``, its
    ``FistaResult``, its squared move when closed-form, or None for a block
    outside the descent bound."""
    tag = "_bar" if backward else ""
    for kind, layer in (reversed(blocks) if backward else blocks):
        key = (kind + tag, layer)
        res = update(kind, layer, record.seeds.get(key))
        if isinstance(res, BacktrackResult):
            record.seeds.update(key, res.step)
            record.steps[key] = res.step
            record.worst = max(record.worst, res.violation)
        elif isinstance(res, FistaResult):
            record.fista_ok = record.fista_ok and res.converged
        if res is not None:
            record.moves += res if isinstance(res, float) else res.move_sq


def backtrack_shifted(terms, base: Matrix, shift_of, grad: Matrix, anchor: Matrix, seed: float,
                      prox=None) -> tuple:
    """Backtracks one block whose trial x moves a cached linear quantity,
    ``base`` at the anchor, by ``shift_of(x, t)``.  ``terms(x, moved)`` sums
    the penalty terms holding the block, calling ``moved()`` for the moved
    quantity after its terms of x alone, so their temporaries are freed
    first.  Returns the ``BacktrackResult`` and the last (accepted) shift."""
    shift = None

    def eval_phi(cand, step):
        nonlocal shift
        if step is None:
            return terms(cand, lambda: base)
        shift = shift_of(cand, step)
        return terms(cand, lambda: base + shift)

    return backtrack_quadratic(eval_phi, grad, anchor, seed, prox=prox), shift


def dual_update(state: MlpState, r: Matrix) -> Matrix:
    return state.u + state.rho * r


def _update_W(work: MlpState, P: list, data: Dataset, arch: MlpArchitecture, layer: int,
              seed: float) -> BacktrackResult:
    a_prev = _a_prev(work, data, layer)
    anchor = work.W[layer]
    grad, lin0 = objective.grad_W(work, data, layer, P)
    is_last = layer == work.n_layers - 1
    prox = arch.regularizer.prox if arch.regularizer.active else None
    if prox is not None:
        shift_of = lambda cand, step: (anchor - cand) @ a_prev  # a prox trial is not affine
    else:
        grad_a = grad @ a_prev  # trial residual is lin0 + grad_a / step
        shift_of = lambda cand, step: grad_a / step
    res, shift = backtrack_shifted(lambda x, moved: objective.linear_term(work, moved(), is_last),
                                   lin0, shift_of, grad, anchor, seed, prox)
    work.W[layer] = res.candidate
    P[layer] = P[layer] - shift
    return res


def _update_a(work: MlpState, P: list, data: Dataset, layer: int, seed: float) -> BacktrackResult:
    nxt = layer + 1
    anchor = work.a[layer]
    fz = objective.relu(work.z[layer])
    grad, lin0, act0 = objective.grad_a(work, data, layer, fz, P)
    w_grad = work.W[nxt] @ grad  # trial residual is lin0 + w_grad / step
    is_last = nxt == work.n_layers - 1

    def terms(x, moved):
        act = act0 if x is anchor else objective.activation_term(work, x, fz)  # act0: from grad_a
        return act + objective.linear_term(work, moved(), is_last)

    res, shift = backtrack_shifted(terms, lin0, lambda x, t: w_grad / t, grad, anchor, seed)
    work.a[layer] = res.candidate
    P[nxt] = P[nxt] - shift
    return res


def _update_b_block(work: MlpState, P: list, data: Dataset, layer: int) -> float:
    anchor = work.b[layer]
    grad = objective.grad_phi_block(work, data, "b", layer, P=P)
    work.b[layer] = update_b(anchor, grad, layer, work.n_layers, work.nu, work.rho,
                             n_samples=data.n_samples)
    return l2sq(work.b[layer] - anchor)  # the squared move


def _update_z_hidden(work: MlpState, P: list, layer: int):
    half_nu = 0.5 * work.nu
    work.z[layer] = solve_z_relu(P[layer] + work.b[layer], work.a[layer], half_nu, half_nu)


def _update_z_last(work: MlpState, P: list, data: Dataset, arch: MlpArchitecture):
    last = work.n_layers - 1
    res = solve_z_last(P[last] + work.b[last], work.u, work.rho,
                       objective.mean_risk(arch.risk, data.y), work.z[last])
    work.z[last] = res.z
    return res


def _sweep(state: MlpState, data: Dataset, arch: MlpArchitecture, record: BlockRecord, P: list,
           backward: bool) -> MlpState:
    """One half-iteration from ``state``, as ``backward_sweep`` returns it."""
    work = state.copy()
    last = work.n_layers - 1
    # the forward block order: W, b, z, a of each hidden layer, then W, b, z
    blocks = [(kind, l) for l in range(last) for kind in "Wbza"]
    blocks += [("W", last), ("b", last), ("z", last)]

    def update(kind, layer, seed):
        if kind == "W":
            return _update_W(work, P, data, arch, layer, seed)
        if kind == "a":
            return _update_a(work, P, data, layer, seed)
        if kind == "b":
            return _update_b_block(work, P, data, layer)
        if layer == last:
            return _update_z_last(work, P, data, arch)
        _update_z_hidden(work, P, layer)
        return None

    walk_blocks(blocks, update, record, backward)
    return work


def backward_sweep(state: MlpState, data: Dataset, arch: MlpArchitecture,
                   record: BlockRecord, P: list) -> MlpState:
    """Returns the barred state, walking its blocks into ``record``, moves
    measured from ``state``.  P holds the products W_l a_{l-1} of ``state``
    and is moved in place to those of the barred state.
    """
    return _sweep(state, data, arch, record, P, backward=True)


def forward_sweep(barred: MlpState, data: Dataset, arch: MlpArchitecture,
                  record: BlockRecord, P: list) -> MlpState:
    """Continues from the barred state; anchors are the barred blocks.
    Returns, records and handles P as ``backward_sweep``."""
    return _sweep(barred, data, arch, record, P, backward=False)


def train(
    arch: MlpArchitecture,
    data: Dataset,
    cfg: TrainConfig,
    eval_data: Dataset = None,
    trace_sink=None,
) -> TrainResult:
    state = objective.forward_init(arch, data, Rng(cfg.seed), cfg.rho, cfg.nu)
    risk = objective.mean_risk(arch.risk, data.y)
    last = state.n_layers - 1
    P = objective.products(state, data)
    lagr0 = objective.lagrangian(state, data, arch, P)

    def accuracy(d: Dataset) -> float:
        return objective.accuracy(objective.forward_logits(state.W, state.b, d.x), d.y)

    def iterate(record: BlockRecord):
        nonlocal state
        barred = backward_sweep(state, data, arch, record, P)
        del state  # the forward half needs only the barred blocks
        state = forward_sweep(barred, data, arch, record, P)
        del barred
        r = objective.linear_residual(state, data, last, P)
        state.u = dual_update(state, r)
        objective_F, lagr = objective.objective_and_lagrangian(state, data, arch, P, r)
        return lagr, dict(
            objective_F=objective_F,
            residual_l2=float(np.sqrt(l2sq(r))),
            stationarity_residual=diagnostics.stationarity_residual(risk.grad(state.z[-1]),
                                                                    state.u),
            train_acc=accuracy(data),
            test_acc=accuracy(eval_data) if eval_data is not None else float("nan"),
        )

    traces = run_certified(cfg.epochs, lagr0, iterate, IterationTrace,
                           (risk.curvature, cfg.rho, cfg.nu), trace_sink)
    return TrainResult(state=state, traces=traces)
