"""Block subproblem solvers: backtracked quadratic majorization, closed-form
bias and ReLU updates, and the output-layer solve under any ``objective.Risk``,
whose formulas, like the regularizer's prox, live in ``objective``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BacktrackError, ShapeError
from .linalg import Matrix, l2sq
from .objective import Risk

# Slack used when accepting a majorization certificate; well inside the
# 1e-10 certificate tolerance the rest of the package asserts.
CERT_SLACK = 1e-12

# Backtracking grows the step by STEP_GROWTH per trial, for at most MAX_TRIALS
# trials, from a seed: SEED_INIT, then the last accepted step / STEP_GROWTH.
STEP_GROWTH = 2.0
MAX_TRIALS = 60
SEED_INIT = 1.0
SEED_FLOOR = 1e-8

# Output-layer solves stop once the gradient's infinity norm is at most
# FISTA_TOL; a solve that reaches FISTA_MAX_ITER first is flagged unconverged.
FISTA_TOL = 1e-8
FISTA_MAX_ITER = 100


@dataclass
class BacktrackResult:
    step: float
    candidate: Matrix
    trials: int
    violation: float  # phi(candidate) - Q(candidate; step) at acceptance
    move_sq: float  # ||candidate - anchor||^2


@dataclass
class StepSeeds:
    """Warm-started step seeds, one per (block kind, layer)."""

    values: dict = field(default_factory=dict)

    def get(self, key) -> float:
        return self.values.get(key, SEED_INIT)

    def update(self, key, accepted: float):
        self.values[key] = max(accepted / STEP_GROWTH, SEED_FLOOR)


def backtrack_quadratic(eval_phi, grad: Matrix, anchor: Matrix, seed_step: float,
                        prox=None) -> BacktrackResult:
    """Grow the step parameter geometrically until the quadratic model
    Q(x; t) = phi(anchor) + <grad, x - anchor> + (t/2) ||x - anchor||^2
    majorizes phi at the candidate x = anchor - grad/t (prox-mapped when a
    regularizer is present).

    eval_phi(candidate, step) may evaluate phi up to an additive constant
    that does not depend on the trial block; the certificate is unaffected.
    """
    phi0 = eval_phi(anchor, None)
    t = seed_step
    for trial in range(1, MAX_TRIALS + 1):
        cand = anchor - grad / t
        if prox is not None:
            cand = prox(cand, t)
        delta = cand - anchor
        move_sq = l2sq(delta)
        q = phi0 + float(np.vdot(grad, delta)) + 0.5 * t * move_sq
        del delta  # not held while eval_phi forms its own temporaries
        val = eval_phi(cand, t)
        if np.isfinite(val) and val <= q + CERT_SLACK:
            return BacktrackResult(step=t, candidate=cand, trials=trial, violation=val - q,
                                   move_sq=move_sq)
        t *= STEP_GROWTH
    raise BacktrackError(
        f"no certified step after {MAX_TRIALS} trials (seed {seed_step:g}); "
        "this usually signals a wrong gradient or non-finite inputs"
    )


def update_b(
    anchor_b: Matrix,
    grad: Matrix,
    layer: int,
    n_layers: int,
    nu: float,
    rho: float,
    n_samples: int,
) -> Matrix:
    """Closed-form bias update: divisor nu below the output layer, rho at it.

    The divisor is scaled by the sample count because the bias is shared
    across columns while the gradient sums over them; this is the exact
    minimizer of the batched quadratic model.
    """
    if nu <= 0.0 or rho <= 0.0:
        raise ValueError("nu and rho must be positive")
    divisor = (nu if layer < n_layers - 1 else rho) * n_samples
    return anchor_b - grad / divisor


def solve_z_relu(linear_in: Matrix, a_target: Matrix, w_lin: float, w_act: float) -> Matrix:
    """Elementwise minimizer of w_lin (z - m)^2 + w_act (t - max(z, 0))^2.

    The nonnegative branch gives max(c, 0), c = (w_lin m + w_act t)/(w_lin
    + w_act), the negative branch min(m, 0).  The negative branch has the
    strictly lower objective exactly where m + kappa t < 0, with kappa =
    sqrt(1 + w_act/w_lin) - 1 (for equal weights w and m < 0 <= c,
    obj_neg - obj_pos = (w/2)(m + (sqrt2 - 1) t)((sqrt2 + 1) t - m); where
    m >= 0 and the rule holds, both branches give 0), so one sign test picks
    it.  Ties, m + kappa t = 0, go to the nonnegative branch.
    """
    m, t = linear_in, a_target
    z_pos = np.maximum((w_lin * m + w_act * t) / (w_lin + w_act), 0.0)
    kappa = np.sqrt(1.0 + w_act / w_lin) - 1.0
    return np.where(m + kappa * t < 0.0, np.minimum(m, 0.0), z_pos)


# ---------------------------------------------------------------------------
# Output-layer solve
# ---------------------------------------------------------------------------

@dataclass
class FistaResult:
    z: Matrix
    iterations: int
    converged: bool
    move_sq: float = float("nan")  # ||z - anchor||^2, set by solve_z_last


def fista_minimize(grad_fn, obj_fn, anchor: Matrix, step: float, tol: float, max_iter: int) -> FistaResult:
    """Monotone (function-value) FISTA with gradient-based adaptive restart
    on a smooth convex objective; step is one over the gradient's Lipschitz
    constant.

    A candidate is kept only if it does not raise the objective.  The
    momentum restarts (t = 1, extrapolation point = kept iterate) after a
    rejected step and after an accepted one whose new gradient g satisfies
    <g, x_new - x> > 0, i.e. when the step runs against the descent
    direction (O'Donoghue and Candes, 2015).  Stops when the objective
    gradient at the kept iterate has infinity norm at most tol.  A non-tight
    solve is flagged, not fatal.  A rejected plain step (one taken from the
    kept iterate, as after a restart) ends the solve unconverged: every later
    iteration would form the same candidate and reject it again.

    The gradient of the kept iterate is kept with it: it is evaluated at the
    anchor and then only after an accepted step, since a rejected step keeps
    the iterate and so its gradient.  At every new kept point (the anchor,
    each accepted candidate) obj_fn is called just before grad_fn, so an
    oracle that memoizes its last point shares work between the two.  No
    iterate is written into once formed.
    """
    x = anchor.copy()
    x_obj = obj_fn(x)
    g = grad_fn(x)
    y = x
    t = 1.0
    for it in range(1, max_iter + 1):
        if float(np.max(np.abs(g))) <= tol:
            return FistaResult(z=x, iterations=it - 1, converged=True)
        cand = y - step * (g if y is x else grad_fn(y))
        cand_obj = obj_fn(cand)
        if cand_obj <= x_obj:
            g = grad_fn(cand)
            restart = float(np.vdot(g, cand - x)) > 0.0
            x_prev, x, x_obj = x, cand, cand_obj
        elif y is x:
            return FistaResult(z=x, iterations=it, converged=False)
        else:
            restart = True
        if restart:
            y, t = x, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
    return FistaResult(z=x, iterations=max_iter, converged=float(np.max(np.abs(g))) <= tol)


def solve_z_last(w_aff: Matrix, u: Matrix, rho: float, risk: Risk, anchor: Matrix) -> FistaResult:
    """Minimize R(z) + <u, z - w_aff> + (rho/2)||z - w_aff||^2, R = ``risk``:
    by its ``minimizer`` when it has one, else by ``fista_minimize`` from
    ``anchor`` with step 1/(H + rho), H = ``risk.curvature``.  Either way the
    result's ``move_sq`` is ||z - anchor||^2."""
    if anchor.shape != w_aff.shape:
        raise ShapeError(f"solve_z_last: shapes differ, {anchor.shape} vs {w_aff.shape}")

    def grad_fn(z):
        return risk.grad(z) + u + rho * (z - w_aff)

    def obj_fn(z):
        d = z - w_aff
        return risk.value(z) + float(np.vdot(u, d)) + 0.5 * rho * l2sq(d)

    if risk.minimizer is not None:
        res = FistaResult(z=risk.minimizer(w_aff, u, rho), iterations=0, converged=True)
    else:
        step = 1.0 / (risk.curvature + rho)
        res = fista_minimize(grad_fn, obj_fn, anchor, step, FISTA_TOL, FISTA_MAX_ITER)
    res.move_sq = l2sq(res.z - anchor)
    return res
