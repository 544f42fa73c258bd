"""Runtime convergence checks: sufficient-descent verification, whose H is
the curvature of the trainer's ``objective.Risk``, the constant the output
solve steps by, and the output-layer stationarity residual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix

# Absolute slack on the sufficient-descent inequality, for rounding in the
# Lagrangian difference.
DESCENT_SLACK = 1e-8


@dataclass
class DescentReport:
    lhs: float  # Lagrangian drop over the iteration
    c2: float
    satisfied: bool
    hypothesis_met: bool  # rho > 2H, so the descent bound is in force


def descent_constants(h: float, rho: float, nu: float, steps: dict) -> tuple:
    """(C1, C2, hypothesis_met) for the sufficient-descent bound, given the
    risk gradient's Lipschitz constant h and the accepted steps by step key."""
    c1 = rho / 2.0 - h / 2.0 - h * h / rho
    hypothesis_met = rho > 2.0 * h and c1 > 0.0
    candidates = [nu / 2.0, c1]
    if steps:
        candidates.append(min(steps.values()))
    return c1, min(candidates), hypothesis_met


def check_sufficient_descent(
    lagr_prev: float,
    lagr_new: float,
    block_move_sq_sum: float,
    steps: dict,
    h: float,
    rho: float,
    nu: float,
) -> DescentReport:
    _, c2, hypothesis_met = descent_constants(h, rho, nu, steps)
    lhs = lagr_prev - lagr_new
    # When the hypothesis is unmet the verdict is informational only;
    # callers gate any assertion on hypothesis_met.
    satisfied = lhs >= c2 * block_move_sq_sum - DESCENT_SLACK
    return DescentReport(lhs=lhs, c2=c2, satisfied=satisfied, hypothesis_met=hypothesis_met)


def stationarity_residual(risk_grad: Matrix, dual: Matrix) -> float:
    """Infinity norm of grad R(z_last) + u, given the risk gradient at the
    output block and the dual, after a completed iteration."""
    return float(np.max(np.abs(risk_grad + dual)))
