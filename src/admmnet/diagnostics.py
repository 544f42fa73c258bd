"""Runtime convergence checks: sufficient-descent verification, running-minimum
movement series, and the output-layer stationarity residual.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Matrix

# A-priori risk gradient Lipschitz bounds per risk kind (mean-over-samples
# convention); the descent theory consumes a constant, not an estimate.
RISK_H = {"cross_entropy": 1.0, "squared": 1.0}


@dataclass
class DescentReport:
    iter: int
    lhs: float  # Lagrangian drop over the iteration
    block_move_sq_sum: float
    c2: float
    satisfied: bool
    hypothesis_met: bool  # rho > 2H, so the descent bound is in force


@dataclass
class CkSeries:
    """Running minimum of the per-iteration squared block movement."""

    values: list = field(default_factory=list)

    def update(self, move_sq_sum: float) -> "CkSeries":
        if move_sq_sum < 0:
            raise ValueError("squared movement cannot be negative")
        if self.values:
            self.values.append(min(self.values[-1], move_sq_sum))
        else:
            self.values.append(move_sq_sum)
        return self


def descent_constants(risk_kind: str, rho: float, nu: float, steps) -> tuple:
    """(C1, C2, hypothesis_met) for the sufficient-descent bound."""
    h = RISK_H[risk_kind]
    c1 = rho / 2.0 - h / 2.0 - h * h / rho
    hypothesis_met = rho > 2.0 * h and c1 > 0.0
    candidates = [nu / 2.0, c1]
    if steps:
        candidates.append(min(steps.values() if isinstance(steps, dict) else steps))
    return c1, min(candidates), hypothesis_met


def check_sufficient_descent(
    lagr_prev: float,
    lagr_new: float,
    block_move_sq_sum: float,
    steps,
    risk_kind: str,
    rho: float,
    nu: float,
    iteration: int,
    slack: float = 1e-8,
) -> DescentReport:
    _, c2, hypothesis_met = descent_constants(risk_kind, rho, nu, steps)
    lhs = lagr_prev - lagr_new
    # When the hypothesis is unmet the verdict is informational only;
    # callers gate any assertion on hypothesis_met.
    satisfied = lhs >= c2 * block_move_sq_sum - slack
    return DescentReport(
        iter=iteration,
        lhs=lhs,
        block_move_sq_sum=block_move_sq_sum,
        c2=c2,
        satisfied=satisfied,
        hypothesis_met=hypothesis_met,
    )


def stationarity_residual(risk_grad: Matrix, dual: Matrix) -> float:
    """Infinity norm of grad R(z_last) + u, given the risk gradient at the
    output block and the dual, after a completed iteration."""
    return float(np.max(np.abs(risk_grad + dual)))
