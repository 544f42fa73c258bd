import numpy as np
import pytest

from admmnet.diagnostics import (
    check_sufficient_descent,
    descent_constants,
    stationarity_residual,
)
from admmnet.linalg import Rng
from admmnet.objective import Dataset, MlpArchitecture, forward_init, risk_grad


class TestDescentConstants:
    def test_hypothesis_met_large_rho(self):
        c1, c2, met = descent_constants("cross_entropy", rho=4.0, nu=1.0, steps=[1.0, 2.0])
        # C1 = rho/2 - H/2 - H^2/rho with H=1: 2 - 0.5 - 0.25 = 1.25
        assert c1 == pytest.approx(1.25)
        assert c2 == pytest.approx(min(0.5, 1.25, 1.0))
        assert met

    def test_hypothesis_unmet_small_rho(self):
        c1, c2, met = descent_constants("cross_entropy", rho=1e-6, nu=1.0, steps=[1.0])
        assert c1 < 0
        assert not met


class TestCheckSufficientDescent:
    def test_zero_move_iteration(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.0, block_move_sq_sum=0.0,
            steps={"w": 1.0}, risk_kind="cross_entropy", rho=4.0, nu=1.0,
        )
        assert rep.satisfied
        assert rep.lhs == 0.0

    def test_violation_detected(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.5, block_move_sq_sum=1.0,
            steps={"w": 1.0}, risk_kind="cross_entropy", rho=4.0, nu=1.0,
        )
        assert not rep.satisfied
        assert rep.hypothesis_met

    def test_hypothesis_flagged_small_rho(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.5, block_move_sq_sum=1.0,
            steps={"w": 1.0}, risk_kind="cross_entropy", rho=1e-6, nu=1.0,
        )
        assert not rep.hypothesis_met


def test_stationarity_linearity_in_u():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    rng = Rng(1)
    x = rng.normal(0, 1, (3, 5))
    y = np.zeros((2, 5))
    y[0] = 1.0
    data = Dataset(x, y)
    state = forward_init(arch, data, rng, rho=1.0, nu=1.0)
    g = risk_grad(state.z[-1], data.y, arch.risk)
    state.u = -g
    base = stationarity_residual(g, state.u)
    assert base < 1e-14
    eps = 0.25
    state.u[0, 0] += eps
    assert stationarity_residual(g, state.u) == pytest.approx(base + eps, abs=1e-12)
