import numpy as np
import pytest

from admmnet.diagnostics import (
    check_sufficient_descent,
    descent_constants,
    stationarity_residual,
)
from admmnet.gcn import GcnConfig, gcn_train
from admmnet.linalg import Rng
from admmnet.objective import Dataset, MlpArchitecture, forward_init, mean_risk
from admmnet.synth import make_sbm_graph, make_separable
from admmnet.training import TrainConfig, train


class TestDescentConstants:
    def test_hypothesis_met_large_rho(self):
        c1, c2, met = descent_constants(0.01, rho=4.0, nu=1.0, steps={("W", 0): 1.0, ("a", 0): 2.0})
        # C1 = rho/2 - H/2 - H^2/rho with H = 0.01: 2 - 0.005 - 0.000025
        assert c1 == pytest.approx(1.994975)
        assert c2 == pytest.approx(min(0.5, 1.994975, 1.0))
        assert met

    def test_hypothesis_unmet_small_rho(self):
        c1, c2, met = descent_constants(0.01, rho=1e-6, nu=1.0, steps={("W", 0): 1.0})
        assert c1 < 0
        assert c2 == c1
        assert not met


class TestDriverCurvature:
    """The trainers certify with H, the curvature of their own ``Risk``
    over their training samples, the constant the output solve steps by: rho > 2H holds above
    that threshold and fails below it, at every iteration."""

    @pytest.mark.parametrize("rho, met", [(0.03, True), (0.015, False)])
    def test_mlp_cross_entropy(self, rho, met):
        # 50 samples: 2H = 2 / (2 * 50) = 0.02
        data = make_separable(50, rng=Rng(3))
        arch = MlpArchitecture(layer_dims=(4, 8, 2))
        traces = train(arch, data, TrainConfig(rho=rho, nu=1.0, epochs=3)).traces
        assert [t.hypothesis_met for t in traces] == [met] * 3

    @pytest.mark.parametrize("rho, met", [(0.02, True), (0.015, False)])
    def test_gcn_training_nodes(self, rho, met):
        # 60 of 200 nodes train: 2H = 2 / (2 * 60) = 1/60, about 0.0167
        graph = make_sbm_graph(200, rng=Rng(8))
        assert int(np.sum(graph.train_mask)) == 60
        _, traces = gcn_train(graph, GcnConfig(hidden_dims=(8,), rho=rho, mu=1.0, epochs=3))
        assert [t.hypothesis_met for t in traces] == [met] * 3


class TestCheckSufficientDescent:
    def test_zero_move_iteration(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.0, block_move_sq_sum=0.0,
            steps={"w": 1.0}, h=0.01, rho=4.0, nu=1.0,
        )
        assert rep.satisfied
        assert rep.lhs == 0.0

    def test_violation_detected(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.5, block_move_sq_sum=1.0,
            steps={"w": 1.0}, h=0.01, rho=4.0, nu=1.0,
        )
        assert not rep.satisfied
        assert rep.hypothesis_met

    def test_hypothesis_flagged_small_rho(self):
        rep = check_sufficient_descent(
            lagr_prev=5.0, lagr_new=5.5, block_move_sq_sum=1.0,
            steps={"w": 1.0}, h=0.01, rho=1e-6, nu=1.0,
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
    g = mean_risk(arch.risk, data.y).grad(state.z[-1])
    state.u = -g
    base = stationarity_residual(g, state.u)
    assert base < 1e-14
    eps = 0.25
    state.u[0, 0] += eps
    assert stationarity_residual(g, state.u) == pytest.approx(base + eps, abs=1e-12)
