import numpy as np
import pytest

from admmnet.baselines import BaselineConfig, backprop_grads, run_baseline
from admmnet.linalg import Rng
from admmnet.objective import (Dataset, MlpArchitecture, Regularizer, forward, forward_logits, loss,
                               mean_risk)
from admmnet.synth import make_separable
from admmnet.training import TrainConfig, train


def random_params(arch, seed):
    rng = Rng(seed)
    dims = arch.layer_dims
    W = [rng.normal(0, 0.5, (dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    b = [rng.normal(0, 0.1, (dims[l + 1], 1)) for l in range(len(dims) - 1)]
    return W, b


class TestBackpropGrads:
    @pytest.mark.parametrize("risk_kind", ["cross_entropy", "squared"])
    def test_matches_finite_differences(self, risk_kind):
        arch = MlpArchitecture(layer_dims=(3, 5, 4, 2), risk=risk_kind)
        rng = Rng(0)
        x = rng.normal(0, 1, (3, 6))
        y = np.zeros((2, 6))
        y[rng.integers(0, 2, 6), np.arange(6)] = 1.0
        data = Dataset(x, y)
        W, b = random_params(arch, 1)
        risk = mean_risk(arch.risk, data.y)
        gW, gb = backprop_grads(W, data.x, risk, arch.regularizer, forward(W, b, data.x))
        h = 1e-6

        def value():
            return loss(risk, arch.regularizer, forward_logits(W, b, data.x), W)

        for params, grads in ((W, gW), (b, gb)):
            for l in range(len(params)):
                num = np.zeros_like(grads[l])
                for idx in np.ndindex(*num.shape):
                    orig = params[l][idx]
                    params[l][idx] = orig + h
                    fp = value()
                    params[l][idx] = orig - h
                    fm = value()
                    params[l][idx] = orig
                    num[idx] = (fp - fm) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(num))))
                assert np.max(np.abs(grads[l] - num)) / scale < 1e-5

    def test_last_layer_squared_gradient_analytic(self):
        # with squared risk the output-layer gradients have a closed form:
        # gW = resid @ a_prev.T / m, gb = row sums of resid / m
        arch = MlpArchitecture(layer_dims=(3, 5, 2), risk="squared")
        rng = Rng(2)
        x = rng.normal(0, 1, (3, 7))
        y = rng.normal(0, 1, (2, 7))
        data = Dataset(x, y)
        W, b = random_params(arch, 6)
        fwd = forward(W, b, x)
        gW, gb = backprop_grads(W, x, mean_risk(arch.risk, y), arch.regularizer, fwd)
        _, a = fwd
        # a[0] is the hidden activation feeding layer 1
        resid = (W[1] @ a[0] + b[1] - y) / 7
        assert np.allclose(gW[1], resid @ a[0].T, atol=1e-12)
        assert np.allclose(gb[1], resid.sum(axis=1, keepdims=True), atol=1e-12)


class TestRunBaseline:
    def test_gd_monotone_on_quadratic(self):
        arch = MlpArchitecture(layer_dims=(2, 4, 2), risk="squared")
        data = make_separable(20, n_features=2, rng=Rng(3))
        cfg = BaselineConfig(optimizer="gd", learning_rate=0.01, epochs=50, seed=0)
        _, traces = run_baseline(cfg, arch, data)
        losses = [t.loss for t in traces]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_adam_solves_separable(self):
        arch = MlpArchitecture(layer_dims=(4, 8, 2))
        data = make_separable(50, rng=Rng(3))
        cfg = BaselineConfig(optimizer="adam", learning_rate=1e-3, epochs=500, seed=0)
        _, traces = run_baseline(cfg, arch, data)
        assert traces[-1].train_acc == 1.0

    def test_zero_learning_rate_constant_trace(self):
        arch = MlpArchitecture(layer_dims=(4, 4, 2))
        data = make_separable(20, rng=Rng(4))
        cfg = BaselineConfig(optimizer="gd", learning_rate=0.0, epochs=5, seed=0)
        _, traces = run_baseline(cfg, arch, data)
        assert len({t.loss for t in traces}) == 1

    @pytest.mark.parametrize("opt,lr", [
        ("gd", 0.05), ("adagrad", 1e-3), ("adadelta", 0.1), ("adam", 1e-3),
    ])
    def test_all_optimizers_reduce_loss(self, opt, lr):
        arch = MlpArchitecture(layer_dims=(4, 8, 2))
        data = make_separable(50, rng=Rng(3))
        cfg = BaselineConfig(optimizer=opt, learning_rate=lr, epochs=500, seed=0)
        _, traces = run_baseline(cfg, arch, data)
        assert traces[-1].loss < traces[0].loss

    def test_determinism(self):
        arch = MlpArchitecture(layer_dims=(4, 4, 2))
        data = make_separable(20, rng=Rng(5))
        cfg = BaselineConfig(optimizer="adam", learning_rate=1e-3, epochs=10, seed=1)
        _, t1 = run_baseline(cfg, arch, data)
        _, t2 = run_baseline(cfg, arch, data)
        assert [t.loss for t in t1] == [t.loss for t in t2]

    def test_one_training_forward_pass_per_epoch(self, monkeypatch):
        """The forward pass behind an epoch's loss feeds the next epoch's
        gradients; the weights and traces are those of fresh passes."""
        import admmnet.baselines as baselines

        arch = MlpArchitecture(layer_dims=(4, 6, 5, 2))
        data = make_separable(30, rng=Rng(6))
        cfg = BaselineConfig(optimizer="adam", learning_rate=1e-2, epochs=6, seed=2)
        (W, b), traces = run_baseline(cfg, arch, data)
        # a zero learning rate leaves the seeded initial weights
        (W_ref, b_ref), _ = run_baseline(BaselineConfig(optimizer="gd", learning_rate=0.0,
                                                        epochs=1, seed=2), arch, data)
        upd = baselines._Updater(cfg, W_ref + b_ref)
        risk = mean_risk(arch.risk, data.y)
        for trace in traces:
            gW, gb = backprop_grads(W_ref, data.x, risk, arch.regularizer,
                                    forward(W_ref, b_ref, data.x))
            new = upd.step(W_ref + b_ref, gW + gb)
            W_ref, b_ref = new[: len(W_ref)], new[len(W_ref):]
            z_last = forward_logits(W_ref, b_ref, data.x)
            assert trace.loss == loss(risk, arch.regularizer, z_last, W_ref)
        for p, q in zip(W + b, W_ref + b_ref):
            assert p.tobytes() == q.tobytes()

        calls = [0]
        real = baselines.objective.forward

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(baselines.objective, "forward", counted)
        run_baseline(cfg, arch, data)
        assert calls[0] == cfg.epochs + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig(optimizer="sgd", learning_rate=0.1, epochs=1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            BaselineConfig(optimizer="adam", learning_rate=0.1, epochs=1, seed=-1)

    @pytest.mark.parametrize("counts, message", [
        (dict(epochs=1, seed=0.9), "seed must be >= 0"),
        (dict(epochs=2.5, seed=0), "epochs must be >= 1"),
    ])
    def test_config_rejects_a_non_integer(self, counts, message):
        with pytest.raises(ValueError, match=message):
            BaselineConfig(optimizer="adam", learning_rate=0.1, **counts)


def test_inactive_regularizer_is_off_for_every_consumer():
    """``Regularizer.active`` is the one on/off test: an inactive regularizer,
    of either kind at weight 0, leaves the baselines' gradient and run, the
    ADMM trace and the reported value as without it."""
    data = make_separable(40, rng=Rng(3))
    plain = MlpArchitecture(layer_dims=(4, 8, 2))
    gd = BaselineConfig(optimizer="gd", learning_rate=0.05, epochs=1)
    admm = TrainConfig(rho=4.0, nu=1.0, epochs=3)
    W0, b0 = random_params(plain, 1)
    (W_plain, _), _ = run_baseline(gd, plain, data)
    lagr_plain = [t.lagrangian for t in train(plain, data, admm).traces]
    for reg in (Regularizer("l1", 0.0), Regularizer("l2", 0.0)):
        arch = MlpArchitecture(layer_dims=(4, 8, 2), regularizer=reg)
        assert not reg.active and reg.value(W0[0]) == 0.0
        fwd, risk = forward(W0, b0, data.x), mean_risk(plain.risk, data.y)
        for g, g_plain in zip(backprop_grads(W0, data.x, risk, reg, fwd)[0],
                              backprop_grads(W0, data.x, risk, plain.regularizer, fwd)[0]):
            assert g.tobytes() == g_plain.tobytes()
        (W, _), _ = run_baseline(gd, arch, data)
        assert W[0].tobytes() == W_plain[0].tobytes()
        assert [t.lagrangian for t in train(arch, data, admm).traces] == lagr_plain
    # an active one moves all three
    l1 = MlpArchitecture(layer_dims=(4, 8, 2), regularizer=Regularizer("l1", 0.5))
    assert l1.regularizer.value(W0[0]) > 0.0
    assert run_baseline(gd, l1, data)[0][0][0].tobytes() != W_plain[0].tobytes()
    assert [t.lagrangian for t in train(l1, data, admm).traces] != lagr_plain
