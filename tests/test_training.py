import re
import weakref

import numpy as np
import pytest

import admmnet.objective as objective
import admmnet.solvers as solvers
import admmnet.training as training
from admmnet.baselines import BaselineConfig, run_baseline
from admmnet.errors import DivergenceError, ShapeError
from admmnet.linalg import Rng, l2sq
from admmnet.objective import (
    NO_REG,
    Dataset,
    MlpArchitecture,
    Regularizer,
    forward_init,
    forward_logits,
    lagrangian,
    mean_risk,
    residuals,
)
from admmnet.gcn import GcnConfig, gcn_train
from admmnet.solvers import BacktrackResult, FistaResult
from admmnet.synth import make_image_classes, make_sbm_graph, make_separable
from admmnet.training import (
    BlockRecord,
    CertifiedTrace,
    TrainConfig,
    backward_sweep,
    dual_update,
    forward_sweep,
    run_certified,
    stationarity_residual,
    train,
    walk_blocks,
)


def block_move_sq_sum(prev, barred, new):
    """Squared block moves of one iteration measured from the arrays, summed
    in the walk's order: the backward half's blocks in reverse, then the
    forward half's in order, over W, b and the hidden a of each layer and
    the output z."""
    last = prev.n_layers - 1
    blocks = [(kind, l) for l in range(last) for kind in "Wba"]
    blocks += [("W", last), ("b", last), ("z", last)]
    total = 0.0
    for old, moved, order in ((prev, barred, reversed(blocks)), (barred, new, blocks)):
        for kind, l in order:
            total += l2sq(getattr(moved, kind)[l] - getattr(old, kind)[l])
    return total


@pytest.fixture(scope="module")
def separable_run():
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2))
    cfg = TrainConfig(rho=1.0, nu=1.0, epochs=100, seed=0)
    return arch, data, cfg, train(arch, data, cfg)


def test_walk_blocks_bookkeeping():
    """The walk passes each block the seed of its key's previous step, and
    adds to the record the steps, the moves of the backtracked, output and
    closed-form blocks, the worst violation and the output solves'
    convergence; a block returning None adds nothing."""
    calls = []

    def update(kind, layer, seed):
        calls.append((kind, layer, seed))
        if kind == "W":
            return BacktrackResult(step=2.0 * seed, candidate=None, trials=2,
                                   violation=(layer - 1) * 1e-12, move_sq=layer + 0.5, moved=None)
        if kind == "b":
            return 0.25  # a closed-form block's move
        if layer == 1:  # the output z
            return FistaResult(z=None, iterations=3, converged=False, move_sq=16.0)
        return None  # the hidden z, outside the bound

    blocks = [("W", 0), ("b", 0), ("z", 0), ("W", 1), ("z", 1)]
    record = BlockRecord({("W_bar", 1): 8.0})
    assert walk_blocks(blocks, update, record, backward=True) is None
    assert calls == [("z", 1, 1.0), ("W", 1, 4.0), ("z", 0, 1.0), ("b", 0, 1.0), ("W", 0, 1.0)]
    assert list(record.steps.items()) == [(("W_bar", 1), 8.0), (("W_bar", 0), 2.0)]
    assert (record.moves, record.worst, record.fista_ok) == (16.0 + 1.5 + 0.25 + 0.5, 0.0, False)

    calls.clear()
    walk_blocks(blocks[:2], update, record, backward=False)  # adds to the same record
    assert calls == [("W", 0, 1.0), ("b", 0, 1.0)]
    assert list(record.steps) == [("W_bar", 1), ("W_bar", 0), ("W", 0)]
    assert (record.moves, record.worst, record.fista_ok) == (19.0, 0.0, False)

    nxt = BlockRecord(record.steps)  # the next iteration, seeded by this one's steps
    walk_blocks(blocks[:2], update, nxt, backward=False)
    assert calls[-2:] == [("W", 0, 1.0), ("b", 0, 1.0)]  # W's seed: its step 2.0 / 2
    assert (nxt.steps, nxt.moves, nxt.worst, nxt.fista_ok) == ({("W", 0): 2.0}, 0.75, 0.0, True)


def test_walk_blocks_drops_each_result():
    """A block's result, which holds its accepted moved quantity, is
    unreachable once the next block's update starts: a cache entry that the
    next update replaces is not held through it."""
    refs = []

    def update(kind, layer, seed):
        assert [r() for r in refs] == [None] * len(refs)
        res = BacktrackResult(step=seed, candidate=None, trials=1, violation=0.0, move_sq=0.0,
                              moved=np.zeros(3))
        refs.append(weakref.ref(res))
        return res

    walk_blocks([("W", 0), ("a", 0), ("W", 1)], update, BlockRecord(), backward=True)
    assert len(refs) == 3 and refs[-1]() is None


def certify(lagrs, moves, steps, descent, lagr0=5.0):
    """Traces of ``run_certified`` under a scripted iterate: iteration k
    returns the Lagrangian lagrs[k] after walking squared moves moves[k] and
    accepted ``steps`` into its record."""
    script = iter(zip(lagrs, moves))

    def iterate(record):
        lagr, record.moves = next(script)
        record.steps.update(steps)
        return lagr, dict(stationarity_residual=0.0, train_acc=0.0, test_acc=0.0)

    return run_certified(len(lagrs), lagr0, iterate, CertifiedTrace, descent)


def test_driver_c1():
    """C1 = rho/2 - H/2 - H^2/rho, read through c2 when penalty/2 and every
    step exceed it: 2 - 0.005 - 0.000025 at H = 0.01, rho = 4."""
    (trace,) = certify([4.0], [1.0], {("W", 0): 3.0, ("a", 0): 4.0}, (0.01, 4.0, 5.0))
    assert trace.c2 == pytest.approx(1.994975)
    assert trace.hypothesis_met


@pytest.mark.parametrize("penalty, steps, c2", [
    (1.0, {("W", 0): 1.0, ("a", 0): 2.0}, 0.5),  # penalty/2
    (4.0, {("W", 0): 1.0, ("a", 0): 2.0}, 1.0),  # the least step
    (5.0, {}, 1.994975),  # C1, with no step accepted
])
def test_driver_c2_is_the_least_constant(penalty, steps, c2):
    """c2 = min(penalty/2, C1, accepted steps), at every iteration."""
    traces = certify([4.0, 3.0], [1.0, 0.5], steps, (0.01, 4.0, penalty))
    assert [t.c2 for t in traces] == [pytest.approx(c2)] * 2


def test_driver_hypothesis_unmet_small_rho():
    """At rho = 1e-6 < 2H, C1 is negative and c2 is C1."""
    h, rho = 0.01, 1e-6
    traces = certify([5.5, 5.0], [1.0, 1.0], {("W", 0): 1.0}, (h, rho, 1.0))
    c1 = rho / 2.0 - h / 2.0 - h * h / rho
    assert c1 < 0
    assert [(t.c2, t.hypothesis_met) for t in traces] == [(c1, False)] * 2


def test_driver_hypothesis_flagged_small_rho():
    """A rise from 5 to 5.5 at rho = 1e-6 is reported with the hypothesis
    flagged unmet, so the bound is not in force."""
    (trace,) = certify([5.5], [1.0], {"w": 1.0}, (0.01, 1e-6, 1.0))
    assert not trace.hypothesis_met


def test_driver_zero_move_flat_lagrangian():
    (trace,) = certify([5.0], [0.0], {"w": 1.0}, (0.01, 4.0, 1.0))
    assert trace.descent_ok
    assert trace.descent_lhs == 0.0


def test_driver_detects_a_rise():
    """A Lagrangian rising from 5 to 5.5 over a move of 1 fails the bound
    where it is in force."""
    (trace,) = certify([5.5], [1.0], {"w": 1.0}, (0.01, 4.0, 1.0))
    assert trace.descent_lhs == -0.5
    assert not trace.descent_ok
    assert trace.hypothesis_met


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


def test_stationarity_linearity_in_u():
    arch = MlpArchitecture(layer_dims=(3, 4, 2))
    rng = Rng(1)
    x = rng.normal(0, 1, (3, 5))
    y = np.zeros((2, 5))
    y[0] = 1.0
    data = Dataset(x, y)
    state = forward_init(arch, data, rng, rho=1.0, nu=1.0)[0]
    g = mean_risk(arch.risk, data.y).grad(state.z[-1])
    state.u = -g
    base = stationarity_residual(g, state.u)
    assert base < 1e-14
    eps = 0.25
    state.u[0, 0] += eps
    assert stationarity_residual(g, state.u) == pytest.approx(base + eps, abs=1e-12)


@pytest.mark.parametrize("model", ["mlp", "gcn"])
def test_forward_step_keys_are_backward_keys_reversed(model):
    """Each model walks one forward block list in reverse, then in order."""
    if model == "mlp":
        arch = MlpArchitecture(layer_dims=(4, 5, 5, 2))
        (trace,) = train(arch, make_separable(20, rng=Rng(4)),
                         TrainConfig(rho=1.0, nu=1.0, epochs=1)).traces
        forward = [("W", 0), ("a", 0), ("W", 1), ("a", 1), ("W", 2)]
    else:
        cfg = GcnConfig(hidden_dims=(8, 4), rho=1.0, mu=1.0, epochs=1)
        _, (trace,) = gcn_train(make_sbm_graph(40, rng=Rng(2)), cfg)
        forward = [("W", 0), ("Z", 0), ("W", 1), ("Z", 1), ("W", 2)]
    barred = [(kind + "_bar", layer) for kind, layer in reversed(forward)]
    assert list(trace.step_stats) == barred + forward


def test_certified_where_it_learns():
    """At rho = nu = 1e-2 > 2H = 1e-3 (1,000 samples) the hypothesis holds at
    every iteration, the descent bound from iteration 2 on, and the model
    learns: train accuracy 0.85 at epoch 18 and 1.0 at epoch 60."""
    data, _ = make_image_classes(1000, rng=Rng(1))
    arch = MlpArchitecture(layer_dims=(784, 64, 64, 10))
    traces = train(arch, data, TrainConfig(rho=1e-2, nu=1e-2, epochs=60, seed=0)).traces
    assert all(t.hypothesis_met for t in traces)
    assert all(t.descent_ok for t in traces[1:])
    assert max(t.max_cert_violation for t in traces) <= 1e-10
    assert max(t.train_acc for t in traces[:20]) >= 0.85
    assert traces[-1].train_acc >= 0.99


def test_dual_update_arithmetic():
    data = make_separable(10, rng=Rng(0))
    arch = MlpArchitecture(layer_dims=(4, 3, 2))
    state = forward_init(arch, data, Rng(0), rho=2.0, nu=1.0)[0]
    assert np.array_equal(dual_update(state, np.zeros_like(state.u)), state.u)
    r = np.ones_like(state.u) * 3.0
    assert np.allclose(dual_update(state, r) - state.u, 6.0)


def test_separable_task_reaches_full_accuracy(separable_run):
    arch, data, cfg, result = separable_run
    logits = forward_logits(result.state.W, result.state.b, data.x)
    acc = float(np.mean(np.argmax(logits, 0) == np.argmax(data.y, 0)))
    assert acc == 1.0


def test_lagrangian_monotone_at_rho_1(separable_run):
    arch, data, cfg, result = separable_run
    lag = [t.lagrangian for t in result.traces]
    assert all(b <= a + 1e-9 for a, b in zip(lag, lag[1:]))


def test_no_certificate_violations(separable_run):
    _, _, _, result = separable_run
    assert max(t.max_cert_violation for t in result.traces) <= 1e-10


def test_stationarity_residual_small(separable_run):
    _, _, cfg, result = separable_run
    assert max(t.stationarity_residual for t in result.traces) <= 10 * solvers.FISTA_TOL


def test_dual_residual_consistency(separable_run):
    arch, data, cfg, _ = separable_run
    # replay two iterations by hand and compare u increments to rho*r
    state = forward_init(arch, data, Rng(cfg.seed), rho=cfg.rho, nu=cfg.nu)[0]
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer
    record = BlockRecord()
    for _ in range(2):
        record = BlockRecord(record.steps)
        barred = backward_sweep(state, data, risk, reg, record, residuals(state, data))
        new = forward_sweep(barred, data, risk, reg, record, residuals(barred, data))
        r = objective.linear_residual(new, data, arch.n_layers - 1)
        u_prev = new.u.copy()
        new.u = dual_update(new, r)
        assert np.array_equal(new.u, u_prev + cfg.rho * r)
        state = new


def test_admm_and_baselines_share_the_start(monkeypatch):
    """At one seed ``train`` and ``run_baseline`` start from equal W and b,
    as the comparison of ADMM with the baselines assumes; each run's first
    forward pass is of its start, whose arrays no update writes into."""
    starts = []
    real = objective.forward

    def recording(W, b, x):
        starts.append(list(W) + list(b))
        return real(W, b, x)

    monkeypatch.setattr(objective, "forward", recording)
    data = make_separable(30, rng=Rng(5))
    arch = MlpArchitecture(layer_dims=(4, 6, 5, 2))
    train(arch, data, TrainConfig(rho=1.0, nu=1.0, epochs=1, seed=9))
    admm_calls = len(starts)
    run_baseline(BaselineConfig("adam", 1e-3, 1, seed=9), arch, data)
    admm, adam = starts[0], starts[admm_calls]
    assert len(admm) == len(adam) == 6
    assert all(np.array_equal(p, q) for p, q in zip(admm, adam))


def test_determinism():
    data = make_separable(30, rng=Rng(5))
    arch = MlpArchitecture(layer_dims=(4, 6, 2))
    cfg = TrainConfig(rho=1.0, nu=1.0, epochs=10, seed=9)
    r1 = train(arch, data, cfg)
    r2 = train(arch, data, cfg)
    for t1, t2 in zip(r1.traces, r2.traces):
        assert t1.lagrangian == t2.lagrangian
        assert t1.objective_F == t2.objective_F
    for w1, w2 in zip(r1.state.W, r2.state.W):
        assert np.array_equal(w1, w2)


def test_nonmonotone_at_tiny_rho():
    # small rho voids the descent guarantee; the Lagrangian fluctuates
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2))
    cfg = TrainConfig(rho=1e-6, nu=1.0, epochs=200, seed=0)
    result = train(arch, data, cfg)
    lag = [t.lagrangian for t in result.traces]
    increases = sum(1 for a, b in zip(lag, lag[1:]) if b > a)
    assert increases >= 10


def test_output_solves_converge_at_tiny_rho():
    # the output solve is damped Newton on the cross-entropy Hessian; every
    # solve converges, where FISTA's stop would bound z's error by tol/rho = 1e-2
    data = make_image_classes(5000, n_pixels=64, n_classes=10, rng=Rng(1))[0]
    arch = MlpArchitecture(layer_dims=(64, 16, 10))
    cfg = TrainConfig(rho=1e-6, nu=1e-6, epochs=30, seed=0)
    traces = train(arch, data, cfg).traces
    assert all(t.fista_converged for t in traces)


def test_stationary_point_is_fixed():
    # run to (near) convergence, then one more sweep pair must barely move
    # relative to how far the very first iteration moved
    data = make_separable(30, rng=Rng(1))
    arch = MlpArchitecture(layer_dims=(4, 6, 2))
    cfg = TrainConfig(rho=4.0, nu=1.0, epochs=1000, seed=2)
    result = train(arch, data, cfg)
    state = result.state
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer
    record = BlockRecord()
    barred = backward_sweep(state, data, risk, reg, record, residuals(state, data))
    new = forward_sweep(barred, data, risk, reg, record, residuals(barred, data))
    move = block_move_sq_sum(state, barred, new)
    assert move < 0.01 * result.traces[0].block_move_sq_sum
    assert move < 1e-4


def test_each_sweep_decreases_lagrangian():
    data = make_separable(40, rng=Rng(2))
    arch = MlpArchitecture(layer_dims=(4, 8, 2))
    cfg = TrainConfig(rho=2.0, nu=1.0, epochs=1, seed=0)
    state = forward_init(arch, data, Rng(cfg.seed), rho=cfg.rho, nu=cfg.nu)[0]
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer
    record = BlockRecord()
    before = lagrangian(state, risk, reg, residuals(state, data))
    barred = backward_sweep(state, data, risk, reg, record, residuals(state, data))
    mid = lagrangian(barred, risk, reg, residuals(barred, data))
    assert mid <= before + 1e-9
    new = forward_sweep(barred, data, risk, reg, record, residuals(barred, data))
    after = lagrangian(new, risk, reg, residuals(new, data))
    assert after <= mid + 1e-9


def test_index_discipline_backward_sweep(monkeypatch):
    """The a-bar update of layer l must see already-updated (barred) blocks for
    layers above l and untouched blocks for layers at or below l."""
    data = make_separable(20, rng=Rng(4))
    arch = MlpArchitecture(layer_dims=(4, 5, 5, 2))
    state = forward_init(arch, data, Rng(0), rho=1.0, nu=1.0)[0]
    orig_W = [w.copy() for w in state.W]

    seen = {}
    real = objective.grad_a

    def spy(st, layer, fz, R):
        seen[layer] = [w.copy() for w in st.W]
        return real(st, layer, fz, R)

    monkeypatch.setattr(objective, "grad_a", spy)
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer
    backward_sweep(state, data, risk, reg, BlockRecord(), residuals(state, data))

    # backward order is l = L-1 .. 0; at the a-update of hidden layer 1 the
    # last layer's W must already be barred (changed), W[0..1] untouched
    assert 1 in seen and 0 in seen
    assert not np.array_equal(seen[1][2], orig_W[2])
    assert np.array_equal(seen[1][0], orig_W[0])
    assert np.array_equal(seen[1][1], orig_W[1])
    # at layer 0's a-update, layer 1's W-bar must also be in place
    assert not np.array_equal(seen[0][1], orig_W[1])


def test_train_calls_the_checked_formulas(monkeypatch):
    """train() takes its block gradients, penalty terms and Lagrangian from
    the objective functions that the finite-difference checks test, not
    from copies of its own."""
    data = make_separable(20, rng=Rng(4))
    arch = MlpArchitecture(layer_dims=(4, 5, 5, 2))
    calls = {}
    for name in ("grad_W", "grad_phi_block", "grad_a", "linear_term", "activation_term",
                 "lagrangian", "objective_and_lagrangian"):
        def spy(*args, _real=getattr(objective, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(objective, name, spy)
    train(arch, data, TrainConfig(rho=1.0, nu=1.0, epochs=1, seed=0))
    # two sweeps: W and b of each of 3 layers, a of each of 2 hidden layers
    assert (calls["grad_W"], calls["grad_phi_block"], calls["grad_a"]) == (6, 6, 4)
    # the Lagrangian entering iteration 1, and the one after it
    assert (calls["lagrangian"], calls["objective_and_lagrangian"]) == (1, 2)
    assert calls["linear_term"] > 0 and calls["activation_term"] > 0


@pytest.mark.parametrize("reg", [NO_REG, Regularizer("l1", 1e-3), Regularizer("l2", 1e-3)],
                         ids=["plain", "l1", "l2"])
def test_traced_moves_match_fresh(reg, monkeypatch):
    """The walk sums the blocks' moves from what their updates return; the
    traced sum must equal the one measured from the arrays, bit for bit."""
    data = make_separable(40, rng=Rng(2))
    arch = MlpArchitecture(layer_dims=(4, 6, 5, 2), regularizer=reg)
    cfg = TrainConfig(rho=1.0, nu=1.0, epochs=30, seed=0)
    seen = []
    real_backward, real_forward = training.backward_sweep, training.forward_sweep

    def backward(state, *args):
        out = real_backward(state, *args)
        seen.append((state, out))
        return out

    def forward(barred, *args):
        out = real_forward(barred, *args)
        seen[-1] += (out,)
        return out

    def check(trace):
        assert trace.block_move_sq_sum == block_move_sq_sum(*seen[trace.iter - 1])
        assert trace.block_move_sq_sum > 0.0

    monkeypatch.setattr(training, "backward_sweep", backward)
    monkeypatch.setattr(training, "forward_sweep", forward)
    traces = train(arch, data, cfg, trace_sink=check).traces
    assert len(seen) == cfg.epochs
    # c_k is the running minimum of the traced moves
    running = np.minimum.accumulate([t.block_move_sq_sum for t in traces])
    assert [t.ck for t in traces] == running.tolist()


@pytest.mark.parametrize("reg", [NO_REG, Regularizer("l2", 1e-3), Regularizer("l1", 1e-3)],
                         ids=["affine", "prox", "prox-l1"])
def test_cached_residuals_match_fresh(reg, monkeypatch):
    """train() reads its layer residuals R_l = z_l - W_l a_{l-1} - b_l from
    a cache that every block update sets; the cache must match the fresh
    residuals after every iteration, to 1e-10 of the largest product
    W_l a_{l-1}, and the traced Lagrangian and objective_F must agree with
    fresh evaluations."""
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2), regularizer=reg)
    cfg = TrainConfig(rho=1.0, nu=1.0, epochs=200, seed=0)
    seen = {}
    real = training.forward_sweep
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer

    def sweep(barred, dat, rsk, rg, record, R):
        out = real(barred, dat, rsk, rg, record, R)
        seen["state"], seen["R"] = out, R
        return out

    def check(trace):
        state = seen["state"]  # its dual is updated before the trace is made
        fresh = residuals(state, data)
        for l, (cached, want) in enumerate(zip(seen["R"], fresh)):
            scale = np.max(np.abs(state.W[l] @ (data.x if l == 0 else state.a[l - 1])))
            assert np.max(np.abs(cached - want)) <= 1e-10 * scale
        assert trace.lagrangian == pytest.approx(lagrangian(state, risk, reg, fresh), rel=1e-10)
        assert trace.objective_F == pytest.approx(objective.objective_F(state, risk, reg, fresh),
                                                  rel=1e-10)
        seen["checked"] = seen.get("checked", 0) + 1

    monkeypatch.setattr(training, "forward_sweep", sweep)
    result = train(arch, data, cfg, trace_sink=check)
    assert seen["checked"] == cfg.epochs
    assert result.state is seen["state"]


def test_cached_train_accuracy_is_the_forward_pass(monkeypatch):
    """train() scores the training data from its cached first layer,
    relu(z_0 - R_0); at every iteration of a run that learns, that must
    equal the accuracy of the exact forward pass of W and b."""
    data, _ = make_image_classes(1000, rng=Rng(1))
    arch = MlpArchitecture(layer_dims=(784, 64, 64, 10))
    cfg = TrainConfig(rho=1.5e-3, nu=1.5e-3, epochs=10, seed=0)
    seen = {}
    real = training.forward_sweep

    def sweep(*args):
        seen["state"] = real(*args)
        return seen["state"]

    def check(trace):
        W, b = seen["state"].W, seen["state"].b
        assert trace.train_acc == objective.accuracy(forward_logits(W, b, data.x), data.y)

    monkeypatch.setattr(training, "forward_sweep", sweep)
    traces = train(arch, data, cfg, trace_sink=check).traces
    assert traces[-1].train_acc > traces[0].train_acc + 0.2  # it learns


def test_divergence_abort_keeps_traces():
    data = make_separable(20, rng=Rng(6))
    data.x[0, 0] = np.inf
    arch = MlpArchitecture(layer_dims=(4, 5, 2))
    cfg = TrainConfig(rho=1.0, nu=1.0, epochs=5, seed=0)
    with pytest.raises(DivergenceError, match="entering iteration 1") as exc_info, \
            np.errstate(invalid="ignore"):
        train(arch, data, cfg)
    assert exc_info.value.traces == []


def test_boundedness_plateau():
    data = make_separable(50, rng=Rng(3))
    arch = MlpArchitecture(layer_dims=(4, 8, 2))
    cfg = TrainConfig(rho=4.0, nu=1.0, epochs=60, seed=0)
    result = train(arch, data, cfg)

    def state_norms(tr):
        return tr.lagrangian  # proxy: full states not stored per-iteration

    # explicit norm tracking over a manual replay
    state = forward_init(arch, data, Rng(cfg.seed), rho=cfg.rho, nu=cfg.nu)[0]
    risk, reg = mean_risk(arch.risk, data.y), arch.regularizer
    record = BlockRecord()
    norm_hist = []
    for _ in range(60):
        record = BlockRecord(record.steps)
        barred = backward_sweep(state, data, risk, reg, record, residuals(state, data))
        new = forward_sweep(barred, data, risk, reg, record, residuals(barred, data))
        r = objective.linear_residual(new, data, arch.n_layers - 1)
        new.u = dual_update(new, r)
        state = new
        total = sum(l2sq(w) for w in state.W) + sum(l2sq(b) for b in state.b)
        total += sum(l2sq(z) for z in state.z) + sum(l2sq(a) for a in state.a)
        total += l2sq(state.u)
        norm_hist.append(np.sqrt(total))
    assert max(norm_hist[50:]) <= 10.0 * norm_hist[9]


@pytest.mark.parametrize("optimizer", ["admm", "adam"])
@pytest.mark.parametrize("split, shape, widths", [
    ("data", (5, 2), "5 inputs and 2 classes, not 4 and 2"),
    ("data", (4, 3), "4 inputs and 3 classes, not 4 and 2"),
    ("eval_data", (5, 2), "5 inputs and 2 classes, not 4 and 2"),
    ("eval_data", (4, 3), "4 inputs and 3 classes, not 4 and 2"),
], ids=["data-inputs", "data-classes", "eval-inputs", "eval-classes"])
def test_architecture_must_fit_its_data(optimizer, split, shape, widths):
    """A network whose input or output width differs from the features or
    classes of its training or evaluation data is a ``ShapeError`` naming
    both widths, before the first epoch."""
    arch = MlpArchitecture(layer_dims=(4, 6, 2))
    fits = make_separable(10, rng=Rng(0))
    y = np.eye(shape[1])[np.arange(10) % shape[1]].T
    misfit = Dataset(np.ones((shape[0], 10)), y)
    data, eval_data = (misfit, fits) if split == "data" else (fits, misfit)
    message = f"{split} does not fit layers (4, 6, 2): it has {widths}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        if optimizer == "admm":
            train(arch, data, TrainConfig(rho=1.0, nu=1.0, epochs=1), eval_data=eval_data)
        else:
            run_baseline(BaselineConfig(optimizer, 1e-3, 1), arch, data, eval_data=eval_data)


def test_epochs_validated():
    with pytest.raises(ValueError):
        TrainConfig(rho=1.0, nu=1.0, epochs=0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(rho=1.0, nu=1.0, epochs=1, seed=-1)


@pytest.mark.parametrize("counts, message", [
    (dict(epochs=1, seed=0.9), "seed must be >= 0"),  # once trained as seed 0
    (dict(epochs=2.5, seed=0), "epochs must be >= 1"),  # once a TypeError in train
])
def test_non_integer_count_rejected(counts, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(rho=1.0, nu=1.0, **counts)
