import inspect

import numpy as np
import pytest

import admmnet.gcn as gcn
from admmnet.activations import RELU
from admmnet.errors import ShapeError
from admmnet.gcn import (
    GcnConfig,
    GcnState,
    Graph,
    gcn_accuracy,
    gcn_forward_init,
    gcn_iteration,
    gcn_train,
    grad_psi_block,
    lagrangian,
    masked_risk_grad,
    normalize_adjacency,
    products,
    psi,
)
from admmnet.linalg import Rng, l2sq
from admmnet.solvers import FISTA_TOL, StepSeeds
from admmnet.synth import make_sbm_graph


def small_graph(seed=0, n=6, n_feat=3, n_classes=2):
    rng = Rng(seed)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random(()) < 0.5:
                adj[i, j] = adj[j, i] = 1.0
    labels = np.zeros((n, n_classes))
    labels[np.arange(n), np.arange(n) % n_classes] = 1.0
    train_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[: n // 2] = True
    test_mask[n // 2:] = True
    return Graph(
        n_nodes=n,
        adjacency=adj,
        features=rng.normal(0, 1, (n, n_feat)),
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )


def random_gcn_state(graph, dims, seed, rho=1.0, mu=1.0, perturb=0.3):
    rng = Rng(seed)
    state = gcn_forward_init(graph, dims, RELU, rng, rho, mu)
    for i, z in enumerate(state.Z):
        state.Z[i] = z + perturb * rng.normal(0, 1, z.shape)
    state.U = rng.normal(0, 1, state.U.shape)
    return state


class TestNormalizeAdjacency:
    def test_empty_graph_identity(self):
        g = Graph(
            n_nodes=3, adjacency=np.zeros((3, 3)), features=np.eye(3),
            labels=np.eye(3), train_mask=np.array([True, False, False]),
            test_mask=np.array([False, True, False]),
        )
        assert np.allclose(normalize_adjacency(g), np.eye(3))

    def test_single_edge(self):
        g = Graph(
            n_nodes=2, adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            features=np.eye(2), labels=np.eye(2),
            train_mask=np.array([True, False]), test_mask=np.array([False, True]),
        )
        assert np.allclose(normalize_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])

    def test_symmetric_and_spectral_bound(self):
        g = small_graph(1)
        a = normalize_adjacency(g)
        assert np.allclose(a, a.T)
        assert np.max(np.abs(np.linalg.eigvalsh(a))) <= 1 + 1e-6

    def test_equals_dense_identity_formula(self):
        for g in (small_graph(1), make_sbm_graph(50, rng=Rng(3))):
            inv_sqrt = 1.0 / np.sqrt(g.adjacency.sum(axis=1) + 1.0)
            want = inv_sqrt[:, None] * (g.adjacency + np.eye(g.n_nodes)) * inv_sqrt[None, :]
            assert np.array_equal(normalize_adjacency(g), want)
            assert np.all(np.diag(g.adjacency) == 0)  # the graph is left as it was


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        with pytest.raises(ValueError):
            Graph(2, adj, np.eye(2), np.eye(2),
                  np.array([True, False]), np.array([False, True]))

    def test_mask_overlap_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, np.zeros((2, 2)), np.eye(2), np.eye(2),
                  np.array([True, True]), np.array([True, False]))

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            Graph(3, np.zeros((2, 2)), np.eye(3), np.eye(3),
                  np.array([True, False, False]), np.array([False, True, False]))


def test_psi_zero_at_consistent_state():
    g = small_graph(2)
    state = gcn_forward_init(g, (3, 4, 2), RELU, Rng(0), rho=1.0, mu=1.0)
    state.U = np.zeros_like(state.U)
    assert psi(state, g) == pytest.approx(0.0, abs=1e-12)


def test_psi_hand_case_single_node():
    # N=1, no edges: A_norm = [[1]]; one hidden layer of width 1
    g = Graph(
        n_nodes=1, adjacency=np.zeros((1, 1)), features=np.array([[2.0]]),
        labels=np.array([[1.0]]), train_mask=np.array([True]),
        test_mask=np.array([False]),
    )
    state = GcnState(
        W=[np.array([[1.0]]), np.array([[1.0]])],
        Z=[np.array([[3.0]]), np.array([[5.0]])],
        U=np.array([[0.5]]),
        A_norm=np.array([[1.0]]),
        rho=2.0,
        mu=4.0,
    )
    # psi = (mu/2)(Z1 - relu(1*2*1))^2 + U*(Z2 - 1*3*1) + (rho/2)(Z2 - 3)^2
    expect = 0.5 * 4.0 * (3.0 - 2.0) ** 2 + 0.5 * (5.0 - 3.0) + 0.5 * 2.0 * (5.0 - 3.0) ** 2
    assert psi(state, g) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("block", ["W", "Z"])
def test_grad_psi_finite_differences(block):
    g = small_graph(3)
    state = random_gcn_state(g, (3, 4, 2), seed=4)
    h = 1e-6
    store = state.W if block == "W" else state.Z
    for layer in range(2):
        grad = grad_psi_block(state, g, block, layer)
        num = np.zeros_like(grad)
        for idx in np.ndindex(*grad.shape):
            orig = store[layer][idx]
            store[layer][idx] = orig + h
            fp = psi(state, g)
            store[layer][idx] = orig - h
            fm = psi(state, g)
            store[layer][idx] = orig
            num[idx] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(grad - num)) / scale < 1e-5


def test_masked_risk_grad_zero_off_mask():
    g = small_graph(5)
    rng = Rng(6)
    z = rng.normal(0, 1, g.labels.shape)
    grad = masked_risk_grad(z, g.labels, g.train_mask)
    assert np.all(grad[~g.train_mask] == 0.0)
    assert np.any(grad[g.train_mask] != 0.0)


@pytest.fixture(scope="module")
def sbm_run():
    graph = make_sbm_graph(200, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=(32,), rho=1.0, mu=1.0, epochs=200, seed=0)
    return graph, cfg, gcn_train(graph, cfg)


def test_sbm_lagrangian_monotone(sbm_run):
    _, _, (state, traces) = sbm_run
    lag = [t.lagrangian for t in traces]
    assert all(b <= a + 1e-9 for a, b in zip(lag, lag[1:]))


def test_sbm_residual_collapse(sbm_run):
    _, _, (state, traces) = sbm_run
    assert traces[-1].residual_fro < 1e-3 * traces[0].residual_fro


def test_sbm_test_accuracy(sbm_run):
    graph, _, (state, traces) = sbm_run
    assert gcn_accuracy(state, graph, graph.test_mask) >= 0.9


def test_sbm_certificates(sbm_run):
    _, _, (state, traces) = sbm_run
    assert max(t.max_cert_violation for t in traces) <= 1e-10


def test_sbm_output_solves_and_stationarity(sbm_run):
    _, _, (state, traces) = sbm_run
    assert all(t.fista_converged for t in traces)
    assert max(t.stationarity_residual for t in traces) <= 10 * FISTA_TOL


def test_descent_certificate_from_iteration_2():
    """At rho = 4 > 2H the sufficient-descent bound holds from iteration 2
    on.  Iteration 1 is left out: the bound on the dual step's Lagrangian
    increase uses U = -grad R(Z_L) on entry, which every dual update
    establishes (up to the FISTA tolerance) but the initial U = 0 does not.
    Started from U = -grad R(Z_L), iteration 1 meets the bound as well; from
    U = 0 it misses by about 7e-4 here, and its trace says so."""
    graph = make_sbm_graph(200, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=(32,), rho=4.0, mu=1.0, epochs=60, seed=0)
    _, traces = gcn_train(graph, cfg)
    assert all(t.hypothesis_met for t in traces)
    assert all(t.descent_ok for t in traces[1:])
    assert not traces[0].descent_ok


def test_gcn_beats_or_matches_gd_oracle(sbm_run):
    # independent check that the SBM task is learnable: plain full-batch GD
    # through the same forward model reaches >= 0.85; the ADMM run should too
    from admmnet.baselines import gcn_backprop_grads

    graph, _, (state, traces) = sbm_run
    rng = Rng(1)
    dims = (graph.features.shape[1], 32, graph.labels.shape[1])
    a_norm = normalize_adjacency(graph)
    W = []
    for l in range(2):
        s = np.sqrt(6.0 / (dims[l] + dims[l + 1]))
        W.append(rng.uniform(-s, s, (dims[l], dims[l + 1])))
    for _ in range(200):
        g = gcn_backprop_grads(W, graph, a_norm, RELU)
        W = [w - 0.5 * gw for w, gw in zip(W, g)]
    logits = a_norm @ RELU.value(a_norm @ graph.features @ W[0]) @ W[1]
    pred = np.argmax(logits[graph.test_mask], axis=1)
    truth = np.argmax(graph.labels[graph.test_mask], axis=1)
    gd_acc = float(np.mean(pred == truth))
    assert gd_acc >= 0.85
    assert gcn_accuracy(state, graph, graph.test_mask) >= gd_acc - 0.1


def test_gcn_determinism():
    graph = make_sbm_graph(40, rng=Rng(2))
    cfg = GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=5, seed=3)
    _, t1 = gcn_train(graph, cfg)
    _, t2 = gcn_train(graph, cfg)
    for a, b in zip(t1, t2):
        assert a.lagrangian == b.lagrangian


def test_gcn_epochs_validated():
    with pytest.raises(ValueError):
        GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=0)


def _without_cache(fn):
    """fn with its cached-products argument ``az`` forced to None."""
    sig = inspect.signature(fn)

    def call(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.arguments["az"] = None
        return fn(*bound.args, **bound.kwargs)

    return call


@pytest.mark.parametrize("hidden", [(32,), (8, 16)])
def test_cached_products_match_fresh(hidden, monkeypatch):
    """The cached A_norm Z_{l-1} are refreshed by a fresh product, so every
    trace field is identical to a run that computes every product fresh."""
    graph = make_sbm_graph(120, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=hidden, rho=1.0, mu=1.0, epochs=40, seed=0)
    cached = []
    real_init = gcn._forward_init

    def spy(*args):
        state, az = real_init(*args)
        for a, b in zip(az, products(state, graph), strict=True):
            assert np.array_equal(a, b)  # the initial propagation's products
        cached.append(az)
        return state, az

    with monkeypatch.context() as m:
        m.setattr(gcn, "_forward_init", spy)
        state, traces = gcn_train(graph, cfg)
    az = cached[0]  # moved in place by every iteration
    for l in range(state.n_layers):
        z_prev = graph.features if l == 0 else state.Z[l - 1]
        assert np.array_equal(az[l], state.A_norm @ z_prev)

    for name in ("gcn_iteration", "lagrangian", "gcn_accuracy"):
        monkeypatch.setattr(gcn, name, _without_cache(getattr(gcn, name)))
    fresh_state, fresh = gcn_train(graph, cfg)
    assert len(fresh) == len(traces) == cfg.epochs
    for a, b in zip(traces, fresh):
        for field in vars(a):
            if field != "wall_time":
                assert getattr(a, field) == getattr(b, field), (a.iter, field)
    for l in range(state.n_layers):
        assert np.array_equal(state.W[l], fresh_state.W[l])
        assert np.array_equal(state.Z[l], fresh_state.Z[l])
    assert np.array_equal(state.U, fresh_state.U)


def test_iteration_leaves_its_input_unchanged():
    """``GcnState.copy`` shares arrays, so every block update must rebind a
    list entry and never write into the arrays of the state it was given."""
    graph = make_sbm_graph(60, rng=Rng(1))
    cfg = GcnConfig(hidden_dims=(8, 4), rho=1.0, mu=1.0, epochs=1, seed=0)
    state = random_gcn_state(graph, (2, 8, 4, 2), seed=5)
    blocks = lambda s: [a.tobytes() for a in (*s.W, *s.Z, s.U)]
    before = blocks(state)
    new = gcn_iteration(state, graph, cfg, StepSeeds())[0]
    assert blocks(state) == before
    assert all(a != b for a, b in zip(blocks(new), before))


def test_dense_products_per_iteration(monkeypatch):
    """With one hidden layer an iteration multiplies by the N x N A_norm six
    times: three per hidden Z update (A_norm^T in the gradient, A_norm times
    the gradient for the trials, the refresh of the cache), none elsewhere.
    A training call adds the two products of the initial propagation, which
    also seed the cache."""
    counted = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            counted.append(1)
            return np.asarray(self) @ other

        def __rmatmul__(self, other):
            counted.append(1)
            return other @ np.asarray(self)

    graph = make_sbm_graph(60, rng=Rng(1))
    a_norm = normalize_adjacency(graph).view(Counting)
    monkeypatch.setattr(gcn, "normalize_adjacency", lambda g: a_norm)
    cfg = GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=2, seed=0)

    state = gcn_forward_init(graph, (2, 8, 2), RELU, Rng(0), cfg.rho, cfg.mu)
    az = products(state, graph)
    counted.clear()
    gcn_iteration(state, graph, cfg, StepSeeds(), az)
    assert len(counted) <= 6

    def in_training(epochs):  # the Lagrangian and accuracies included
        counted.clear()
        gcn_train(graph, GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=epochs))
        return len(counted)

    assert in_training(2) <= 2 + 2 * 6
    assert in_training(3) - in_training(2) <= 6
