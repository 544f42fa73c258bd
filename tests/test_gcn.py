import inspect
import tracemalloc

import numpy as np
import pytest

import admmnet.gcn as gcn
from admmnet.data_io import load_graph, save_graph
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
    masked_ce,
    normalize_adjacency,
    propagations,
    psi,
)
from admmnet.linalg import Rng, l2sq
from admmnet.objective import relu, relu_deriv
from admmnet.solvers import FISTA_TOL
from admmnet.synth import make_sbm_graph
from admmnet.training import BlockRecord


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
        edges=np.argwhere(np.triu(adj)),
        features=rng.normal(0, 1, (n, n_feat)),
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )


def held_out_accuracy(state, graph):
    """``gcn_accuracy`` over the test mask, with fresh propagations."""
    test = graph.test_mask
    return gcn_accuracy(state, test, np.argmax(graph.labels[test], axis=1),
                        propagations(state, graph))


def random_gcn_state(graph, dims, seed, rho=1.0, mu=1.0, perturb=0.3):
    rng = Rng(seed)
    state = gcn_forward_init(graph, dims, rng, rho, mu)[0]
    for i, z in enumerate(state.Z):
        state.Z[i] = z + perturb * rng.normal(0, 1, z.shape)
    state.U = rng.normal(0, 1, state.U.shape)
    return state


def dense_normalization(graph):
    """The dense (D + I)^{-1/2} (A + I) (D + I)^{-1/2}: the reference that
    the compressed-row operator is checked against."""
    inv_sqrt = 1.0 / np.sqrt(graph.adjacency.sum(axis=1) + 1.0)
    return inv_sqrt[:, None] * (graph.adjacency + np.eye(graph.n_nodes)) * inv_sqrt[None, :]


def gcn_backprop_grads(W, graph, a_norm):
    """Full-batch gradients of the masked cross-entropy in every W_l by
    backpropagation through the dense A_norm: the GD oracle."""
    ms, zs = [], [graph.features]
    last = len(W) - 1
    for l in range(len(W)):
        m = a_norm @ zs[-1] @ W[l]
        ms.append(m)
        zs.append(relu(m) if l < last else m)
    delta = masked_ce(graph.labels, graph.train_mask).grad(ms[last])
    gW = [None] * len(W)
    for l in range(last, -1, -1):
        gW[l] = (a_norm @ zs[l]).T @ delta
        if l > 0:
            delta = (a_norm.T @ delta @ W[l].T) * relu_deriv(ms[l - 1])
    return gW


def as_dense(op):
    """The N x N matrix that a compressed-row operator stores."""
    rows = np.repeat(np.arange(op.n), np.diff(np.append(op.starts, op.cols.size)))
    out = np.zeros((op.n, op.n))
    out[rows, op.cols] = op.vals
    return out


def no_edges():
    return np.zeros((0, 2), dtype=int)


def one_node_graph():
    return Graph(
        n_nodes=1, edges=no_edges(), features=np.array([[2.0]]),
        labels=np.array([[1.0]]), train_mask=np.array([True]),
        test_mask=np.array([False]),
    )


def isolated_node_graph():
    """A 5-node graph whose node 2 has no edge."""
    return Graph(
        n_nodes=5, edges=np.array([[0, 1], [0, 3], [1, 3], [3, 4]]),
        features=Rng(4).normal(0, 1, (5, 3)),
        labels=np.eye(2)[[0, 1, 0, 1, 0]], train_mask=np.array([True, True, False, False, False]),
        test_mask=np.array([False, False, True, True, False]),
    )


class TestNormalizeAdjacency:
    def test_empty_graph_identity(self):
        g = Graph(
            n_nodes=3, edges=no_edges(), features=np.eye(3),
            labels=np.eye(3), train_mask=np.array([True, False, False]),
            test_mask=np.array([False, True, False]),
        )
        assert np.allclose(as_dense(normalize_adjacency(g)), np.eye(3))

    def test_single_edge(self):
        g = Graph(
            n_nodes=2, edges=np.array([[0, 1]]),
            features=np.eye(2), labels=np.eye(2),
            train_mask=np.array([True, False]), test_mask=np.array([False, True]),
        )
        assert np.allclose(as_dense(normalize_adjacency(g)), [[0.5, 0.5], [0.5, 0.5]])

    def test_symmetric_and_spectral_bound(self):
        g = small_graph(1)
        a = as_dense(normalize_adjacency(g))
        assert np.allclose(a, a.T)
        assert np.max(np.abs(np.linalg.eigvalsh(a))) <= 1 + 1e-6

    def test_equals_dense_identity_formula(self):
        for g in (small_graph(1), make_sbm_graph(50, rng=Rng(3))):
            edges = g.edges.copy()
            assert np.array_equal(as_dense(normalize_adjacency(g)), dense_normalization(g))
            assert np.array_equal(g.edges, edges)  # the graph is left as it was

    @pytest.mark.parametrize("make", [lambda: make_sbm_graph(300, rng=Rng(3)),
                                      isolated_node_graph, one_node_graph],
                             ids=["sbm", "isolated-node", "one-node"])
    def test_propagation_matches_dense_formula(self, make):
        """Every row holds its self-loop, so an isolated node's row is not an
        empty range, which ``np.add.reduceat`` would fill with the next
        row's entry."""
        g = make()
        op = normalize_adjacency(g)
        assert np.all(np.diff(np.append(op.starts, op.cols.size)) >= 1)
        for width in (1, 2, 5):
            y = Rng(width).normal(0, 1, (g.n_nodes, width))
            got, want = gcn._adj(op, y), dense_normalization(g) @ y
            assert got.shape == want.shape
            assert _rel_err(got, want) <= 1e-14
        ints = np.arange(2 * g.n_nodes).reshape(g.n_nodes, 2)  # integer features propagate too
        assert _rel_err(gcn._adj(op, ints), dense_normalization(g) @ ints) <= 1e-14

    def test_operator_equals_its_transpose(self):
        for g in (small_graph(1), isolated_node_graph(), make_sbm_graph(200, rng=Rng(8))):
            a = as_dense(normalize_adjacency(g))
            assert np.array_equal(a, a.T)


class TestGraphValidation:
    @pytest.mark.parametrize("edges", [
        [[1, 0]], [[1, 1]], [[0, 3]], [[-1, 2]], [[1, 2], [0, 1]], [[0, 1], [0, 1]], [[0.0, 1.0]],
    ], ids=["reversed", "self-loop", "too-large", "negative", "unordered", "repeated", "float"])
    def test_bad_edges_rejected(self, edges):
        """Each edge is stored once, as (u, v) with u < v, so a symmetric
        graph has exactly one edge array; a reversed pair is rejected, not
        read as the other direction."""
        with pytest.raises(ValueError, match="edge"):
            Graph(3, np.array(edges), np.eye(3), np.eye(3),
                  np.array([True, False, False]), np.array([False, True, False]))

    def test_bad_shape(self):
        for edges in (np.array([0, 1]), np.zeros((1, 3), dtype=int)):
            with pytest.raises(ShapeError, match="edges"):
                Graph(3, edges, np.eye(3), np.eye(3),
                      np.array([True, False, False]), np.array([False, True, False]))

    def test_adjacency_is_built_from_edges(self):
        g = isolated_node_graph()
        a = g.adjacency
        assert a.dtype == float and np.array_equal(a, a.T) and np.all(np.diag(a) == 0)
        assert np.array_equal(np.argwhere(np.triu(a)), g.edges)

    @pytest.mark.parametrize("labels", [
        np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),  # two-hot
        np.array([[0.5, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    ], ids=["two-hot", "fraction", "two"])
    def test_labels_one_hot_or_zero(self, labels):
        with pytest.raises(ValueError, match="one-hot"):
            Graph(3, no_edges(), np.eye(3), labels,
                  np.array([True, False, False]), np.array([False, True, False]))

    @pytest.mark.parametrize("mask", ["train_mask", "test_mask"])
    def test_masked_node_needs_a_label(self, mask):
        """An unlabeled node in a mask would be scored as class 0 by the
        accuracy and counted in the risk's mean."""
        g = small_graph()
        labels = g.labels.copy()
        node = np.flatnonzero(getattr(g, mask))[0]
        labels[node] = 0.0
        with pytest.raises(ValueError, match=f"node {node} is in a mask but has no label"):
            Graph(g.n_nodes, g.edges, g.features, labels, g.train_mask, g.test_mask)

    def test_mask_overlap_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, no_edges(), np.eye(2), np.eye(2),
                  np.array([True, True]), np.array([True, False]))

    @pytest.mark.parametrize("field,value,error", [
        ("features", np.ones((5, 3)), ShapeError),
        ("labels", np.eye(7, 2), ShapeError),
        ("train_mask", np.arange(5) < 3, ShapeError),
        ("test_mask", np.zeros(7, dtype=bool), ShapeError),
        ("train_mask", (np.arange(6) < 3).astype(int), ValueError),
        ("test_mask", (np.arange(6) >= 3).astype(float), ValueError),
        ("train_mask", (np.arange(6) < 3)[:, None], ValueError),
        ("features", np.ones(6), ShapeError),
        ("labels", np.ones(6), ShapeError),
        ("features", np.ones((6, 3, 1)), ShapeError),
        ("labels", np.eye(6, 2)[:, :, None], ShapeError),
    ], ids=["features-rows", "labels-rows", "train-count", "test-count", "int-mask",
            "float-mask", "column-mask", "features-1d", "labels-1d", "features-3d", "labels-3d"])
    def test_node_arrays_validated(self, field, value, error):
        """Every node array has one row per node, features and labels are
        matrices, and the masks are boolean vectors: an integer 0/1 mask
        would index rows by value."""
        g = small_graph()
        kwargs = {f: getattr(g, f) for f in ("n_nodes", "edges", "features", "labels",
                                             "train_mask", "test_mask")}
        with pytest.raises(error, match=field):
            Graph(**{**kwargs, field: value})


def test_psi_zero_at_consistent_state():
    g = small_graph(2)
    state = gcn_forward_init(g, (3, 4, 2), Rng(0), rho=1.0, mu=1.0)[0]
    state.U = np.zeros_like(state.U)
    assert psi(state, propagations(state, g)) == pytest.approx(0.0, abs=1e-12)


def test_psi_hand_case_single_node():
    # N=1, no edges: A_norm = [[1]]; one hidden layer of width 1
    g = one_node_graph()
    state = GcnState(
        W=[np.array([[1.0]]), np.array([[1.0]])],
        Z=[np.array([[3.0]]), np.array([[5.0]])],
        U=np.array([[0.5]]),
        A_norm=normalize_adjacency(g),
        rho=2.0,
        mu=4.0,
    )
    # psi = (mu/2)(Z1 - relu(1*2*1))^2 + U*(Z2 - 1*3*1) + (rho/2)(Z2 - 3)^2
    expect = 0.5 * 4.0 * (3.0 - 2.0) ** 2 + 0.5 * (5.0 - 3.0) + 0.5 * 2.0 * (5.0 - 3.0) ** 2
    assert psi(state, propagations(state, g)) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("block", ["W", "Z"])
def test_grad_psi_finite_differences(block):
    g = small_graph(3)
    state = random_gcn_state(g, (3, 4, 2), seed=4)
    h = 1e-6
    store = state.W if block == "W" else state.Z
    for layer in range(2):
        grad = grad_psi_block(state, block, layer, propagations(state, g))
        num = np.zeros_like(grad)
        for idx in np.ndindex(*grad.shape):
            orig = store[layer][idx]
            store[layer][idx] = orig + h
            fp = psi(state, propagations(state, g))
            store[layer][idx] = orig - h
            fm = psi(state, propagations(state, g))
            store[layer][idx] = orig
            num[idx] = (fp - fm) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(grad - num)) / scale < 1e-5


def test_masked_risk_grad_zero_off_mask():
    g = small_graph(5)
    rng = Rng(6)
    z = rng.normal(0, 1, g.labels.shape)
    grad = masked_ce(g.labels, g.train_mask).grad(z)
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
    assert held_out_accuracy(state, graph) >= 0.9


def test_sbm_certificates(sbm_run):
    _, _, (state, traces) = sbm_run
    assert max(t.max_cert_violation for t in traces) <= 1e-10
    # c_k is the running minimum of the traced moves
    running = np.minimum.accumulate([t.block_move_sq_sum for t in traces])
    assert [t.ck for t in traces] == running.tolist()


def test_sbm_output_solves_and_stationarity(sbm_run):
    _, _, (state, traces) = sbm_run
    assert all(t.fista_converged for t in traces)
    assert max(t.stationarity_residual for t in traces) <= 10 * FISTA_TOL


def test_traced_moves_match_fresh(monkeypatch):
    """The walk sums every block's move from what its update returns; the
    traced sum must equal the moves measured from the arrays, added in call
    order, bit for bit."""
    moves = []

    def measuring(name, block_of):
        real = getattr(gcn, name)

        def update(work, props, *args):
            blocks, layer = block_of(work, *args)
            old = blocks[layer]
            res = real(work, props, *args)
            moves.append(l2sq(blocks[layer] - old))
            return res

        monkeypatch.setattr(gcn, name, update)

    measuring("_update_W_gcn", lambda work, layer, seed: (work.W, layer))
    measuring("_update_Z_hidden", lambda work, layer, seed: (work.Z, layer))
    measuring("_update_Z_last", lambda work, risk: (work.Z, work.n_layers - 1))

    def check(trace):
        total = 0.0
        for move in moves:
            total += move
        assert trace.block_move_sq_sum == total > 0.0
        moves.clear()

    cfg = GcnConfig(hidden_dims=(8, 16), rho=2e-2, mu=2e-2, epochs=30, seed=0)
    _, traces = gcn_train(make_sbm_graph(200, rng=Rng(8)), cfg, trace_sink=check)
    assert len(traces) == cfg.epochs


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


@pytest.mark.parametrize("graph_seed", [1, 2, 3])
def test_certified_where_it_learns(graph_seed):
    """At rho = mu = 1e-2 > 2H = 1/300 (300 training nodes) the hypothesis
    holds at every iteration, the descent bound from iteration 2 on, and
    the GCN reaches test accuracy 0.9 within 9 epochs (epochs 9, 3 and 1 on
    these graphs)."""
    graph = make_sbm_graph(1000, rng=Rng(graph_seed))
    cfg = GcnConfig(hidden_dims=(32,), rho=1e-2, mu=1e-2, epochs=30, seed=0)
    _, traces = gcn_train(graph, cfg)
    assert all(t.hypothesis_met for t in traces)
    assert all(t.descent_ok for t in traces[1:])
    assert max(t.max_cert_violation for t in traces) <= 1e-10
    assert max(t.test_acc for t in traces[:9]) >= 0.9
    assert traces[-1].test_acc >= 0.9


def test_gcn_beats_or_matches_gd_oracle(sbm_run):
    # independent check that the SBM task is learnable: plain full-batch GD
    # through the same forward model reaches >= 0.85; the ADMM run should too
    graph, _, (state, traces) = sbm_run
    rng = Rng(1)
    dims = (graph.features.shape[1], 32, graph.labels.shape[1])
    a_norm = dense_normalization(graph)
    W = []
    for l in range(2):
        s = np.sqrt(6.0 / (dims[l] + dims[l + 1]))
        W.append(rng.uniform(-s, s, (dims[l], dims[l + 1])))
    for _ in range(200):
        g = gcn_backprop_grads(W, graph, a_norm)
        W = [w - 0.5 * gw for w, gw in zip(W, g)]
    logits = a_norm @ relu(a_norm @ graph.features @ W[0]) @ W[1]
    pred = np.argmax(logits[graph.test_mask], axis=1)
    truth = np.argmax(graph.labels[graph.test_mask], axis=1)
    gd_acc = float(np.mean(pred == truth))
    assert gd_acc >= 0.85
    assert held_out_accuracy(state, graph) >= gd_acc - 0.1


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


def test_gcn_config_takes_no_activation_and_no_negative_seed():
    with pytest.raises(TypeError):
        GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=1, activation=None)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=1, seed=-1)


@pytest.mark.parametrize("fields, message", [
    (dict(hidden_dims=(4.5,), epochs=1), "hidden widths must be >= 1"),  # once a TypeError
    (dict(hidden_dims=(8,), epochs=2.5), "epochs must be >= 1"),
    (dict(hidden_dims=(8,), epochs=1, seed=0.9), "seed must be >= 0"),
])
def test_gcn_config_rejects_a_non_integer(fields, message):
    with pytest.raises(ValueError, match=message):
        GcnConfig(rho=1.0, mu=1.0, **fields)


def test_state_copy_has_new_block_lists_over_the_same_arrays():
    """``GcnState.copy`` gives new W and Z lists holding the same arrays, and
    keeps U, A_norm, rho and mu by identity."""
    state = random_gcn_state(make_sbm_graph(30, rng=Rng(1)), (2, 4, 2), seed=5)
    new = state.copy()
    for name in ("W", "Z"):
        old_list, new_list = getattr(state, name), getattr(new, name)
        assert new_list is not old_list
        assert all(x is y for x, y in zip(new_list, old_list)) and len(new_list) == len(old_list)
    assert all(getattr(new, f) is getattr(state, f) for f in ("U", "A_norm", "rho", "mu"))


def _with_fresh_cache(fn, graph):
    """fn with its propagations argument ``props`` replaced by fresh
    propagations of its ``state`` on ``graph``."""
    sig = inspect.signature(fn)

    def call(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        named = bound.arguments
        named["props"] = propagations(named["state"], graph)
        return fn(*bound.args, **bound.kwargs)

    return call


def _rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


@pytest.mark.parametrize("hidden", [(32,), (8, 16)])
def test_cached_products_match_fresh(hidden, monkeypatch):
    """The sweep moves its cached propagations by each accepted trial's own
    propagation instead of forming them fresh.  The cache ends within 1e-12
    relative of fresh propagations, and the traces match a run that forms
    them fresh at every iteration, Lagrangian and accuracy: discrete fields
    identical, continuous fields within 1e-9 relative."""
    graph = make_sbm_graph(120, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=hidden, rho=1.0, mu=1.0, epochs=40, seed=0)
    cached = []
    real_init = gcn.gcn_forward_init

    def spy(*args):
        state, props = real_init(*args)
        fresh = propagations(state, graph)
        assert np.array_equal(props.ax, fresh.ax)
        for a, b in zip(props.m, fresh.m, strict=True):
            assert np.array_equal(a, b)  # the initial propagation's products
        cached.append(props)
        return state, props

    with monkeypatch.context() as m:
        m.setattr(gcn, "gcn_forward_init", spy)
        state, traces = gcn_train(graph, cfg)
    props, fresh = cached[0], propagations(state, graph)  # moved in place by every iteration
    assert np.array_equal(props.ax, fresh.ax)
    for a, b in zip(props.m, fresh.m, strict=True):
        assert _rel_err(a, b) <= 1e-12

    for name in ("gcn_iteration", "lagrangian", "gcn_accuracy"):
        monkeypatch.setattr(gcn, name, _with_fresh_cache(getattr(gcn, name), graph))
    fresh_state, fresh_traces = gcn_train(graph, cfg)
    assert len(fresh_traces) == len(traces) == cfg.epochs
    for a, b in zip(traces, fresh_traces):
        for field, value in vars(a).items():
            other = getattr(b, field)
            if isinstance(value, (bool, int, dict)) or field.endswith("_acc"):
                assert value == other, (a.iter, field)
            elif field != "wall_time":
                assert value == pytest.approx(other, rel=1e-9, abs=0.0), (a.iter, field)
    blocks = lambda s: (*s.W, *s.Z, s.U)
    for a, b in zip(blocks(state), blocks(fresh_state), strict=True):
        assert _rel_err(a, b) <= 1e-9


class CountedReads(np.ndarray):
    """An array that counts the reads of its items; what they return is a
    plain array."""

    reads = 0

    def __getitem__(self, key):
        CountedReads.reads += 1
        return np.asarray(super().__getitem__(key))


def test_labels_read_once_per_run():
    """``gcn_train`` gathers each mask's labels once per run, for the risk
    and the accuracies, and none in an iteration."""
    graph = make_sbm_graph(60, rng=Rng(1))
    graph.labels = graph.labels.view(CountedReads)
    reads = []
    for epochs in (2, 3):
        CountedReads.reads = 0
        gcn_train(graph, GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=epochs))
        reads.append(CountedReads.reads)
    assert reads == [3, 3]  # the risk's rows, then the train and test classes


def test_iteration_leaves_its_input_unchanged():
    """``GcnState.copy`` shares arrays, so every block update must rebind a
    list entry and never write into the arrays of the state it was given."""
    graph = make_sbm_graph(60, rng=Rng(1))
    state = random_gcn_state(graph, (2, 8, 4, 2), seed=5)
    blocks = lambda s: [a.tobytes() for a in (*s.W, *s.Z, s.U)]
    before = blocks(state)
    new = gcn_iteration(state, masked_ce(graph.labels, graph.train_mask), BlockRecord(),
                        propagations(state, graph))[0]
    assert blocks(state) == before
    assert all(a != b for a, b in zip(blocks(new), before))


def test_dense_products_per_iteration(monkeypatch):
    """Every product with the N x N A_norm is thin: for dims (2, 8, 2) none
    has more than 2 columns.  An iteration makes 8, two per half for each of
    the hidden Z and W_1 updates (gradient and trial direction), and the
    dual step, the Lagrangian and the accuracies make none.  A training call
    adds the 2 of the initial propagation, ax and A_norm (Z_0 W_1)."""
    widths = []
    real = gcn._adj

    def counting(a_norm, y):
        widths.append(y.shape[1])
        return real(a_norm, y)

    monkeypatch.setattr(gcn, "_adj", counting)
    graph = make_sbm_graph(60, rng=Rng(1))
    cfg = GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=2, seed=0)

    state, props = gcn.gcn_forward_init(graph, (2, 8, 2), Rng(0), cfg.rho, cfg.mu)
    assert widths == [2, 2]
    widths.clear()
    risk = masked_ce(graph.labels, graph.train_mask)
    new = gcn_iteration(state, risk, BlockRecord(), props)[0]
    assert widths == [2] * 8
    widths.clear()
    gcn.lagrangian(new, risk.value(new.Z[-1]), props)
    for mask in (graph.train_mask, graph.test_mask):
        gcn_accuracy(new, mask, np.argmax(graph.labels[mask], axis=1), props)
    assert widths == []

    def in_training(epochs):  # the Lagrangian and accuracies included
        widths.clear()
        gcn_train(graph, GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=epochs))
        assert max(widths) <= 2
        return len(widths)

    assert in_training(2) == 2 + 2 * 8
    assert in_training(3) - in_training(2) == 8


@pytest.mark.parametrize("hidden", [(32,), (8, 16)])
def test_traces_match_dense_propagation(hidden, monkeypatch):
    """The compressed-row products sum in another order than a dense
    product.  Over 200 epochs on sbm200 the traces match a run whose ``_adj``
    multiplies by the dense normalization: discrete fields identical,
    continuous fields within 1e-9 relative."""
    graph = make_sbm_graph(200, rng=Rng(8))
    cfg = GcnConfig(hidden_dims=hidden, rho=1.0, mu=1.0, epochs=200, seed=0)
    state, traces = gcn_train(graph, cfg)
    dense = dense_normalization(graph)
    monkeypatch.setattr(gcn, "_adj", lambda a_norm, y: dense @ y)
    dense_state, dense_traces = gcn_train(graph, cfg)
    assert len(dense_traces) == len(traces) == cfg.epochs
    for a, b in zip(traces, dense_traces):
        for field, value in vars(a).items():
            other = getattr(b, field)
            if isinstance(value, (bool, int, dict)) or field.endswith("_acc"):
                assert value == other, (a.iter, field)
            elif field != "wall_time":
                assert value == pytest.approx(other, rel=1e-9, abs=0.0), (a.iter, field)


def test_training_allocates_no_dense_square():
    """The trainer holds A_norm in compressed rows: a training call at N =
    2000 never has as much as one N x N float array allocated at once."""
    graph = make_sbm_graph(2000, rng=Rng(0))
    cfg = GcnConfig(hidden_dims=(32,), rho=1.0, mu=1.0, epochs=2, seed=0)
    tracemalloc.start()
    try:
        gcn_train(graph, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * graph.n_nodes ** 2


def test_graph_path_is_o_nnz_at_20k_nodes(tmp_path):
    """From ``Graph`` validation through the bundle files, ``A_norm`` and one
    epoch, a 20,000-node graph of mean degree about 10 stays far below one
    N x N float array (3.2 GB): the graph is built as an edge list, and
    no step reads or forms a dense adjacency."""
    n, rng = 20_000, Rng(3)
    u, v = rng.integers(0, n, 110_000), rng.integers(0, n, 110_000)
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    edges = np.column_stack(np.divmod(keys, n))
    edges = edges[edges[:, 0] != edges[:, 1]]
    blocks = np.arange(n) % 2
    split = rng.random(n)
    tracemalloc.start()
    try:
        graph = Graph(n, edges, rng.normal(0, 1, (n, 4)) + blocks[:, None], np.eye(2)[blocks],
                      split < 0.3, split >= 0.3)
        save_graph(str(tmp_path), graph)
        graph = load_graph(str(tmp_path))
        a_norm = normalize_adjacency(graph)
        gcn_train(graph, GcnConfig(hidden_dims=(16,), rho=1.0, mu=1.0, epochs=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(graph.edges, edges)
    assert a_norm.cols.size == n + 2 * len(edges)
    assert peak < 100e6
