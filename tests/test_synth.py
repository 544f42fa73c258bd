import numpy as np
import pytest

from admmnet import synth
from admmnet.gcn import Graph
from admmnet.linalg import Rng
from admmnet.synth import make_sbm_graph


def sbm_graph_by_pairs(n_nodes, n_blocks, p_in=0.1, p_out=0.01, n_features=2,
                       train_frac=0.3, rng=None):
    """Reference generator: one uniform per node pair, drawn in a double loop."""
    blocks = np.arange(n_nodes) % n_blocks
    adjacency = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            p = p_in if blocks[i] == blocks[j] else p_out
            if rng.random(()) < p:
                adjacency[i, j] = adjacency[j, i] = 1.0
    centers = rng.normal(0.0, 1.0, (n_blocks, n_features))
    features = centers[blocks] + 0.8 * rng.normal(0.0, 1.0, (n_nodes, n_features))
    labels = np.zeros((n_nodes, n_blocks))
    labels[np.arange(n_nodes), blocks] = 1.0
    perm = rng.permutation(n_nodes)
    n_train = int(round(train_frac * n_nodes))
    train_mask = np.zeros(n_nodes, dtype=bool)
    test_mask = np.zeros(n_nodes, dtype=bool)
    train_mask[perm[:n_train]] = True
    test_mask[perm[n_train:]] = True
    return Graph(n_nodes, np.argwhere(np.triu(adjacency)), features, labels, train_mask, test_mask)


@pytest.mark.parametrize("n_nodes, n_blocks, seed", [
    (4, 2, 0), (7, 3, 1), (30, 2, 2), (120, 4, 3), (200, 2, 8),
])
def test_sbm_graph_matches_pairwise_draws(n_nodes, n_blocks, seed):
    got = make_sbm_graph(n_nodes, n_blocks=n_blocks, rng=Rng(seed))
    want = sbm_graph_by_pairs(n_nodes, n_blocks, rng=Rng(seed))
    for name in ("edges", "adjacency", "features", "labels", "train_mask", "test_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("pairs_per_draw", [1, 7, 50, 119])
def test_sbm_graph_draw_runs_keep_the_stream(monkeypatch, pairs_per_draw):
    """Draws of a few rows each, and rows longer than a draw, give the same
    graph as one uniform per pair."""
    monkeypatch.setattr(synth, "PAIRS_PER_DRAW", pairs_per_draw)
    got = make_sbm_graph(120, n_blocks=3, rng=Rng(4))
    want = sbm_graph_by_pairs(120, 3, rng=Rng(4))
    for name in ("edges", "features", "labels", "train_mask", "test_mask"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
