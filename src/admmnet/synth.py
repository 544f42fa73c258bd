"""Synthetic dataset generators for desk-scale experiments and self-checks."""
from __future__ import annotations

import numpy as np

from .gcn import Graph
from .linalg import Rng
from .objective import Dataset

# Uniforms per draw of make_sbm_graph (16 MB of float64); a row longer than
# this is drawn whole.
PAIRS_PER_DRAW = 1 << 21


def make_image_classes(
    n_samples: int,
    n_pixels: int = 784,
    n_classes: int = 10,
    noise: float = 0.25,
    rng: Rng = None,
):
    """(train, test) image-like datasets built from noisy class prototypes.

    Each class gets a random sparse prototype in [0,1]; samples are the
    prototype plus Gaussian pixel noise, clipped back to [0,1].  Difficulty
    is controlled by `noise` — at the default the classes overlap enough
    that a linear model does not get them all.
    """
    rng = rng or Rng(0)
    protos = np.zeros((n_pixels, n_classes))
    for k in range(n_classes):
        on = rng.permutation(n_pixels)[: n_pixels // 8]
        protos[on, k] = 0.5 + 0.5 * rng.random(on.size)

    def draw(m):
        labels = np.arange(m) % n_classes
        labels = labels[rng.permutation(m)]
        x = protos[:, labels] + noise * rng.normal(0.0, 1.0, (n_pixels, m))
        x = np.clip(x, 0.0, 1.0)
        y = np.zeros((n_classes, m))
        y[labels, np.arange(m)] = 1.0
        return Dataset(x, y)

    return draw(n_samples), draw(max(n_samples // 5, n_classes))


def make_separable(n_samples: int = 50, n_features: int = 4, rng: Rng = None) -> Dataset:
    """Two linearly separable Gaussian blobs (binary one-hot labels)."""
    rng = rng or Rng(0)
    half = n_samples // 2
    x = np.concatenate(
        [
            rng.normal(0.0, 0.3, (n_features, half)) + 1.5,
            rng.normal(0.0, 0.3, (n_features, n_samples - half)) - 1.5,
        ],
        axis=1,
    )
    y = np.zeros((2, n_samples))
    y[0, :half] = 1.0
    y[1, half:] = 1.0
    perm = rng.permutation(n_samples)
    return Dataset(x[:, perm], y[:, perm])


def make_sbm_graph(
    n_nodes: int = 200,
    n_blocks: int = 2,
    p_in: float = 0.1,
    p_out: float = 0.01,
    n_features: int = 2,
    train_frac: float = 0.3,
    rng: Rng = None,
) -> Graph:
    """Stochastic block model with block-informative node features.

    One uniform per pair (i, j > i), drawn in row-major order and in runs of
    whole rows of at most ``PAIRS_PER_DRAW`` pairs; the pair is an edge when
    its uniform is below p_in (same block) or p_out.  Splitting one draw
    into runs leaves the generator's stream unchanged."""
    rng = rng or Rng(0)
    blocks = np.arange(n_nodes) % n_blocks
    # first[i]: flat index of the pair (i, i + 1); first[n - 1] is the pair count
    first = np.concatenate(([0], np.cumsum(np.arange(n_nodes - 1, 0, -1))))
    p_max = max(p_in, p_out)
    edges = [np.empty((0, 2), dtype=np.intp)]
    lo = 0
    while lo < n_nodes - 1:  # a run of rows lo .. hi - 1: as many as fit, at least one
        hi = max(lo + 1, int(np.searchsorted(first, first[lo] + PAIRS_PER_DRAW, "right")) - 1)
        u = rng.random(first[hi] - first[lo])
        flat = np.flatnonzero(u < p_max)  # candidates, a superset of the edges
        i = np.searchsorted(first, flat + first[lo], "right") - 1
        j = flat + first[lo] - first[i] + i + 1
        keep = u[flat] < np.where(blocks[i] == blocks[j], p_in, p_out)
        edges.append(np.column_stack((i[keep], j[keep])))
        lo = hi

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
    return Graph(
        n_nodes=n_nodes,
        edges=np.concatenate(edges),
        features=features,
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )
