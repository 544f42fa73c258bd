"""Synthetic dataset generators for desk-scale experiments and self-checks."""
from __future__ import annotations

import numpy as np

from .gcn import Graph
from .linalg import Rng
from .objective import Dataset


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
    """Stochastic block model with block-informative node features."""
    rng = rng or Rng(0)
    blocks = np.arange(n_nodes) % n_blocks
    adjacency = np.zeros((n_nodes, n_nodes))
    # One uniform per pair (i, j > i), drawn row by row in that order.
    for i in range(n_nodes - 1):
        p = np.where(blocks[i + 1:] == blocks[i], p_in, p_out)
        edge = rng.random(n_nodes - i - 1) < p
        adjacency[i, i + 1:] = edge
        adjacency[i + 1:, i] = edge

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
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=train_mask,
        test_mask=test_mask,
    )
