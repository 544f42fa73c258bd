"""Dense linear algebra substrate: matrices are 2-D float64 numpy arrays.

Vectors are stored as n x 1 column matrices throughout the package.
"""
from __future__ import annotations

import operator

import numpy as np

Matrix = np.ndarray


def l2sq(a: Matrix) -> float:
    """Squared Euclidean norm of the flattened entries."""
    return float(np.vdot(a, a))


def require_finite(**values) -> None:
    """Raises ValueError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def is_index(value, least: int) -> bool:
    """Whether ``value`` is an integer, one that ``operator.index`` takes
    (an int or a numpy integer, not 2.0), of at least ``least``."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


def require_epochs_seed(epochs, seed) -> None:
    """Raises ValueError unless ``epochs`` is an integer >= 1 and ``seed`` an
    integer >= 0: the rule of every training config."""
    if not is_index(epochs, 1):
        raise ValueError("epochs must be >= 1")
    if not is_index(seed, 0):
        raise ValueError(f"seed must be >= 0, got {seed}")


class Rng(np.random.Generator):
    """A ``numpy.random.Generator`` on PCG64 from ``seed``, whose draw
    sequence is platform-stable."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(int(seed)))
