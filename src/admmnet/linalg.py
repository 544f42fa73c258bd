"""Dense linear algebra substrate: matrices are 2-D float64 numpy arrays.

Vectors are stored as n x 1 column matrices throughout the package.
"""
from __future__ import annotations

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


class Rng(np.random.Generator):
    """A ``numpy.random.Generator`` on PCG64 from ``seed``, whose draw
    sequence is platform-stable."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(int(seed)))
