"""Dense linear algebra substrate: matrices are 2-D float64 numpy arrays.

Vectors are stored as n x 1 column matrices throughout the package.
"""
from __future__ import annotations

import numpy as np

Matrix = np.ndarray


def l2sq(a: Matrix) -> float:
    """Squared Euclidean norm of the flattened entries."""
    return float(np.vdot(a, a))


class Rng:
    """Seeded generator with a platform-stable draw sequence (PCG64)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float, scale: float, size) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random(self, size=None):
        return self._gen.random(size)
