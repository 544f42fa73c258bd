import numpy as np

from admmnet.linalg import Rng, l2sq


def test_frob_squared_is_l2sq():
    assert l2sq(np.array([[3.0, -4.0]])) == 25.0
    a = Rng(2).normal(0, 1, (5, 3))
    sq = l2sq(a)
    assert abs(np.linalg.norm(a) ** 2 - sq) <= 1e-12 * sq


def test_rng_reproducible():
    a = Rng(123).normal(0, 1, 10_000)
    b = Rng(123).normal(0, 1, 10_000)
    assert np.array_equal(a, b)
