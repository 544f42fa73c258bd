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


def test_rng_draws_equal_a_pcg64_generator():
    """``Rng(s)`` is ``Generator(PCG64(s))``: the same draws from every
    method the package calls, in order."""
    ours, ref = Rng(7), np.random.Generator(np.random.PCG64(7))
    assert isinstance(ours, np.random.Generator)
    for method, args in [("uniform", (-1.0, 1.0, (3, 4))), ("normal", (0.0, 2.0, 5)),
                         ("integers", (0, 10, 6)), ("integers", (0, 10)), ("permutation", (9,)),
                         ("random", (4,)), ("random", ())]:
        assert np.array_equal(getattr(ours, method)(*args), getattr(ref, method)(*args)), method
