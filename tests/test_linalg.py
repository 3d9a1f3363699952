import numpy as np
import pytest

from submhe.errors import DimensionMismatch
from submhe.linalg import eigh, vector_norm


def test_matches_numpy_eigvalsh_across_sizes():
    rng = np.random.default_rng(0)
    for n in [1, 2, 3, 5, 9, 20, 34]:
        for _ in range(10):
            m = rng.standard_normal((n, n))
            a = (m + m.T) * rng.uniform(0.1, 10)
            w, v = eigh(a)
            w_np = np.linalg.eigvalsh(a)
            scale = max(1.0, np.max(np.abs(w_np)))
            assert np.max(np.abs(w - w_np)) <= 1e-12 * scale
            assert np.max(np.abs(a @ v - v * w)) <= 1e-6 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12


def test_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    a = m + m.T
    w1, v1 = eigh(a)
    w2, v2 = eigh(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(DimensionMismatch):
        eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        eigh(np.zeros((2, 3)))


def test_zero_and_scalar():
    w, v = eigh(np.zeros((3, 3)))
    assert np.array_equal(w, np.zeros(3))
    w, _ = eigh(np.array([[4.0]]))
    assert w[0] == 4.0


def test_vector_norm_is_numpy_norm_bitwise():
    # the docstring's claim, at every length from 0 to 120 and at scales
    # from 1e-160 (whose squares are subnormal) to 1e150
    rng = np.random.default_rng(5)
    for n in range(121):
        for scale in (1e-160, 1e-80, 1e-8, 1.0, 1e8, 1e80, 1e150):
            x = rng.standard_normal(n) * scale
            got = vector_norm(x)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.linalg.norm(x).tobytes()
