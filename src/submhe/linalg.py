"""Validated symmetric eigendecomposition, and the one box clamp.

Every eigenvalue the analysis and the certificate checks read (the LMI's
largest eigenvalue, the extremes of P, Q and the window weights) comes from
`eigh`, which checks its input and hands it to LAPACK through numpy. Spectral
norms of general matrices are taken with numpy.linalg.norm(m, 2) at the call
site. Results are reproducible run to run for a given config, seed and
numpy/BLAS build on one machine; they are not promised bit-for-bit across
machines or library versions. Every componentwise clamp onto a box (the
solver's iterates, its K = 0 start, model.Box.project) is `clamp`.
"""

import math

import numpy as np

from .errors import DimensionMismatch


def symmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def vector_norm(x):
    """||x||_2 of a 1-d float64 array, as a float: the bytes of
    np.linalg.norm(x), which computes sqrt(x.dot(x)) for this case, without
    its dispatch (about 1 us of 1.5 us per call on a window-sized vector)."""
    return math.sqrt(x.dot(x))


def clamp(v, lo, hi, out=None):
    """min(hi, max(lo, v)) componentwise, into `out` when given: the same
    bytes as np.clip(v, lo, hi), NaN and signed zeros included, at about half
    its cost on short vectors. The value is the first operand of each
    compare; with the bound first, a -0.0 that ties a zero bound would stay
    -0.0 where np.clip gives 0.0."""
    out = np.maximum(v, lo, out=out)
    return np.minimum(out, hi, out=out)


def eigh(a):
    """Eigendecomposition of a symmetric matrix: (w ascending, V by columns).

    Raises DimensionMismatch for a non-square or non-symmetric input; the
    symmetry check is relative to the largest entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise DimensionMismatch("matrix is not symmetric")
    return np.linalg.eigh(symmetrize(a))


# Name the benchmark's call-site tracer wraps; the same function object as
# eigh, so traced runs count every eigen call.
jacobi_eigh = eigh
