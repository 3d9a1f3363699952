"""Validated symmetric eigendecomposition.

Every eigenvalue the analysis and the certificate checks read (the LMI's
largest eigenvalue, the extremes of P, Q and the window weights) comes from
`eigh`, which checks its input and hands it to LAPACK through numpy. Spectral
norms of general matrices are taken with numpy.linalg.norm(m, 2) at the call
site. Results are reproducible run to run for a given config, seed and
numpy/BLAS build on one machine; they are not promised bit-for-bit across
machines or library versions.
"""

import numpy as np

from .errors import DimensionMismatch


def symmetrize(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


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
