"""Dense small-matrix substrate: symmetry checks, singular values, linear
solves and Haar-random orthogonal matrices.

Matrices are plain float64 ``numpy.ndarray`` values, immutable by convention
(nothing in this package mutates an input array).  Each routine validates its
contract; a LAPACK failure (``numpy.linalg.LinAlgError``) is left to the
CLI, which reports it as a numerical error.

Randomness: one generator for the whole artifact, PCG64 behind
``numpy.random.Generator``.  Identical seeds give identical draw sequences on
every platform.  All stochastic operations take the generator explicitly; a
generator instance is never shared between concurrent owners.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

# Condition-number ceiling above which a solve is refused.
CONDITION_LIMIT = 1e12


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64) for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite float64 2-d array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ConfigError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigError("matrix entries must be finite")
    return a


def relative_asymmetry(stack) -> np.ndarray:
    """max |M - M^T| / max |M| (0 for a zero matrix) of each matrix of a
    (k, d, d) stack."""
    a = np.asarray(stack, dtype=float)
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1), initial=0.0)
    return np.divide(skew, scale, out=np.zeros(np.shape(skew)), where=scale > 0.0)


def singular_values(m) -> np.ndarray:
    """Singular values of any matrix, descending, all nonnegative."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def solve_linear(m, b) -> np.ndarray:
    """Solve M x = b for square nonsingular M.

    Refuses matrices whose 2-norm condition number exceeds 1e12 (an exactly
    singular one included); the returned solution has relative residual
    below 1e-10 for accepted systems.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != a.shape[0]:
        raise ConfigError(
            f"right-hand side length {rhs.shape[0]} != matrix order {a.shape[0]}"
        )
    s = singular_values(a)
    if s.size == 0 or s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise NumericalError("matrix is singular or too ill-conditioned")
    return np.linalg.solve(a, rhs)


# Matrices per stacked LAPACK call: bounds the temporaries of a stacked
# factorization at large n.
STACK_CHUNK = 16


def chunks(n: int):
    """Slices that cover range(n) in STACK_CHUNK-sized pieces, in order."""
    return (slice(s, s + STACK_CHUNK) for s in range(0, n, STACK_CHUNK))


def haar_orthogonal(normals: np.ndarray) -> np.ndarray:
    """Haar-uniform orthogonal matrices from a (k, d, d) stack of standard
    normals: QR-factors each matrix and flips column signs so the triangular
    factor has a positive diagonal, which makes the distribution exactly Haar."""
    q, r = np.linalg.qr(normals)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[..., None, :]
