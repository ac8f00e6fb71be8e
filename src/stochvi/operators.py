"""Finite-sum operators: the abstraction plus two concrete instances.

An operator is any object exposing ``n``, ``dim``, ``component_value``,
``component_jacobian`` and (optionally) ``equilibrium``.  Downstream code
reads all component values through ``component_values`` and the mean value
through ``full_value``, and solvers read component values and Jacobians for
a batch of points through ``batch_terms``, the one batched read; subclasses
may override any of these three with a faster route.
Nothing downstream assumes affinity except where documented.  Operators are
immutable after construction and all evaluation is pure, so instances can be
shared freely and replayed exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from . import numerics
from .errors import ConfigError, NumericalError


class FiniteSumOperator(ABC):
    """Operator of the form value(x) = (1/n) * sum_i component_value(i, x)."""

    n: int
    dim: int

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ConfigError(f"component index {i} outside [0, {self.n})")

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigError(f"point has shape {x.shape}, operator dimension is {self.dim}")
        return x

    @abstractmethod
    def component_value(self, i: int, x: np.ndarray) -> np.ndarray:
        """Value of the i-th component at x."""

    @abstractmethod
    def component_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        """Jacobian of the i-th component at x, shape (dim, dim)."""

    def component_values(self, x: np.ndarray) -> np.ndarray:
        """All component values at x, shape (n, dim)."""
        return self.batch_terms(self._check_point(x)[None])[0][0]

    def full_value(self, x: np.ndarray) -> np.ndarray:
        """Uniform mean of all component values at x."""
        return self.component_values(x).mean(axis=0)

    # batch_terms is the one batched read, for solvers that advance S points
    # together.  Entry [..., s, j] is component idx[..., s, j] (component j
    # when idx is None) at xs[s]: idx may carry leading axes, such as a
    # (2, S, m) block of two draws per point.  Every entry is bitwise the
    # single-point evaluation.

    # Whether every component is affine, so that its Jacobian does not
    # depend on x.
    affine = False

    def batch_terms(self, xs: np.ndarray, idx=None, jacobian: bool = False):
        """(component values, shape idx.shape + (dim,) or (S, n, dim), and
        with ``jacobian`` the component Jacobians, shape idx.shape + (dim, dim)
        or (S, n, dim, dim), else None).

        The values, and the Jacobians read at an ``idx``, are fresh arrays
        that the caller may overwrite.  The Jacobians read with idx None may
        be a view of the operator's own data and must not be written."""
        if idx is not None and idx.ndim > 2:
            blocks = [self.batch_terms(xs, rows, jacobian) for rows in idx]
            return (np.array([vals for vals, _ in blocks]),
                    np.array([jacs for _, jacs in blocks]) if jacobian else None)
        rows = [range(self.n)] * len(xs) if idx is None else idx

        def read(component):
            return np.array([[component(int(i), x) for i in row] for row, x in zip(rows, xs)])

        return read(self.component_value), read(self.component_jacobian) if jacobian else None

    def equilibrium(self) -> np.ndarray:
        """Point x* with full_value(x*) = 0, when analytically available."""
        raise ConfigError(f"{type(self).__name__} has no analytic equilibrium")


class QuadraticGame(FiniteSumOperator):
    """Two-player quadratic game as a finite sum of affine components.

    Component i maps x = (x1; x2) to

        ( A_i x1 + B_i x2 + a_i ;  -B_i^T x1 + C_i x2 + c_i )

    with A_i, C_i symmetric.  The component Jacobian is the constant block
    matrix [[A_i, B_i], [-B_i^T, C_i]]; its symmetric part is
    blkdiag(A_i, C_i) because the off-diagonal blocks cancel.
    """

    def __init__(self, a_mats, b_mats, c_mats, a_vecs, c_vecs):
        self.A = np.asarray(a_mats, dtype=float)
        self.B = np.asarray(b_mats, dtype=float)
        self.C = np.asarray(c_mats, dtype=float)
        self.a = np.asarray(a_vecs, dtype=float)
        self.c = np.asarray(c_vecs, dtype=float)
        if self.A.ndim != 3 or self.B.ndim != 3 or self.C.ndim != 3:
            raise ConfigError("A, B, C must be stacks of matrices")
        n = self.A.shape[0]
        if not (self.B.shape[0] == self.C.shape[0] == self.a.shape[0] == self.c.shape[0] == n):
            raise ConfigError("all component stacks must share n")
        d1, d2 = self.B.shape[1], self.B.shape[2]
        if self.A.shape[1:] != (d1, d1) or self.C.shape[1:] != (d2, d2):
            raise ConfigError("A must be d1 x d1 and C must be d2 x d2")
        if self.a.shape[1:] != (d1,) or self.c.shape[1:] != (d2,):
            raise ConfigError("offset vectors must match block dimensions")
        if not all(np.all(np.isfinite(arr)) for arr in (self.A, self.B, self.C, self.a, self.c)):
            raise ConfigError("game data must be finite")
        for name, stack in (("A", self.A), ("C", self.C)):
            bad = np.flatnonzero(numerics.relative_asymmetry(stack) > numerics.SYMMETRY_RTOL)
            if bad.size:
                raise ConfigError(f"{name}_{bad[0]} is not symmetric")

        self.n = n
        self.d1 = d1
        self.d2 = d2
        self.dim = d1 + d2
        # Constant per-component Jacobians and offsets, stacked for fast access.
        jacs = np.zeros((n, self.dim, self.dim))
        jacs[:, :d1, :d1] = self.A
        jacs[:, :d1, d1:] = self.B
        jacs[:, d1:, :d1] = -np.transpose(self.B, (0, 2, 1))
        jacs[:, d1:, d1:] = self.C
        self._jacs = jacs
        self._offsets = np.concatenate([self.a, self.c], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            self._j_mean = jacs.mean(axis=0)
            self._r_mean = self._offsets.mean(axis=0)
        if not (np.isfinite(self._j_mean).all() and np.isfinite(self._r_mean).all()):
            raise NumericalError("the mean Jacobian or offset overflows")

    def component_value(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        x = self._check_point(x)
        return self._jacs[i] @ x + self._offsets[i]

    def component_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        self._check_point(x)
        return self._jacs[i]

    def component_values(self, x: np.ndarray) -> np.ndarray:
        """All component values at x, shape (n, dim)."""
        x = self._check_point(x)
        return self._jacs @ x + self._offsets

    def full_value(self, x: np.ndarray) -> np.ndarray:
        """Mean operator value J x + r via the cached mean Jacobian and offset.

        Agrees with the mean of component_values up to rounding, at the cost
        of one matrix-vector product instead of n.  x is not copied or
        checked; a vector of the wrong length fails in the product.
        """
        return self._j_mean @ x + self._r_mean

    # One stacked product per batch: J[idx] @ x per entry, which numpy
    # evaluates as the same matrix-vector product component_value does.
    affine = True

    def batch_terms(self, xs: np.ndarray, idx=None, jacobian: bool = False):
        """One gather of the Jacobians, one product and one add; with idx
        None the Jacobians are a read-only view of the stacked ones."""
        jacs, offsets = ((self._jacs, self._offsets) if idx is None
                         else (self._jacs[idx], self._offsets[idx]))
        vals = (jacs @ xs[:, None, :, None])[..., 0] + offsets
        if jacobian and idx is None:
            jacs = np.broadcast_to(jacs, (len(xs),) + jacs.shape)
        return vals, jacs if jacobian else None

    # Same function under its older name: perfbench/tracer.py wraps each
    # QuadraticGame method it finds in the class body, this name included.
    mean_value = full_value

    @property
    def component_jacobians(self) -> np.ndarray:
        """Stacked constant Jacobians, shape (n, dim, dim)."""
        return self._jacs

    def mean_jacobian(self) -> np.ndarray:
        """Mean Jacobian J = [[A, B], [-B^T, C]] (constant in x)."""
        return self._j_mean

    def mean_offset(self) -> np.ndarray:
        """Mean affine offset (a_mean; c_mean)."""
        return self._r_mean

    def equilibrium(self) -> np.ndarray:
        """Unique solution of J x = -r; raises NumericalError if J is singular."""
        return numerics.solve_linear(self.mean_jacobian(), -self.mean_offset())


class CosineOperator(FiniteSumOperator):
    """Single-component radial operator x * s(|x|) with

        s(r) = (big_l - mu)/2 * cos(r) + (big_l + mu)/2,   0 < mu < big_l.

    Quasi-strongly monotone with modulus mu and co-coercive around its zero
    x* = 0 with constant big_l, yet not monotone and not Lipschitz on all of
    R^d: a useful stress fixture for the class checks.  In one dimension the
    pair x = 2 pi k + pi/2, y = 2 pi k witnesses the monotonicity violation:
    <value(x) - value(y), x - y> = (pi^2/8)(big_l + mu - 4k(big_l - mu)),
    negative for k >= 1 whenever big_l > 5 mu / 3.
    """

    def __init__(self, dim: int, mu: float, big_l: float):
        if dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {dim}")
        if not 0.0 < mu < big_l:
            raise ConfigError(f"need 0 < mu < big_l, got mu={mu}, big_l={big_l}")
        self.n = 1
        self.dim = dim
        self.mu = float(mu)
        self.big_l = float(big_l)

    def _scale(self, r: float) -> float:
        return 0.5 * (self.big_l - self.mu) * np.cos(r) + 0.5 * (self.big_l + self.mu)

    def component_value(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        x = self._check_point(x)
        return x * self._scale(float(np.linalg.norm(x)))

    def component_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        x = self._check_point(x)
        r = float(np.linalg.norm(x))
        jac = self._scale(r) * np.eye(self.dim)
        if r > 0.0:
            # d/dx [s(|x|) x] = s I + s'(r)/r * x x^T, with s'(r) = -((L-mu)/2) sin r.
            jac += (-0.5 * (self.big_l - self.mu) * np.sin(r) / r) * np.outer(x, x)
        return jac

    def equilibrium(self) -> np.ndarray:
        return np.zeros(self.dim)
