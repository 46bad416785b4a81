"""Discrete orthogonal polynomial bases and least-squares projection smoothing.

A polynomial basis orthogonal under the discrete inner product over the sample
abscissas is built by the classical three-term (Forsythe/Gram) recurrence:

    p_{-1} = 0,  p_0 = 1,
    p_{j+1}[n] = (t_n - a_j) p_j[n] - b_j p_{j-1}[n],

with a_j = sum t_n p_j^2[n] / q_j, b_j = q_j / q_{j-1} and q_j = sum p_j^2[n].
Projecting data onto the first J polynomials gives the smoothing transform
y = P Q^-1 P^T x; the projector's entries are the error-mixing coefficients
that relate the post-transform error process to the raw noise.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConfigError,
    DegenerateGridError,
    DimensionError,
    InvalidCovarianceError,
    OrderRangeError,
)

_Q_FLOOR = 1e-300


@dataclass(frozen=True)
class SampleGrid:
    """Ordered sample abscissas."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigError("grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ConfigError("grid points must be strictly increasing")

    @property
    def count(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, n: int, dt: float) -> "SampleGrid":
        if n < 2:
            raise ConfigError("uniform grid needs n >= 2")
        if dt <= 0:
            raise ConfigError("uniform grid needs dt > 0")
        return cls(np.arange(n) * dt)


@dataclass(frozen=True)
class Sequence:
    """A length-N real sample record attached to its grid."""

    values: np.ndarray
    grid: SampleGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.count,):
            raise DimensionError(
                f"sequence length {vals.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("sequence values must be finite")


@dataclass(frozen=True)
class PolynomialBasis:
    grid: SampleGrid
    order: int
    values: np.ndarray        # (J, N), row j holds p_j evaluated on the grid
    norms: np.ndarray         # (J,) squared norms q_j
    recurrence_a: np.ndarray
    recurrence_b: np.ndarray


@dataclass(frozen=True)
class ProjectionOperator:
    basis: PolynomialBasis

    @property
    def xi(self) -> np.ndarray:
        """Dense (N, N) projector, entries sum_j p_j[n] p_j[m] / q_j, symmetrized exactly.

        Built on each read; applying the projection goes through the O(NJ) ``transform``.
        """
        H = self.basis.values.T @ (self.basis.values / self.basis.norms[:, None])
        return 0.5 * (H + H.T)


def build_basis(grid: SampleGrid, order: int) -> PolynomialBasis:
    """Build the first ``order`` orthogonal polynomials on ``grid``."""
    N = grid.count
    if not 1 <= order <= N:
        raise OrderRangeError(f"order {order} outside [1, {N}]")
    P, q, a, b = _kernels.gram_recurrence(grid.points, order)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q))):
        raise DegenerateGridError("recurrence produced non-finite values")
    if np.any(q <= _Q_FLOOR):
        raise DegenerateGridError("polynomial norm underflow; grid is numerically degenerate")
    return PolynomialBasis(grid=grid, order=order, values=P, norms=q,
                           recurrence_a=a, recurrence_b=b)


def projection_operator(basis: PolynomialBasis) -> ProjectionOperator:
    """The projector onto ``basis``; its dense matrix is ``op.xi``."""
    return ProjectionOperator(basis)


def _fit(P: np.ndarray, q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project each row of ``X`` onto the rows of ``P`` (squared norms ``q``): ((X P^T)/q) P."""
    return (X @ P.T) / q @ P


def transform(op: ProjectionOperator, x: Sequence) -> Sequence:
    """Project ``x`` onto the polynomial subspace via the O(NJ) coefficient route."""
    if x.grid.count != op.basis.grid.count:
        raise DimensionError("sequence grid does not match operator grid")
    return Sequence(_fit(op.basis.values, op.basis.norms, x.values), x.grid)


def error_covariance(op: ProjectionOperator, noise_cov: np.ndarray) -> np.ndarray:
    """Covariance H Sigma H^T of the post-transform error given the noise covariance."""
    S = np.asarray(noise_cov, dtype=np.float64)
    N = op.basis.grid.count
    if S.shape != (N, N):
        raise DimensionError(f"covariance must be {N}x{N}")
    if np.max(np.abs(S - S.T)) > 1e-9:
        raise InvalidCovarianceError("noise covariance is not symmetric")
    H = op.xi
    out = H @ S @ H.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class OrderSelection:
    chosen: int
    risk_curve: tuple  # ((J, risk), ...) in ascending J


def select_order(
    grid: SampleGrid,
    mode: str,
    j_range=None,
    *,
    signal: Sequence | None = None,
    observed: Sequence | None = None,
    noise_var: float | None = None,
) -> OrderSelection:
    """Pick the approximation order minimizing an error-variance risk.

    ``oracle`` needs the clean signal and the noise variance (simulation use);
    ``penalized`` needs the observed record and the noise variance and uses a
    Cp-style unbiased surrogate.  Ties break toward the smaller order.

    ``j_range`` must hold distinct integer orders in ascending order.  The
    recurrence is prefix-nested (the first J rows of the order-K basis are the
    order-J basis), so the basis is built once at the maximum order and each
    candidate fit uses its first J rows.
    """
    N = grid.count
    if mode not in ("oracle", "penalized"):
        raise ConfigError(f"unknown order-selection mode {mode!r}")
    if noise_var is None or not 0 <= noise_var < np.inf:
        raise ConfigError("oracle/penalized modes need a finite noise_var >= 0")
    orders = list(j_range) if j_range is not None else list(range(1, N + 1))
    if not orders:
        raise ConfigError("empty order range")
    if not all(isinstance(J, (int, np.integer)) for J in orders):
        raise ConfigError("orders must be integers")
    if any(j1 >= j2 for j1, j2 in zip(orders, orders[1:])):
        raise ConfigError("order range must be strictly ascending")
    if orders[0] < 1 or orders[-1] > N:
        raise OrderRangeError(f"order range outside [1, {N}]")

    if mode == "oracle":
        if signal is None:
            raise ConfigError("oracle mode needs the clean signal")
        data = signal.values
        penalty = noise_var / N
    else:
        if observed is None:
            raise ConfigError("penalized mode needs the observed record")
        data = observed.values
        penalty = 2.0 * noise_var / N

    full = build_basis(grid, orders[-1])
    curve = []
    for J in orders:
        fit = _fit(full.values[:J], full.norms[:J], data)
        risk = float(np.sum((data - fit) ** 2) / N + penalty * J)
        curve.append((J, risk))
    best = min(curve, key=lambda jr: (jr[1], jr[0]))
    return OrderSelection(best[0], tuple(curve))
