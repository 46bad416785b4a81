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

from dataclasses import dataclass, field

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
    """Ordered sample abscissas; ``spacing`` is set for uniform grids t_n = n*T."""

    points: np.ndarray
    spacing: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigError("grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ConfigError("grid points must be strictly increasing")
        if self.spacing is not None:
            expect = np.arange(pts.size) * self.spacing
            if not np.array_equal(pts, expect):
                raise ConfigError("spacing does not match the stored points")

    @property
    def count(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, n: int, dt: float) -> "SampleGrid":
        if n < 2:
            raise ConfigError("uniform grid needs n >= 2")
        if dt <= 0:
            raise ConfigError("uniform grid needs dt > 0")
        return cls(np.arange(n) * dt, spacing=dt)


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
    grid: SampleGrid
    order: int
    basis: PolynomialBasis
    xi: np.ndarray = field(repr=False)  # (N, N) symmetric idempotent matrix


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
    """Dense projector with entries sum_j p_j[n] p_j[m] / q_j, symmetrized exactly."""
    scaled = basis.values / basis.norms[:, None]
    H = basis.values.T @ scaled
    H = 0.5 * (H + H.T)
    return ProjectionOperator(grid=basis.grid, order=basis.order, basis=basis, xi=H)


def transform(op: ProjectionOperator, x: Sequence) -> Sequence:
    """Project ``x`` onto the polynomial subspace via the O(NJ) coefficient route."""
    if x.grid.count != op.grid.count:
        raise DimensionError("sequence grid does not match operator grid")
    P = op.basis.values
    coeffs = (P @ x.values) / op.basis.norms
    return Sequence(coeffs @ P, x.grid)


def error_covariance(op: ProjectionOperator, noise_cov: np.ndarray) -> np.ndarray:
    """Covariance H Sigma H^T of the post-transform error given the noise covariance."""
    S = np.asarray(noise_cov, dtype=np.float64)
    N = op.grid.count
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
    mode: str
    risk_curve: tuple  # ((J, risk), ...) in ascending J


def select_order(
    grid: SampleGrid,
    mode: str,
    j_range=None,
    *,
    signal: Sequence | None = None,
    observed: Sequence | None = None,
    noise_var: float | None = None,
    fixed_order: int | None = None,
) -> OrderSelection:
    """Pick the approximation order minimizing an error-variance risk.

    ``oracle`` needs the clean signal and the noise variance (simulation use);
    ``penalized`` needs the observed record and the noise variance and uses a
    Cp-style unbiased surrogate; ``fixed`` passes ``fixed_order`` through.
    Ties break toward the smaller order.

    ``j_range`` must hold distinct integer orders in ascending order.  The
    recurrence is prefix-nested (the first J rows of the order-K basis are the
    order-J basis), so the basis is built once at the maximum order and each
    candidate fit uses its first J rows.
    """
    N = grid.count
    if mode == "fixed":
        if fixed_order is None:
            raise ConfigError("fixed mode needs fixed_order")
        if not 1 <= fixed_order <= N:
            raise OrderRangeError(f"order {fixed_order} outside [1, {N}]")
        return OrderSelection(fixed_order, "fixed", ((fixed_order, 0.0),))

    if mode not in ("oracle", "penalized"):
        raise ConfigError(f"unknown order-selection mode {mode!r}")
    if noise_var is None or noise_var < 0:
        raise ConfigError("oracle/penalized modes need noise_var >= 0")
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
        P, q = full.values[:J], full.norms[:J]
        fit = (P @ data) / q @ P
        risk = float(np.sum((data - fit) ** 2) / N + penalty * J)
        curve.append((J, risk))
    best = min(curve, key=lambda jr: (jr[1], jr[0]))
    return OrderSelection(best[0], mode, tuple(curve))
