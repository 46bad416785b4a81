"""Discrete orthogonal polynomial bases and least-squares projection smoothing.

A polynomial basis orthogonal under the discrete inner product over the sample
abscissas is built by the classical three-term (Forsythe/Gram) recurrence:

    p_{-1} = 0,  p_0 = 1,
    p_{j+1}[n] = (t_n - a_j) p_j[n] - b_j p_{j-1}[n],

with a_j = sum t_n p_j^2[n] / q_j, b_j = q_j / q_{j-1} and q_j = sum p_j^2[n],
which ``_gram_recurrence`` runs and ``build_basis`` checks.
Projecting data onto the first J polynomials gives the smoothing transform
y = P Q^-1 P^T x; the projector's entries are the error-mixing coefficients
that relate the post-transform error process to the raw noise.

Coefficients c_j = <x, p_j> / q_j are formed in one place, ``coefficients``,
and every fit is their synthesis C @ P. They do not depend on J, so order
selection scores every candidate order from one basis build: the order-J fit is
the partial sum c_0 p_0 + ... + c_{J-1} p_{J-1}, and the curve costs O(N J).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDataError,
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
        # compared, not subtracted: the difference overflows on a span beyond float64
        if not np.all(pts[1:] > pts[:-1]):
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
        if int(n) * 8 > np.iinfo(np.intp).max:  # checked here: arange raises, or wraps to empty
            raise ConfigError(f"a uniform grid of {n} points is larger than any array")
        # an overflow to inf, or 0 * inf = nan, is rejected below as a non-finite point
        with np.errstate(over="ignore", invalid="ignore"):
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
    values: np.ndarray        # (J, N), row j holds p_j evaluated on the grid
    norms: np.ndarray         # (J,) squared norms q_j


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


def _gram_recurrence(t, J):
    # a_j and b_j are Python-float loop locals and each new row is formed in
    # place in P with one length-N scratch buffer; the operations and their
    # order are those of (t - a_j) * p_j - b_j * p_{j-1}, so every bit is too
    N = t.shape[0]
    P = np.zeros((J, N))
    q = [0.0] * J
    P[0] = 1.0
    q[0] = qj = float(N)
    rows = list(P)
    s = np.empty(N)
    for j in range(J - 1):
        if qj <= 0.0:  # underflowed basis; caller rejects the zero norms
            break
        pj, nxt = rows[j], rows[j + 1]
        np.multiply(pj, pj, s)
        aj = float(t.dot(s)) / qj
        np.subtract(t, aj, nxt)
        np.multiply(nxt, pj, nxt)
        if j > 0:
            bj = qj / q[j - 1]
            np.multiply(rows[j - 1], bj, s)
            np.subtract(nxt, s, nxt)
        q[j + 1] = qj = float(nxt.dot(nxt))
    return P, np.array(q)


def build_basis(grid: SampleGrid, order: int) -> PolynomialBasis:
    """Build the first ``order`` orthogonal polynomials on ``grid``."""
    N = grid.count
    if not 1 <= order <= N:
        raise OrderRangeError(f"order {order} outside [1, {N}]")
    # overflow or nan in the recurrence is what the finiteness check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        P, q = _gram_recurrence(grid.points, order)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q))):
        raise DegenerateGridError("recurrence produced non-finite values")
    if np.any(q <= _Q_FLOOR):
        raise DegenerateGridError("polynomial norm underflow; grid is numerically degenerate")
    return PolynomialBasis(grid=grid, values=P, norms=q)


def projection_operator(basis: PolynomialBasis) -> ProjectionOperator:
    """The projector onto ``basis``; its dense matrix is ``op.xi``."""
    return ProjectionOperator(basis)


def coefficients(basis: PolynomialBasis, X: np.ndarray) -> np.ndarray:
    """(X P^T) / q: the coefficients of each record of ``X``; their fit is ``C @ P``."""
    return (X @ basis.values.T) / basis.norms


def _finite(a: np.ndarray, what: str, cause: str) -> np.ndarray:
    """``a``, formed with overflow warnings off; an inf or nan in it is degenerate data."""
    if not np.all(np.isfinite(a)):
        raise DegenerateDataError(f"{what} overflows float64: {cause}")
    return a


def transform(op: ProjectionOperator, x: Sequence) -> Sequence:
    """Project ``x`` onto the polynomial subspace via the O(NJ) coefficient route."""
    # equal counts are not enough: the fit reads the basis at its own abscissas
    if not np.array_equal(x.grid.points, op.basis.grid.points):
        raise DimensionError("sequence grid does not match operator grid")
    with np.errstate(over="ignore", invalid="ignore"):
        fit = coefficients(op.basis, x.values) @ op.basis.values
    return Sequence(_finite(fit, "the fit", "the record is too large"), x.grid)


def error_covariance(op: ProjectionOperator, noise_cov: np.ndarray) -> np.ndarray:
    """Covariance H Sigma H^T of the post-transform error given the noise covariance."""
    S = np.asarray(noise_cov, dtype=np.float64)
    N = op.basis.grid.count
    if S.shape != (N, N):
        raise DimensionError(f"covariance must be {N}x{N}")
    if not np.all(np.isfinite(S)):
        raise InvalidCovarianceError("noise covariance has non-finite entries")
    # relative to the largest entry, so rounding asymmetry passes at any scale;
    # a difference that overflows is inf and is rejected
    with np.errstate(over="ignore"):
        asymmetry = np.max(np.abs(S - S.T))
    if asymmetry > 1e-9 * np.max(np.abs(S)):
        raise InvalidCovarianceError("noise covariance is not symmetric")
    H = op.xi
    with np.errstate(over="ignore", invalid="ignore"):
        out = H @ S @ H.T
        out = 0.5 * (out + out.T)
    return _finite(out, "the error covariance", "the noise covariance is too large")


@dataclass(frozen=True)
class OrderSelection:
    chosen: int
    risk_curve: tuple  # ((J, risk), ...) in ascending J
    basis: PolynomialBasis = field(repr=False, compare=False)  # the order-``chosen`` basis


def _check_noise_var(noise_var: float | None) -> None:
    if noise_var is None or not 0 <= noise_var < np.inf:
        raise ConfigError("oracle/penalized modes need a finite noise_var >= 0")


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
    Cp-style unbiased surrogate; either record must lie on ``grid``.  Ties
    break toward the smaller order.

    ``j_range`` must hold distinct integer orders in ascending order.  The
    recurrence is prefix-nested (the first J rows of the order-K basis are the
    order-J basis), so the basis is built once at the maximum order K.  The
    coefficients are formed once, and every order-J fit is the running partial
    sum of ``c_j p_j`` over the first J rows, formed in one (K, N) work buffer;
    RSS(J) is the row sum of its squared residual.  The
    residual is formed explicitly rather than as the tail sum of ``c_j^2 q_j``,
    which would assume orthogonality the recurrence loses at high orders.  The
    selection carries the chosen order's basis, cut from that one build.  A
    curve that overflows float64 raises ``DegenerateDataError``.
    """
    N = grid.count
    if mode not in ("oracle", "penalized"):
        raise ConfigError(f"unknown order-selection mode {mode!r}")
    _check_noise_var(noise_var)
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
        record, penalty = signal, noise_var / N
    else:
        if observed is None:
            raise ConfigError("penalized mode needs the observed record")
        record, penalty = observed, 2.0 * noise_var / N
    if not np.array_equal(record.grid.points, grid.points):
        raise DimensionError(f"the {mode} record's grid does not match the selection grid")
    data = record.values

    full = build_basis(grid, orders[-1])
    P = full.values
    # row J - 1 of the work buffer becomes the order-J fit sum_{j<J} c_j p_j as a
    # running sum over the rows, then that fit's squared residual; an overflow
    # leaves inf or nan, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        c = coefficients(full, data)
        work = np.multiply(P, c[:, None])
        np.cumsum(work, axis=0, out=work)
        np.subtract(data, work, out=work)
        np.square(work, out=work)
        Js = np.array(orders)
        risks = work.sum(axis=1)[Js - 1] / N + penalty * Js
    del work  # freed before the chosen rows are copied: the peak stays at two (K, N) arrays
    _finite(risks, "the risk curve", "the record or the noise variance is too large")
    # argmin takes the first minimum, so ties break toward the smaller order
    chosen = orders[int(np.argmin(risks))]
    return OrderSelection(chosen, tuple(zip(orders, risks.tolist())),
                          PolynomialBasis(grid, P[:chosen].copy(), full.norms[:chosen].copy()))
