"""Higher-order-spectrum Gaussianity testing for ensembles of short records.

``gaussianity_report`` runs the classic bicoherence battery in one order.  It
checks the setup first (FFT length, record length, histogram bins, then the
frame count), so a bad setup fails before any work.  It scales the ensemble by
the power of two that puts max|v| into [1/2, 1) and removes the per-index mean
once.  Each record of that one centred copy, its own mean removed, is written
into one zero-padded (R, M) complex buffer that is transformed in place.  An
ensemble whose centred values have an rms below 4 eps sqrt(R) at unit scale is
degenerate: every record is constant, or a constant plus one shape shared by
all records, and nothing but rounding residue is left to test.  The average
excess kurtosis, the centred copy's last reader, comes next; it squares the
copy in place, and the copy is dropped.  Frame-averaged triple products at the
principal bifrequency domain (the only bispectrum points the test reads),
formed one chunk of frames at a time in about 256 KB and never over the whole
(frames, j, k) grid, give the squared bicoherence and a chi-squared statistic
whose survival probability (PFA) is high when Gaussianity cannot be rejected.
The frames are then dropped, and the histogram reads the data in their units.
The report is the one route to the statistic, its degrees of freedom and the
PFA.

Each bifrequency point is normalized by the empirical variance of its triple
products across frames rather than by the raw power-spectrum product.  The two
coincide asymptotically for white Gaussian input, but the empirical normalizer
also absorbs the doubled variance on the diagonal j == k and the cross-bin
correlation of strongly colored processes, which keeps the chi-squared null
calibrated for input ensembles of independent records.

It does not calibrate an output ensemble, the projection error of rank J: its
bispectral bins are strongly dependent, so the 2 * n_pts degrees of freedom do
not hold. For Gaussian noise through the reference study's J=3 projection, the
output S had mean 265 and sd 225 against chi-squared(480), and the test
rejected 0.125 of ensembles at 0.05. The output PFA is therefore uncalibrated;
ROADMAP item 3 plans a calibrated test on the coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, InsufficientFramesError

EPS_FLOOR = 1e-30
MIN_FRAMES = 8
# Stirling series of lgamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2): B_2k / (2k (2k - 1))
# times a^(1 - 2k), k = 1..5; the first dropped term is below 2.2e-16 from a = 15 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_STIRLING_MIN_A = 15.0
_EPS = 2.0**-52
_TINY = 1e-300  # keeps the Lentz recurrence off zero denominators
#: DFT length M and histogram bin count of the reference study
REFERENCE_FFT_LEN, REFERENCE_BINS = 64, 20
# complex triple products per frame chunk: 16384 * 16 B = 256 KB stays in L2
_CHUNK_POINTS = 16384


@dataclass(frozen=True)
class Ensemble:
    """R independent realizations of a length-N real process."""

    values: np.ndarray  # (R, N)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or 0 in vals.shape:  # no records, or records of no samples
            raise ConfigError("ensemble must be a non-empty R x N table")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("ensemble values must be finite")

    @property
    def replications(self) -> int:
        return self.values.shape[0]

    @property
    def record_length(self) -> int:
        return self.values.shape[1]


def segment_record(values: np.ndarray, frame_len: int) -> Ensemble:
    """Split one long record into contiguous frames (single-record test mode)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if frame_len < 2:
        raise ConfigError("frame length must be at least 2")
    K = v.size // frame_len
    if K < 1:
        raise ConfigError("record shorter than one frame")
    return Ensemble(v[: K * frame_len].reshape(K, frame_len))


def _principal_index(M):
    """``(j, k)`` of the principal domain 1 <= k <= j, j + k <= M/2 - 1, row ``j`` by row."""
    half = M // 2
    rows = np.arange(1, half - 1)
    widths = np.minimum(rows, half - 1 - rows)
    j = np.repeat(rows, widths)
    starts = np.cumsum(widths) - widths
    return j, np.arange(j.size) - np.repeat(starts, widths) + 1


@dataclass(frozen=True)
class BicoherenceGrid:
    points: tuple            # kept principal-domain pairs (j, k)
    values: np.ndarray       # squared bicoherence per kept point
    excluded: int            # principal-domain points dropped for dead denominators


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class GaussianityReport:
    statistic: float
    dof: int
    pfa: float
    avg_kurtosis: float
    histogram: Histogram
    bicoherence: BicoherenceGrid
    fft_len: int
    frames: int
    replications: int


def _require_array_bytes(nbytes: int, what: str) -> None:
    # checked before numpy is asked for the array, which would raise or wrap the size
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} are larger than any array")


def _validate_fft_len(fft_len: int, frames: int = 1) -> None:
    """An even FFT length of at least 8 whose ``frames`` complex128 frames fit one array."""
    if fft_len % 2 != 0 or fft_len < 8:
        raise ConfigError("FFT length must be even and at least 8")
    _require_array_bytes(int(frames) * int(fft_len) * 16, f"the {frames} x {fft_len} FFT frames")


def _validate_bins(bins: int) -> None:
    """At least one histogram bin, with float64 edges that fit one array."""
    if bins < 1:
        raise ConfigError("need at least one bin")
    _require_array_bytes((int(bins) + 1) * 8, f"the edges of {bins} histogram bins")


def _check_setup(replications: int, record_length: int, fft_len: int, bins: int) -> None:
    """Reject a report's setup before any work: the settings first, then the frame count."""
    _validate_fft_len(fft_len, replications)
    if record_length > fft_len:
        raise ConfigError(f"records of {record_length} points are longer than "
                          f"the FFT length {fft_len}")
    _validate_bins(bins)
    if replications < MIN_FRAMES:  # each record is one frame
        raise InsufficientFramesError(
            f"need at least {MIN_FRAMES} replications, got {replications}")


def _frames_fft(u: np.ndarray, fft_len: int) -> np.ndarray:
    """The FFT frames of the index-centred records ``u``, each record's mean removed first.

    The record-centred values go into the real part of one zeroed (R, M) complex
    buffer, which is transformed in place: the same bits as
    ``np.fft.fft(u - u.mean(axis=1, keepdims=True), n=M, axis=1)``, in one array.
    """
    R, N = u.shape
    X = np.zeros((R, fft_len), dtype=np.complex128)
    np.subtract(u, u.mean(axis=1, keepdims=True), out=X.real[:, :N])
    return np.fft.fft(X, axis=1, out=X)


def _power(X: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(X[:, : X.shape[1] // 2 + 1]) ** 2, axis=0)


def _principal_triples(X):
    # X: (R, M) complex FFT frames; returns the mean triple product and mean
    # squared magnitude at the principal-domain points.
    R, M = X.shape
    j, k = _principal_index(M)
    jk = j + k  # j + k <= M/2 - 1: no wrap
    P = j.size
    rc = max(1, _CHUNK_POINTS // P)
    # Row 0 of each buffer carries the running frame sums; rows 1..n hold the
    # chunk's T = X_j X_k conj(X_{j+k}) and |T|^2.  Both buffers are C-ordered
    # and P >= 2 for every valid M, so the axis-0 sums add frames in order
    # r = 0, 1, ..., R-1, as a frame-by-frame loop would.  take's "clip" mode
    # writes straight into out (its default "raise" mode buffers); no index clips.
    t = np.empty((rc + 1, P), dtype=np.complex128)
    u = np.empty_like(t)
    a = np.empty(t.shape)
    s3 = np.zeros(P, dtype=np.complex128)
    msq = np.zeros(P)
    for r0 in range(0, R, rc):
        Xr = X[r0 : r0 + rc]
        n = Xr.shape[0]
        tc, uc, ac = t[1 : n + 1], u[1 : n + 1], a[1 : n + 1]
        np.take(Xr, j, axis=1, out=tc, mode="clip")
        np.take(Xr, k, axis=1, out=uc, mode="clip")
        tc *= uc
        np.take(Xr, jk, axis=1, out=uc, mode="clip")
        np.conj(uc, out=uc)
        tc *= uc
        np.abs(tc, out=ac)
        ac *= ac
        t[0] = s3
        a[0] = msq
        np.sum(t[: n + 1], axis=0, out=s3)
        np.sum(a[: n + 1], axis=0, out=msq)
    s3 /= R
    msq /= R
    return s3, msq


def _bicoherence(fft_len, K, s3, msq, power) -> tuple[BicoherenceGrid, float, int]:
    """The kept bicoherence grid, Hinich's chi-squared statistic S and its dof."""
    # s3, msq: frame means at the principal-domain points, in _principal_index order
    j, k = _principal_index(fft_len)
    den = power[j] * power[k] * power[j + k]
    # np.hypot is the scalar abs() of a complex number bit for bit (np.abs is not)
    h = np.hypot(s3.real, s3.imag)
    h2 = h * h
    # unbiased variance of one triple product around the frame mean
    var = (msq - h2) * K / (K - 1)
    # the dead-denominator floor is relative to the power grid, so rescaling
    # the ensemble keeps the same points
    keep = (den > EPS_FLOOR * power.max() ** 3) & (var > EPS_FLOOR * den) & np.isfinite(var)
    den = den[keep]
    grid = BicoherenceGrid(
        points=tuple(zip(j[keep].tolist(), k[keep].tolist())),
        values=h2[keep] / den,
        excluded=int(keep.size - np.count_nonzero(keep)),
    )
    if not grid.points:  # every point numerically dead: nothing rejects the null
        return grid, 0.0, 2 * grid.excluded
    # each point's squared bicoherence over its triple-product variance
    stat = float(np.sum(2.0 * K * grid.values / (var[keep] / den)))
    return grid, stat, 2 * len(grid.points)


def chi2_survival(x: float, dof: int) -> float:
    """Upper-tail probability of a central chi-squared variable."""
    if dof <= 0:
        raise ConfigError("degrees of freedom must be positive")
    if x < 0 or not math.isfinite(x):
        raise ConfigError("statistic must be finite and non-negative")
    if x == 0:
        return 1.0
    return _gamma_q(dof / 2.0, x / 2.0)


def _log1pmx(t: float) -> float:
    """ln(1 + t) - t for t >= -1/2, without cancellation near t = 0."""
    if t > 0.5:
        return math.log1p(t) - t
    # with u = t / (2 + t): ln(1 + t) = 2 atanh(u) = 2 (u + u^3/3 + ...) and t - 2u = u t
    u = t / (2.0 + t)
    u2 = u * u
    term, n, s = u * u2, 3, 0.0
    while s + term / n != s:
        s += term / n
        term *= u2
        n += 2
    return 2.0 * s - u * t


def _log_gamma_prefactor(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)) for x > 0."""
    if a < _STIRLING_MIN_A or x < 0.5 * a:
        # small a, or x so far below a that Q = 1 - P does not feel P's error
        return a * math.log(x) - x - math.lgamma(a)
    # a ln x - x - lgamma(a) loses about eps * a to cancellation: with x = a (1 + t)
    # and lgamma(a) split into Stirling's main part and its remainder, the large
    # terms cancel exactly
    rem = 0.0
    for c in reversed(_STIRLING):
        rem = rem / (a * a) + c
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - rem / a


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) for a > 0, x > 0."""
    prefactor = math.exp(_log_gamma_prefactor(a, x))
    if x < a + 1.0:
        # power series: P(a, x) = prefactor * sum_n x^n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        ap = a
        while term > total * _EPS:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - prefactor * total
    # Q(a, x) / prefactor as a continued fraction, by the modified Lentz method
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
    return prefactor * h


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """The values times the power of two that puts max|v| into [1/2, 1).

    ldexp scales every element exactly, subnormal ones included, so a statistic
    of the result is the same bit for bit whatever power of two the data's units
    carry, and the moments are formed at unit scale, far from underflow.
    """
    return np.ldexp(values, -math.frexp(float(np.abs(values).max()))[1])


def excess_kurtosis(ensemble: Ensemble) -> float:
    """Per-index excess kurtosis across replications, averaged over indices.

    With a single record the kurtosis is taken across time instead (input-noise
    spot checks).
    """
    v = ensemble.values
    if v.shape[0] == 1:  # a single record's samples are the replications of one index
        v = v.T
    if v.shape[0] < 4:
        raise DegenerateDataError("kurtosis needs at least 4 replications of each index")
    u = _unit_scaled(v)
    return _kurtosis(u - u.mean(axis=0, keepdims=True))


def _kurtosis(u: np.ndarray) -> float:
    # excess_kurtosis of index-centred values at unit scale; u is consumed, squared
    # in place and then squared again: u**4 would go through libm pow
    u2 = np.square(u, out=u)
    m2 = np.mean(u2, axis=0)
    if np.any(m2 == 0):
        raise DegenerateDataError("an index has zero variance across replications")
    m4 = np.mean(np.square(u2, out=u2), axis=0)
    return float(np.mean(m4 / (m2 * m2) - 3.0))


def histogram(values, bins: int) -> Histogram:
    """Uniform-bin histogram over [min, max] of the values, in their units."""
    v = np.asarray(values, dtype=np.float64).ravel()
    _validate_bins(bins)
    if v.size == 0:
        raise ConfigError("histogram needs at least one value")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:  # all identical: a unit-width range, or bins at least one ulp wide
        pad = max(0.5, bins * math.ulp(lo))
        lo, hi = lo - pad, hi + pad
    # the one magnitude limit of the battery: the edges are in data units
    if not math.isfinite(hi - lo):
        raise DegenerateDataError("histogram range max - min overflows float64")
    edges = np.linspace(lo, hi, bins + 1)
    # the offsets and the range are scaled by the power of two that puts the range
    # into [1/2, 1), so a bin width below the smallest float64 does not round to 0
    e = math.frexp(hi - lo)[1]
    width = math.ldexp(hi - lo, -e) / bins
    # right-closed bins (lo, edge_1], ...; the minimum and any rounding past the
    # ends are clipped into the end bins. One float and one int buffer, each pass in place.
    t = v - lo
    np.ldexp(t, -e, out=t)
    t /= width
    idx = np.ceil(t, out=t).astype(int)
    idx -= 1
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(edges=edges, counts=counts)


def gaussianity_report(
    ensemble: Ensemble,
    fft_len: int = REFERENCE_FFT_LEN,
    bins: int = REFERENCE_BINS,
) -> GaussianityReport:
    """Run the full battery (bicoherence test, kurtosis, histogram) on an ensemble."""
    R = ensemble.replications
    _check_setup(R, ensemble.record_length, fft_len, bins)
    # every statistic but the histogram, whose edges are in data units, reads the
    # rescaled copy, so it keeps its bits when the data are scaled by a power of two
    u = _unit_scaled(ensemble.values)
    # Remove the per-index ensemble mean: deterministic structure shared by
    # all records (e.g. residual fitting bias) is not randomness under test.
    u -= u.mean(axis=0, keepdims=True)
    X = _frames_fft(u, fft_len)
    power = _power(X)
    # the centred rms at unit scale, by Parseval (real frames hold bins 1..M/2-1 twice):
    # rounding residue reads at most about 0.13 eps sqrt(R), Gaussian data on an
    # offset of 2**20 about 2e9 eps, so below 4 eps sqrt(R) nothing else is left
    ms = (power[0] + 2.0 * power[1:-1].sum() + power[-1]) / (fft_len * ensemble.record_length)
    if math.sqrt(ms) < 4 * _EPS * math.sqrt(R):
        raise DegenerateDataError("every record is constant, or a constant plus one shape "
                                  "shared by all records: only rounding residue is left")
    # the kurtosis is the centred copy's last reader: it squares the copy in place
    # before the triple products' chunk buffers are allocated, and the copy is dropped
    kurt = _kurtosis(u)
    del u
    s3, msq = _principal_triples(X)
    del X  # the triple products are the frames' last reader; the histogram runs without them
    bicoh, stat, dof = _bicoherence(fft_len, R, s3, msq, power)
    hist = histogram(ensemble.values, bins)
    return GaussianityReport(
        statistic=stat,
        dof=dof,
        pfa=chi2_survival(stat, dof),
        avg_kurtosis=kurt,
        histogram=hist,
        bicoherence=bicoh,
        fft_len=fft_len,
        frames=R,
        replications=R,
    )
