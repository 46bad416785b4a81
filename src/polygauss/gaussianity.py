"""Higher-order-spectrum Gaussianity testing for ensembles of short records.

The test battery follows the classic bicoherence route: per-record FFTs, a
frame-averaged triple-product bispectrum estimate, squared bicoherence over
the principal bifrequency domain, and a chi-squared statistic whose survival
probability (PFA) is high when Gaussianity cannot be rejected.  Average excess
kurtosis and histograms complete the battery.

Each bifrequency point is normalized by the empirical variance of its triple
products across frames rather than by the raw power-spectrum product.  The two
coincide asymptotically for white Gaussian input, but the empirical normalizer
also absorbs the doubled variance on the diagonal j == k and the cross-bin
correlation of strongly colored processes, keeping the chi-squared null
calibration honest in every case the battery is used for.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConfigError,
    DegenerateDataError,
    DimensionError,
    InsufficientFramesError,
    LagError,
)
from .ortho import SampleGrid

EPS_FLOOR = 1e-30
MIN_FRAMES = 8
#: DFT length M and histogram bin count of the reference study
REFERENCE_FFT_LEN, REFERENCE_BINS = 64, 20


@dataclass(frozen=True)
class Ensemble:
    """R independent realizations of a length-N real process."""

    values: np.ndarray  # (R, N)
    grid: SampleGrid | None = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise ConfigError("ensemble must be a non-empty R x N table")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("ensemble values must be finite")
        if self.grid is not None and vals.shape[1] != self.grid.count:
            raise DimensionError("record length does not match grid count")

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


def principal_domain(fft_len: int) -> list[tuple[int, int]]:
    """Non-redundant bifrequency pairs: 1 <= k <= j, j + k <= M/2 - 1."""
    half = fft_len // 2
    return [(j, k) for j in range(1, half) for k in range(1, j + 1) if j + k <= half - 1]


@dataclass(frozen=True)
class BispectrumEstimate:
    fft_len: int
    frames: int
    # Both grids are exactly symmetric: the kernel computes the lower triangle
    # (k <= j) and mirrors it onto the upper one.
    s3: np.ndarray          # (M/2+1, M/2+1) complex mean X_j X_k conj(X_{j+k})
    triple_msq: np.ndarray  # mean |X_j X_k conj(X_{j+k})|^2 on the same grid


@dataclass(frozen=True)
class BicoherenceGrid:
    fft_len: int
    frames: int
    points: tuple            # kept principal-domain pairs (j, k)
    values: np.ndarray       # squared bicoherence per kept point
    normalizer: np.ndarray   # per-point triple-product variance over P_j P_k P_{j+k}
    excluded: int            # principal-domain points dropped for dead denominators


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def _validate_fft_len(fft_len: int) -> None:
    if fft_len % 2 != 0 or fft_len < 8:
        raise ConfigError("FFT length must be even and at least 8")


def _frames_fft(ensemble: Ensemble, fft_len: int, center_ensemble: bool) -> np.ndarray:
    _validate_fft_len(fft_len)
    if ensemble.record_length > fft_len:
        raise ConfigError("records longer than the FFT length")
    if ensemble.replications < MIN_FRAMES:
        raise InsufficientFramesError(
            f"need at least {MIN_FRAMES} records, got {ensemble.replications}"
        )
    v = ensemble.values
    if center_ensemble:
        # Remove the per-index ensemble mean: deterministic structure shared by
        # all records (e.g. residual fitting bias) is not randomness under test.
        v = v - v.mean(axis=0, keepdims=True)
    v = v - v.mean(axis=1, keepdims=True)
    return np.fft.fft(v, n=fft_len, axis=1)


def third_cumulant(ensemble: Ensemble, k1: int, k2: int) -> float:
    """Average of u[n] u[n+k1] u[n+k2] over valid n per mean-removed record, then records."""
    N = ensemble.record_length
    if abs(k1) >= N or abs(k2) >= N:
        raise LagError(f"lags ({k1}, {k2}) out of range for record length {N}")
    lo = max(0, -k1, -k2)
    hi = N - 1 - max(0, k1, k2)
    if hi < lo:
        raise LagError(f"lags ({k1}, {k2}) leave no valid samples")
    v = ensemble.values - ensemble.values.mean(axis=1, keepdims=True)
    span = np.arange(lo, hi + 1)
    prods = v[:, span] * v[:, span + k1] * v[:, span + k2]
    return float(prods.mean(axis=1).mean())


def _bispectrum(X: np.ndarray) -> BispectrumEstimate:
    R, M = X.shape
    s3, msq = _kernels.triple_grid(X, M // 2 + 1)
    return BispectrumEstimate(fft_len=M, frames=R, s3=s3, triple_msq=msq)


def _power(X: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(X[:, : X.shape[1] // 2 + 1]) ** 2, axis=0)


def bispectrum_direct(
    ensemble: Ensemble, fft_len: int, center_ensemble: bool = True
) -> BispectrumEstimate:
    """Frame-averaged triple-product bispectrum, one frame per record."""
    return _bispectrum(_frames_fft(ensemble, fft_len, center_ensemble))


def power_spectrum(
    ensemble: Ensemble, fft_len: int, center_ensemble: bool = True
) -> np.ndarray:
    """Frame-averaged |X(j)|^2 on bins 0..M/2, same framing as the bispectrum."""
    return _power(_frames_fft(ensemble, fft_len, center_ensemble))


def bicoherence(bisp: BispectrumEstimate, power: np.ndarray) -> BicoherenceGrid:
    """Squared bicoherence with per-point variance normalizers on the principal domain."""
    power = np.asarray(power, dtype=np.float64)
    if power.shape != (bisp.fft_len // 2 + 1,):
        raise DimensionError("power grid length does not match the bispectrum FFT length")
    K = bisp.frames
    kept, vals, norms = [], [], []
    excluded = 0
    for j, k in principal_domain(bisp.fft_len):
        den = power[j] * power[k] * power[j + k]
        s3 = bisp.s3[j, k]
        # unbiased variance of one triple product around the frame mean
        var = (bisp.triple_msq[j, k] - abs(s3) ** 2) * K / (K - 1)
        if den < EPS_FLOOR or var <= EPS_FLOOR * den or not math.isfinite(var):
            excluded += 1
            continue
        kept.append((j, k))
        vals.append(abs(s3) ** 2 / den)
        norms.append(var / den)
    return BicoherenceGrid(
        fft_len=bisp.fft_len,
        frames=K,
        points=tuple(kept),
        values=np.asarray(vals),
        normalizer=np.asarray(norms),
        excluded=excluded,
    )


def hinich_test(bicoh: BicoherenceGrid, frames: int) -> tuple[float, int, float]:
    """Chi-squared Gaussianity statistic, its degrees of freedom, and the PFA."""
    if frames < MIN_FRAMES:
        raise InsufficientFramesError(f"need at least {MIN_FRAMES} frames")
    if not principal_domain(bicoh.fft_len):
        raise ConfigError("principal domain is empty; FFT length too small")
    n_pts = len(bicoh.points)
    if n_pts == 0:  # every point numerically dead: nothing rejects the null
        return 0.0, 2 * bicoh.excluded, 1.0
    dof = 2 * n_pts
    stat = float(np.sum(2.0 * frames * bicoh.values / bicoh.normalizer))
    return stat, dof, chi2_survival(stat, dof)


def chi2_survival(x: float, dof: int) -> float:
    """Upper-tail probability of a central chi-squared variable."""
    if dof <= 0:
        raise ConfigError("degrees of freedom must be positive")
    if x < 0 or not math.isfinite(x):
        raise ConfigError("statistic must be finite and non-negative")
    from scipy.special import gammaincc  # deferred: scipy.special dominates import time

    return float(gammaincc(dof / 2.0, x / 2.0))


def excess_kurtosis(ensemble: Ensemble) -> float:
    """Per-index excess kurtosis across replications, averaged over indices.

    With a single record the kurtosis is taken across time instead (input-noise
    spot checks).
    """
    v = ensemble.values
    R = ensemble.replications
    if R == 1:
        u = v[0] - v[0].mean()
        m2 = np.mean(u**2)
        if m2 == 0:
            raise DegenerateDataError("record has zero variance")
        return float(np.mean(u**4) / m2**2 - 3.0)
    if R < 4:
        raise DegenerateDataError("per-index kurtosis needs at least 4 replications")
    u = v - v.mean(axis=0, keepdims=True)
    m2 = np.mean(u**2, axis=0)
    if np.any(m2 == 0):
        raise DegenerateDataError("an index has zero variance across replications")
    m4 = np.mean(u**4, axis=0)
    return float(np.mean(m4 / m2**2 - 3.0))


def histogram(values, bins: int, value_range: tuple[float, float] | None = None) -> Histogram:
    """Uniform-bin histogram; out-of-range values are clipped into the end bins."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if bins < 1:
        raise ConfigError("need at least one bin")
    if v.size == 0:
        raise ConfigError("histogram needs at least one value")
    if value_range is None:
        lo, hi = float(v.min()), float(v.max())
        if lo == hi:  # all identical: a single occupied unit-width bin range
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
        if lo >= hi:
            raise ConfigError("histogram range must have lo < hi")
    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins
    # right-closed bins (lo, edge_1], ..., with clipping into the end bins
    idx = np.ceil((v - lo) / width).astype(int) - 1
    idx = np.clip(idx, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(edges=edges, counts=counts)


def gaussianity_report(
    ensemble: Ensemble,
    fft_len: int = REFERENCE_FFT_LEN,
    bins: int = REFERENCE_BINS,
) -> GaussianityReport:
    """Run the full battery (bicoherence test, kurtosis, histogram) on an ensemble."""
    if np.all(ensemble.values == ensemble.values.flat[0]):
        raise DegenerateDataError("ensemble is constant")
    X = _frames_fft(ensemble, fft_len, center_ensemble=True)
    bicoh = bicoherence(_bispectrum(X), _power(X))
    stat, dof, pfa = hinich_test(bicoh, ensemble.replications)
    kurt = excess_kurtosis(ensemble)
    hist = histogram(ensemble.values, bins)
    return GaussianityReport(
        statistic=stat,
        dof=dof,
        pfa=pfa,
        avg_kurtosis=kurt,
        histogram=hist,
        bicoherence=bicoh,
        fft_len=fft_len,
        frames=ensemble.replications,
        replications=ensemble.replications,
    )
