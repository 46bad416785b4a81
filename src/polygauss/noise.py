"""Transient test-signal synthesis and zero-mean unit-variance noise families.

The test signal is a sum of damped cosines, the real part of
``sum_i b_i exp(j phi_i) exp((sigma_i + j omega_i) t)`` sampled on the grid.
Noise families are standardized so each has zero population mean and unit
population variance: standard normal; Laplacian with scale 1/sqrt(2); uniform
on [-sqrt(3), sqrt(3)]; gamma(k) shifted by -k and divided by sqrt(k).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UndefinedSnrError
from .ortho import SampleGrid, Sequence

NOISE_FAMILIES = ("gaussian", "laplacian", "uniform", "gamma")

#: amplitude, damping (1/time), angular frequency (rad/time), phase (rad)
#: of the reference three-component transient used throughout the test study.
REFERENCE_SIGNAL_COMPONENTS = (
    (1.0, -0.2, 2.0, 0.0),
    (0.5, -0.1, 4.0, math.pi / 4),
    (0.5, -0.3, 1.0, math.pi / 6),
)


@dataclass(frozen=True)
class SignalSpec:
    """Damped-cosine components (amplitude, damping, angular_freq, phase)."""

    components: tuple = ()

    def __post_init__(self):
        comps = tuple(tuple(float(v) for v in c) for c in self.components)
        for c in comps:
            if len(c) != 4:
                raise ConfigError("each component is (amplitude, damping, omega, phase)")
            if not all(math.isfinite(v) for v in c):
                raise ConfigError("signal parameters must be finite")
        object.__setattr__(self, "components", comps)

    @classmethod
    def reference(cls) -> "SignalSpec":
        return cls(REFERENCE_SIGNAL_COMPONENTS)


@dataclass(frozen=True)
class NoiseSpec:
    family: str
    gamma_shape: float = 9.0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ConfigError(f"unknown noise family {self.family!r}; "
                              f"expected one of {NOISE_FAMILIES}")
        if not 0 < self.gamma_shape < math.inf:
            raise ConfigError(f"gamma shape must be positive and finite, got {self.gamma_shape}")


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream addressed by (seed, index).

    The same pair always reproduces the same draw sequence; distinct indices
    give statistically independent streams.  A stream is single-consumer.
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ConfigError("stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((int(self.seed) & 0xFFFFFFFFFFFFFFFF, int(self.index)))


def synth_signal(spec: SignalSpec, grid: SampleGrid) -> Sequence:
    """Evaluate the damped-cosine sum on the grid (all zeros for an empty spec)."""
    t = grid.points
    g = np.zeros_like(t)
    for amp, damp, omega, phase in spec.components:
        g += amp * np.exp(damp * t) * np.cos(omega * t + phase)
    return Sequence(g, grid)


def draw_noise(spec: NoiseSpec, n: int, stream: RngStream) -> np.ndarray:
    """``n`` independent draws with exactly zero mean and unit variance by construction."""
    if n < 1:
        raise ConfigError("need at least one draw")
    rng = stream.generator()
    if spec.family == "gaussian":
        return rng.standard_normal(n)
    if spec.family == "laplacian":
        return rng.laplace(loc=0.0, scale=1.0 / math.sqrt(2.0), size=n)
    if spec.family == "uniform":
        r = math.sqrt(3.0)
        return rng.uniform(-r, r, size=n)
    # gamma: unit scale, exact-mean shift, variance k -> divide by sqrt(k)
    k = spec.gamma_shape
    return (rng.gamma(shape=k, scale=1.0, size=n) - k) / math.sqrt(k)


def noise_sigma(signal: Sequence, snr_db: float) -> float:
    """Noise standard deviation implied by the signal power and target SNR."""
    power = float(np.mean(signal.values**2))
    if power == 0.0:
        raise UndefinedSnrError("SNR undefined for an all-zero signal")
    return math.sqrt(power * 10.0 ** (-snr_db / 10.0))


def scale_to_snr(noise: np.ndarray, signal: Sequence, snr_db: float) -> np.ndarray:
    """Scale unit-variance noise so mean signal power over noise variance hits ``snr_db``."""
    return np.asarray(noise, dtype=np.float64) * noise_sigma(signal, snr_db)


def make_observation(signal: Sequence, scaled_noise: np.ndarray) -> Sequence:
    """Elementwise sum of the clean signal and the scaled noise record."""
    w = np.asarray(scaled_noise, dtype=np.float64)
    if w.shape != signal.values.shape:
        raise DimensionError("signal and noise lengths differ")
    return Sequence(signal.values + w, signal.grid)
