"""Transient test-signal synthesis and zero-mean unit-variance noise families.

The test signal is a sum of damped cosines, the real part of
``sum_i b_i exp(j phi_i) exp((sigma_i + j omega_i) t)`` sampled on the grid.
Noise families are standardized so each has zero population mean and unit
population variance: standard normal; Laplacian with scale 1/sqrt(2); uniform
on [-sqrt(3), sqrt(3)]; gamma(k) shifted by -k and divided by sqrt(k).

Each family is one entry of the append-only ``_FAMILIES`` table, and
``draw_noise`` and ``draw_noise_ensemble`` share one route through it: fill
each row from its own stream, then standardize the whole array once.

Importing this module does not load ``numpy.random``; the first draw does.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, UndefinedSnrError
from .ortho import SampleGrid, Sequence

_LAPLACE_B, _SQRT3 = 1 / math.sqrt(2), math.sqrt(3)  # unit-variance Laplace scale, uniform edge
#: family -> (fill(rng, row, k) writing one row in place, finish(out, k) mapping all rows
#: in place, or None). A family's position is its stream index in ``_family_seed``
#: below, so new families go at the end and no entry ever moves. Uniform rows are
#: ``Generator.uniform``'s ``low + (high - low) * random()``, its map applied once.
_FAMILIES = {
    "gaussian": (lambda rng, row, k: rng.standard_normal(out=row), None),
    "laplacian": (lambda rng, row, k: np.copyto(row, rng.laplace(0.0, _LAPLACE_B, row.size)), None),
    "uniform": (lambda rng, row, k: rng.random(out=row),
                lambda out, k: np.add(np.multiply(out, 2 * _SQRT3, out=out), -_SQRT3, out=out)),
    "gamma": (lambda rng, row, k: rng.standard_gamma(k, out=row),
              lambda out, k: np.divide(np.subtract(out, k, out=out), math.sqrt(k), out=out)),
}
NOISE_FAMILIES = tuple(_FAMILIES)


def _family_seed(master_seed: int, family: str) -> int:
    # Family-specific master so families use disjoint substream spaces while
    # replication indices stay independent of R.
    idx = NOISE_FAMILIES.index(family)
    ss = np.random.SeedSequence((int(master_seed) & 0xFFFFFFFFFFFFFFFF, idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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


def synth_signal(spec: SignalSpec, grid: SampleGrid) -> Sequence:
    """Evaluate the damped-cosine sum on the grid (all zeros for an empty spec)."""
    t = grid.points
    g = np.zeros_like(t)
    # an overflow leaves inf or nan, which Sequence rejects as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for amp, damp, omega, phase in spec.components:
            g += amp * np.exp(damp * t) * np.cos(omega * t + phase)
    return Sequence(g, grid)


def _fill_rows(spec: NoiseSpec, generators, out: np.ndarray) -> np.ndarray:
    """Fill row ``r`` of ``out`` from generator ``r``, then map all rows in one pass."""
    fill, finish = _FAMILIES[spec.family]
    k = spec.gamma_shape
    for rng, row in zip(generators, out):
        fill(rng, row, k)
    if finish is not None:
        finish(out, k)
    return out


def draw_noise(spec: NoiseSpec, n: int, seed: int, index: int = 0) -> np.ndarray:
    """``n`` independent draws with exactly zero mean and unit variance by construction.

    They come from the stream ``np.random.default_rng((seed mod 2**64, index))``:
    the same pair always gives the same draws, and distinct indices give
    statistically independent streams.
    """
    if index < 0:
        raise ConfigError("stream index must be non-negative")
    if n < 1:
        raise ConfigError("need at least one draw")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)))
    return _fill_rows(spec, [rng], np.empty((1, n)))[0]


# numpy.random.SeedSequence hashing constants (numpy/random/bit_generator.pyx);
# NEP 19 keeps SeedSequence and PCG64 stream-stable across numpy releases.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_steps(const: int, mult: int):
    """SeedSequence's hash constants: the (xor, multiply) pair of each successive step."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor, mul = next(steps)
    value = (value ^ xor) * mul  # uint32 array products wrap modulo 2**32
    return value ^ (value >> 16)


def _seed_words(seed: int, count: int) -> np.ndarray:
    """Row ``r < count`` is ``SeedSequence((seed, r)).generate_state(4, np.uint64)``.

    ``SeedSequence`` hashes the entropy ``(seed, r)`` with constants that do not
    depend on the data, so its uint32 pool is computed for every index at once.
    """
    if count - 1 > _MASK32:
        raise ConfigError("stream indices must fit one 32-bit word")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(count, dtype=np.uint32))
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(e, steps) for e in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * _hashmix(pool[src], steps))
                pool[dst] = mixed ^ (mixed >> 16)

    # generate_state(4, np.uint64): eight words cycled from the pool, paired little-endian
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = np.stack([_hashmix(pool[i % _POOL_SIZE], steps) for i in range(8)], axis=1)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """One row's seed sequence: PCG64 seeds itself in C from ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def draw_noise_ensemble(spec: NoiseSpec, replications: int, n: int, seed: int) -> np.ndarray:
    """``(replications, n)`` draws; row ``r`` equals ``draw_noise(spec, n, seed, r)``.

    Row ``r``'s PCG64 is seeded with the words ``SeedSequence((seed, r))`` would
    give it, hashed for all rows in one pass, so it is ``default_rng((seed, r))``.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    if n < 1:
        raise ConfigError("need at least one draw")
    words = _seed_words(seed, replications)  # checks the indices before out is allocated
    # registered here, not at import, which would load numpy.random
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    generators = (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words)
    return _fill_rows(spec, generators, np.empty((replications, n)))


def noise_sigma(signal: Sequence, snr_db: float) -> float:
    """Noise standard deviation implied by the signal power and target SNR.

    The power is formed in data units, as the oracle risk of the order selection
    is, so a nonzero signal whose power underflows to 0 or overflows float64 is
    rejected as degenerate data.
    """
    if not np.any(signal.values):
        raise UndefinedSnrError("SNR undefined for an all-zero signal")
    with np.errstate(over="ignore"):
        power = float(np.mean(signal.values**2))
    if power == 0.0:
        raise DegenerateDataError("signal power underflows float64: the signal is too small")
    if power == math.inf:
        raise DegenerateDataError("signal power overflows float64: the signal is too large")
    try:
        return math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    except OverflowError:  # 10 ** 309 and up: no finite noise reaches so low an SNR
        return math.inf
