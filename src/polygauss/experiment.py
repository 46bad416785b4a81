"""Monte Carlo harness: synthesize, corrupt, transform, and test per noise family.

For each requested family the harness draws R noise records from per-replication
substreams, scales them to the target SNR, forms observations x = g + w,
projects them onto the polynomial subspace, separates the error e = y - g, and
runs the Gaussianity battery on both the input noise and the output error.
Everything is a pure function of the configuration, so identical configs give
byte-identical reports.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .gaussianity import Ensemble, GaussianityReport, gaussianity_report
from .noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    RngStream,
    SignalSpec,
    draw_noise,
    noise_sigma,
    synth_signal,
)
from .ortho import (
    OrderSelection,
    SampleGrid,
    Sequence,
    _fit,
    build_basis,
    select_order,
)

#: candidate approximation orders; the oracle risk picks one per study
ORDER_RANGE = range(1, 4)


@dataclass(frozen=True)
class ExperimentConfig:
    grid: SampleGrid
    signal: SignalSpec
    snr_db: float
    families: tuple
    replications: int
    seed: int
    gamma_shape: float = 9.0
    fft_len: int = 64
    bins: int = 20

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if not self.families:
            raise ConfigError("at least one noise family is required")
        for fam in self.families:
            if fam not in NOISE_FAMILIES:
                raise ConfigError(f"unknown noise family {fam!r}")
        if self.grid.count < ORDER_RANGE[-1]:
            raise ConfigError(f"the grid needs at least {ORDER_RANGE[-1]} points")

    @classmethod
    def reference(cls, replications: int, seed: int, families=NOISE_FAMILIES,
                  gamma_shape: float = 9.0) -> "ExperimentConfig":
        """The canonical study setup: N=60, T=0.15, 10 dB SNR, all four families."""
        return cls(
            grid=SampleGrid.uniform(60, 0.15),
            signal=SignalSpec.reference(),
            snr_db=10.0,
            families=tuple(families),
            replications=replications,
            seed=seed,
            gamma_shape=gamma_shape,
        )


@dataclass(frozen=True)
class FamilyResult:
    family: str
    selection: OrderSelection
    input_report: GaussianityReport
    output_report: GaussianityReport


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    families: tuple = field(default_factory=tuple)  # FamilyResult in request order


def derive_stream(master_seed: int, index: int) -> RngStream:
    """Deterministic independent substream for one replication."""
    return RngStream(seed=master_seed, index=index)


def _family_seed(master_seed: int, family: str) -> int:
    # Family-specific master so families use disjoint substream spaces while
    # replication indices stay independent of R.
    idx = NOISE_FAMILIES.index(family)
    ss = np.random.SeedSequence((int(master_seed) & 0xFFFFFFFFFFFFFFFF, idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    grid = config.grid
    N = grid.count
    g = synth_signal(config.signal, grid)
    sigma = noise_sigma(g, config.snr_db)
    if not (math.isfinite(sigma) and sigma > 0):
        raise DegenerateDataError("noise variance implied by the SNR is zero or non-finite")

    selection = select_order(grid, "oracle", ORDER_RANGE, signal=g, noise_var=sigma**2)
    basis = build_basis(grid, selection.chosen)

    results = []
    for family in config.families:
        spec = NoiseSpec(family=family, gamma_shape=config.gamma_shape)
        fam_seed = _family_seed(config.seed, family)
        W = np.empty((config.replications, N))
        for r in range(config.replications):
            W[r] = draw_noise(spec, N, derive_stream(fam_seed, r)) * sigma
        E = _fit(basis.values, basis.norms, W + g.values) - g.values
        try:
            inp = gaussianity_report(Ensemble(W, grid), config.fft_len, config.bins)
            out = gaussianity_report(Ensemble(E, grid), config.fft_len, config.bins)
        except Exception as exc:
            raise type(exc)(f"family {family!r}: {exc}") from exc
        results.append(FamilyResult(family=family, selection=selection,
                                    input_report=inp, output_report=out))
    return ExperimentResult(config=config, families=tuple(results))


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and the already formatted ``rows`` as newline-terminated lines."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_sequence_csv(path: str, seq: Sequence) -> None:
    _write_csv(path, "index,time,value", (
        f"{i},{_fmt(t)},{_fmt(v)}" for i, (t, v) in enumerate(zip(seq.grid.points, seq.values))))


def _write_histogram_csv(path: str, hist) -> None:
    edges = hist.edges
    _write_csv(path, "bin_left,bin_right,count", (
        f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}" for i, c in enumerate(hist.counts)))


def _write_bicoherence_csv(path: str, bicoh) -> None:
    _write_csv(path, "j,k,bicoherence_sq", (
        f"{j},{k},{_fmt(val)}" for (j, k), val in zip(bicoh.points, bicoh.values)))


def emit_report(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write the JSON summary plus per-family figure-data CSVs; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary = []
    for fam in result.families:
        summary.append({
            "family": fam.family,
            "J": fam.selection.chosen,
            "risk_curve": [[j, r] for j, r in fam.selection.risk_curve],
            "pfa_input": fam.input_report.pfa,
            "pfa_output": fam.output_report.pfa,
            "kurt_input": fam.input_report.avg_kurtosis,
            "kurt_output": fam.output_report.avg_kurtosis,
            "S_input": fam.input_report.statistic,
            "S_output": fam.output_report.statistic,
            "dof": fam.output_report.dof,
            "M": result.config.fft_len,
            "R": result.config.replications,
            "seed": result.config.seed,
        })
        base = os.path.join(out_dir, fam.family)
        pairs = [
            (base + "_input_histogram.csv", fam.input_report.histogram, _write_histogram_csv),
            (base + "_output_histogram.csv", fam.output_report.histogram, _write_histogram_csv),
            (base + "_input_bicoherence.csv", fam.input_report.bicoherence, _write_bicoherence_csv),
            (base + "_output_bicoherence.csv", fam.output_report.bicoherence, _write_bicoherence_csv),
        ]
        for path, payload, writer in pairs:
            writer(path, payload)
            written.append(path)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.insert(0, summary_path)
    return written
