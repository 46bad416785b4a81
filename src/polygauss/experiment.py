"""Monte Carlo harness: synthesize, corrupt, transform, and test per noise family.

For each requested family the harness draws R noise records from per-replication
substreams, scales them to the target SNR, forms observations x = g + w,
projects them onto the polynomial subspace, separates the error e = y - g, and
runs the Gaussianity battery on both the input noise and the output error.
Everything is a pure function of the configuration, so identical configs give
byte-identical reports.
"""

import math
import os
from dataclasses import dataclass, field

from .csvio import write_json, write_report_tables
from .errors import ConfigError, DegenerateDataError, PolygaussError
from .gaussianity import (
    REFERENCE_BINS,
    REFERENCE_FFT_LEN,
    Ensemble,
    GaussianityReport,
    _check_setup,
    gaussianity_report,
)
from .noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    SignalSpec,
    _family_seed,
    draw_noise_ensemble,
    noise_sigma,
    synth_signal,
)
from .ortho import OrderSelection, SampleGrid, coefficients, select_order

#: candidate approximation orders; the oracle risk picks one per study
ORDER_RANGE = range(1, 4)
#: record length N and sample spacing T of the reference study
REFERENCE_N, REFERENCE_DT = 60, 0.15


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo study; every setup field defaults to the reference study."""

    replications: int
    seed: int
    grid: SampleGrid = field(default_factory=lambda: SampleGrid.uniform(REFERENCE_N, REFERENCE_DT))
    signal: SignalSpec = field(default_factory=SignalSpec.reference)
    snr_db: float = 10.0
    families: tuple = NOISE_FAMILIES
    gamma_shape: float = NoiseSpec.gamma_shape
    fft_len: int = REFERENCE_FFT_LEN
    bins: int = REFERENCE_BINS

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if not self.families:
            raise ConfigError("at least one noise family is required")
        object.__setattr__(self, "families", tuple(self.families))
        for fam in self.families:  # rejects unknown families and bad shapes before any draw
            NoiseSpec(fam, self.gamma_shape)
        if len(set(self.families)) != len(self.families):
            # one report per family: a repeat would overwrite its files and summary entry
            raise ConfigError(f"noise families must be distinct, got {list(self.families)}")
        if self.grid.count < ORDER_RANGE[-1]:
            raise ConfigError(f"the grid needs at least {ORDER_RANGE[-1]} points")
        # an SNR of +-inf is a setting whose zero or infinite noise run_experiment rejects
        # as degenerate data; nan is no setting at all
        if math.isnan(self.snr_db):
            raise ConfigError("the SNR in dB must be a number, got nan")
        # each report's setup, so no family is drawn before a report would reject it
        _check_setup(self.replications, self.grid.count, self.fft_len, self.bins)

    @classmethod
    def reference(cls, replications: int, seed: int, **setup) -> "ExperimentConfig":
        """The reference study, with any ``setup`` field overridden; same as the constructor."""
        return cls(replications, seed, **setup)


@dataclass(frozen=True)
class FamilyResult:
    family: str
    input_report: GaussianityReport
    output_report: GaussianityReport


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    selection: OrderSelection  # the study's one order choice, shared by every family
    families: tuple  # FamilyResult in request order


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    grid = config.grid
    N = grid.count
    g = synth_signal(config.signal, grid)
    sigma = noise_sigma(g, config.snr_db)
    if not (math.isfinite(sigma) and sigma > 0):
        raise DegenerateDataError("noise variance implied by the SNR is zero or non-finite")

    selection = select_order(grid, "oracle", ORDER_RANGE, signal=g, noise_var=sigma**2)
    if selection.chosen == 1:  # the report's record and index centring remove both parts
        raise DegenerateDataError(f"the oracle risk picks J=1 at {config.snr_db:g} dB: the output "
                                  "error is a constant per record minus the signal, so only "
                                  "rounding residue is left to test")
    basis = selection.basis

    results = []
    for family in config.families:
        spec = NoiseSpec(family=family, gamma_shape=config.gamma_shape)
        fam_seed = _family_seed(config.seed, family)
        W = draw_noise_ensemble(spec, config.replications, N, fam_seed)
        W *= sigma
        E = coefficients(basis, W + g.values) @ basis.values
        E -= g.values
        try:
            inp = gaussianity_report(Ensemble(W), config.fft_len, config.bins)
            out = gaussianity_report(Ensemble(E), config.fft_len, config.bins)
        except PolygaussError as exc:
            raise type(exc)(f"family {family!r}: {exc}") from exc
        results.append(FamilyResult(family=family, input_report=inp, output_report=out))
    return ExperimentResult(config=config, selection=selection, families=tuple(results))


def emit_report(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write the JSON summary plus per-family figure-data CSVs; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.json")
    written = [summary_path]
    summary = []
    for fam in result.families:
        summary.append({
            "family": fam.family,
            "J": result.selection.chosen,
            "risk_curve": [[j, r] for j, r in result.selection.risk_curve],
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
        written += write_report_tables(base + "_input_", fam.input_report)
        written += write_report_tables(base + "_output_", fam.output_report)
    write_json(summary_path, summary)
    return written
