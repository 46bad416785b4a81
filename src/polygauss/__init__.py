"""Polynomial-projection preprocessing of noisy records and Gaussianity testing
of the resulting approximation-error process."""

from .errors import (
    ConfigError,
    DegenerateDataError,
    DegenerateGridError,
    DimensionError,
    InsufficientFramesError,
    InvalidCovarianceError,
    OrderRangeError,
    PolygaussError,
    UndefinedSnrError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    FamilyResult,
    emit_report,
    run_experiment,
)
from .gaussianity import (
    BicoherenceGrid,
    Ensemble,
    GaussianityReport,
    Histogram,
    chi2_survival,
    excess_kurtosis,
    gaussianity_report,
    hinich_test,
    histogram,
    principal_domain,
    segment_record,
)
from .noise import (
    NOISE_FAMILIES,
    NoiseSpec,
    RngStream,
    SignalSpec,
    draw_noise,
    draw_noise_ensemble,
    noise_sigma,
    synth_signal,
)
from .ortho import (
    OrderSelection,
    PolynomialBasis,
    ProjectionOperator,
    SampleGrid,
    Sequence,
    build_basis,
    error_covariance,
    projection_operator,
    select_order,
    transform,
)

__version__ = "0.1.0"
