"""Polynomial-projection preprocessing of noisy records and Gaussianity testing
of the resulting approximation-error process.

The public names and the submodules load on first use (PEP 562, as in
Scientific Python SPEC 1): ``import polygauss`` runs no layer, and
``polygauss.select_order`` loads only the modules that define it.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateDataError",
        "DegenerateGridError",
        "DimensionError",
        "InsufficientFramesError",
        "InvalidCovarianceError",
        "OrderRangeError",
        "PolygaussError",
        "UndefinedSnrError",
    ),
    "experiment": (
        "ExperimentConfig",
        "ExperimentResult",
        "FamilyResult",
        "emit_report",
        "run_experiment",
    ),
    "gaussianity": (
        "BicoherenceGrid",
        "Ensemble",
        "GaussianityReport",
        "Histogram",
        "chi2_survival",
        "excess_kurtosis",
        "gaussianity_report",
        "histogram",
        "segment_record",
    ),
    "noise": (
        "NOISE_FAMILIES",
        "NoiseSpec",
        "SignalSpec",
        "draw_noise",
        "draw_noise_ensemble",
        "noise_sigma",
        "synth_signal",
    ),
    "ortho": (
        "OrderSelection",
        "PolynomialBasis",
        "ProjectionOperator",
        "SampleGrid",
        "Sequence",
        "build_basis",
        "error_covariance",
        "projection_operator",
        "select_order",
        "transform",
    ),
}
#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "csvio"}

__all__ = sorted(_HOME)


def _submodule(name):
    # __import__, not importlib.import_module, so that -X importtime reports the layer
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
