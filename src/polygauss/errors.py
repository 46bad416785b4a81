"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: configuration problems exit 1,
statistically degenerate data exits 2, I/O failures exit 3.
"""


class PolygaussError(Exception):
    """Base class for all package errors."""


class ConfigError(PolygaussError):
    """Invalid parameter or flag combination (exit code 1)."""


class OrderRangeError(ConfigError):
    """Requested polynomial order outside [1, N]."""


class DimensionError(ConfigError):
    """Array length does not match the sample grid."""


class InvalidCovarianceError(ConfigError):
    """Noise covariance matrix is not symmetric PSD."""


class UndefinedSnrError(ConfigError):
    """SNR scaling requested against an all-zero signal."""


class DegenerateGridError(PolygaussError):
    """Sample grid numerically degenerate: polynomial norms underflow (exit code 2)."""


class DegenerateDataError(PolygaussError):
    """Data carries no usable variability (exit code 2)."""


class InsufficientFramesError(DegenerateDataError):
    """Too few records/frames for a meaningful spectral statistic."""
