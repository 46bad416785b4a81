"""Reference implementations that more than one test module compares against."""

import numpy as np
import pytest


def _sequential_triple_grid(X, F):
    # the full (R, F, F) product X_j X_k conj(X_{j+k}) on the F x F low-frequency
    # grid, added up one frame at a time in frame order; returns the frame means
    # of it and of its squared magnitude
    R, M = X.shape
    idx = (np.arange(F)[:, None] + np.arange(F)[None, :]) % M
    T = X[:, :F, None] * X[:, None, :F] * np.conj(X[:, idx])
    s3 = np.zeros((F, F), dtype=np.complex128)
    msq = np.zeros((F, F))
    for r in range(R):
        s3 += T[r]
        msq += np.abs(T[r]) ** 2
    return s3 / R, msq / R


@pytest.fixture(scope="session")
def sequential_triple_grid():
    """The full triple-product grid: the reference that pins ``principal_triples``."""
    return _sequential_triple_grid
