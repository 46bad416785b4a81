"""Reference implementations and fixtures that more than one test module uses."""

import os
import sys

import numpy as np
import pytest

import polygauss


def src_env():
    """The environment for a fresh interpreter that imports the package under test.

    The directory that holds the imported ``polygauss`` goes first on
    ``PYTHONPATH``, so a subprocess finds it from a plain checkout too.
    """
    src = os.path.dirname(os.path.dirname(polygauss.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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


def _stepwise_gram_recurrence(t, J):
    # the three-term recurrence with every row formed as one expression, its
    # coefficients held in the output arrays
    N = t.shape[0]
    P = np.zeros((J, N))
    q = np.zeros(J)
    a = np.zeros(J)
    b = np.zeros(J)
    P[0] = 1.0
    q[0] = float(N)
    for j in range(J - 1):
        if q[j] <= 0.0:
            break
        a[j] = np.dot(t, P[j] * P[j]) / q[j]
        if j > 0:
            b[j] = q[j] / q[j - 1]
            P[j + 1] = (t - a[j]) * P[j] - b[j] * P[j - 1]
        else:
            P[j + 1] = (t - a[j]) * P[j]
        q[j + 1] = np.dot(P[j + 1], P[j + 1])
    return P, q, a, b


@pytest.fixture(scope="session")
def stepwise_gram_recurrence():
    """The recurrence one row expression at a time: the reference for ``ortho._gram_recurrence``."""
    return _stepwise_gram_recurrence


@pytest.fixture(scope="session")
def sequential_triple_grid():
    """The full triple-product grid: the reference for ``gaussianity._principal_triples``."""
    return _sequential_triple_grid


@pytest.fixture
def basis_builds(monkeypatch):
    """The order of every ``build_basis`` call, through whichever module's name it is made."""
    from polygauss import ortho

    builds = []
    build_basis = ortho.build_basis

    def counted(grid, order):
        builds.append(order)
        return build_basis(grid, order)

    for name, module in list(sys.modules.items()):
        if name.startswith("polygauss") and vars(module).get("build_basis") is build_basis:
            monkeypatch.setattr(module, "build_basis", counted)
    return builds
