"""Hot numeric kernels, in plain numpy.

The triple product ``X_j X_k conj(X_{j+k})`` has one formula, ``_triple_row``:
the frame sums of it and of its squared magnitude over a run of ``k`` on row
``j``.  Its temporaries are ``(R, row length)``, never ``(R, F, F)``.  Two
kernels call it:

- ``triple_grid`` fills the lower triangle ``k <= j`` of the full grid that
  ``bispectrum_direct`` returns.  The upper triangle is a mirror of the lower
  one (selection, no arithmetic), so both grids are exactly symmetric: numpy's
  SIMD complex multiply is not bitwise commutative, and computing ``(k, j)``
  separately would differ from ``(j, k)`` in the last bits.
- ``principal_triples`` forms only the principal bifrequency domain that the
  bicoherence reads (``principal_rows``), as vectors in row order.  Each of its
  values is bitwise equal to the same point of ``triple_grid``.
"""

import numpy as np


def _triple_row(X, j, lo, hi):
    # Frame sums over r of T = X_j X_k conj(X_{j+k}) and of |T|^2, k = lo..hi-1.
    # A one-column run takes one spare column: numpy drops a length-1 axis and
    # would then add the frames pairwise; with two or more columns the axis-0
    # sums add frames in order r = 0, 1, ..., R-1.
    n = hi - lo
    m = max(n, 2)
    k = np.arange(lo, lo + m)
    T = X[:, j, None] * X[:, lo : lo + m] * np.conj(X[:, (j + k) % X.shape[1]])
    return T.sum(axis=0)[:n], (np.abs(T) ** 2).sum(axis=0)[:n]


def triple_grid(X, F):
    # X: (R, M) complex FFT frames; returns mean triple product and mean
    # squared magnitude on the F x F low-frequency grid, F = M//2 + 1.
    R = X.shape[0]
    s3 = np.zeros((F, F), dtype=np.complex128)
    msq = np.zeros((F, F))
    for j in range(F):
        s3[j, : j + 1], msq[j, : j + 1] = _triple_row(X, j, 0, j + 1)
    lower = np.tri(F, dtype=bool)
    s3 = np.where(lower, s3, s3.T)
    msq = np.where(lower, msq, msq.T)
    return s3 / R, msq / R


def principal_rows(M):
    """Rows of the principal domain 1 <= k <= j, j + k <= M/2 - 1: ``j`` and its last ``k``."""
    half = M // 2
    j = np.arange(1, half - 1)
    return j, np.minimum(j, half - 1 - j)


def principal_triples(X):
    # X: (R, M) complex FFT frames; returns the mean triple product and mean
    # squared magnitude at the principal-domain points, row by row.
    R, M = X.shape
    rows, widths = principal_rows(M)
    s3 = np.empty(int(widths.sum()), dtype=np.complex128)
    msq = np.empty(s3.size)
    at = 0
    for j, w in zip(rows.tolist(), widths.tolist()):
        s3[at : at + w], msq[at : at + w] = _triple_row(X, j, 1, w + 1)
        at += w
    s3 /= R
    msq /= R
    return s3, msq


def gram_recurrence(t, J):
    N = t.shape[0]
    P = np.zeros((J, N))
    q = np.zeros(J)
    a = np.zeros(J)
    b = np.zeros(J)
    P[0] = 1.0
    q[0] = float(N)
    for j in range(J - 1):
        if q[j] <= 0.0:  # underflowed basis; caller rejects the zero norms
            break
        a[j] = np.dot(t, P[j] * P[j]) / q[j]
        if j > 0:
            b[j] = q[j] / q[j - 1]
            P[j + 1] = (t - a[j]) * P[j] - b[j] * P[j - 1]
        else:
            P[j + 1] = (t - a[j]) * P[j]
        q[j + 1] = np.dot(P[j + 1], P[j + 1])
    return P, q, a, b
