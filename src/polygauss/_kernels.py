"""Hot numeric kernels, in plain numpy.

``principal_triples`` forms the frame means of the triple product
``X_j X_k conj(X_{j+k})`` and of its squared magnitude at the points of the
principal bifrequency domain that the bicoherence reads (``principal_rows``).
It works one row ``j`` at a time, so its temporaries are ``(R, row length)``,
never ``(R, F, F)``.  ``gram_recurrence`` runs the three-term recurrence of the
discrete orthogonal polynomials.
"""

import numpy as np


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
        # Frame sums over r of T = X_j X_k conj(X_{j+k}) and of |T|^2, k = 1..w.
        # A one-column row takes one spare column: numpy drops a length-1 axis and
        # would then add the frames pairwise; with two or more columns the axis-0
        # sums add frames in order r = 0, 1, ..., R-1.  j + m <= M/2, so the
        # columns j + k need no wrap.
        m = max(w, 2)
        T = X[:, j, None] * X[:, 1 : m + 1] * np.conj(X[:, j + 1 : j + m + 1])
        s3[at : at + w] = T.sum(axis=0)[:w]
        msq[at : at + w] = (np.abs(T) ** 2).sum(axis=0)[:w]
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
