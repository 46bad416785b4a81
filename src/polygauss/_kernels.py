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
    # a_j, b_j and q_j are held as Python floats and each new row is formed in
    # place in P with one length-N scratch buffer; the operations and their
    # order are those of (t - a_j) * p_j - b_j * p_{j-1}, so every bit is too
    N = t.shape[0]
    P = np.zeros((J, N))
    q = [0.0] * J
    a = [0.0] * J
    b = [0.0] * J
    P[0] = 1.0
    q[0] = qj = float(N)
    rows = list(P)
    s = np.empty(N)
    for j in range(J - 1):
        if qj <= 0.0:  # underflowed basis; caller rejects the zero norms
            break
        pj, nxt = rows[j], rows[j + 1]
        np.multiply(pj, pj, s)
        a[j] = aj = float(t.dot(s)) / qj
        np.subtract(t, aj, nxt)
        np.multiply(nxt, pj, nxt)
        if j > 0:
            b[j] = bj = qj / q[j - 1]
            np.multiply(rows[j - 1], bj, s)
            np.subtract(nxt, s, nxt)
        q[j + 1] = qj = float(nxt.dot(nxt))
    return P, np.array(q), np.array(a), np.array(b)
