"""Hot numeric kernels, in plain numpy.

``triple_grid`` forms the frame-averaged triple products one row ``j`` at a
time over the lower triangle ``k <= j`` only, so its temporaries are
``(R, j+1)`` instead of ``(R, F, F)``.  The upper triangle is a mirror of the
lower one (selection, no arithmetic), so both returned grids are exactly
symmetric: numpy's SIMD complex multiply is not bitwise commutative, and
computing ``(k, j)`` separately would differ from ``(j, k)`` in the last bits.
"""

import numpy as np


def triple_grid(X, F):
    # X: (R, M) complex FFT frames; returns mean triple product and mean
    # squared magnitude on the F x F low-frequency grid, F = M//2 + 1.
    R, M = X.shape
    s3 = np.zeros((F, F), dtype=np.complex128)
    msq = np.zeros((F, F))
    for j in range(F):
        # Row j covers k = 0..j.  Row 0 takes one spare column: numpy drops a
        # length-1 axis and would then add the frames pairwise; with two or
        # more columns the axis-0 sums add frames in order r = 0, 1, ..., R-1.
        n = max(j, 1) + 1
        k = np.arange(n)
        T = X[:, j, None] * X[:, :n] * np.conj(X[:, (j + k) % M])
        s3[j, : j + 1] = T.sum(axis=0)[: j + 1]
        msq[j, : j + 1] = (np.abs(T) ** 2).sum(axis=0)[: j + 1]
    lower = np.tri(F, dtype=bool)
    s3 = np.where(lower, s3, s3.T)
    msq = np.where(lower, msq, msq.T)
    return s3 / R, msq / R


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
