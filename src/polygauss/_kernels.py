"""Hot numeric kernels, in plain numpy.

``principal_triples`` forms the frame means of the triple product
``X_j X_k conj(X_{j+k})`` and of its squared magnitude at the points of the
principal bifrequency domain that the bicoherence reads (``principal_index``).
It gathers every point at once, one chunk of frames at a time, so its
temporaries are one chunk of about 256 KB, never ``(R, F, F)``.
``gram_recurrence`` runs the three-term recurrence of the discrete orthogonal
polynomials and returns their values and squared norms.
"""

import numpy as np

# complex triple products per frame chunk: 16384 * 16 B = 256 KB stays in L2
_CHUNK_POINTS = 16384


def principal_index(M):
    """``(j, k)`` of the principal domain 1 <= k <= j, j + k <= M/2 - 1, row ``j`` by row."""
    half = M // 2
    rows = np.arange(1, half - 1)
    widths = np.minimum(rows, half - 1 - rows)
    j = np.repeat(rows, widths)
    starts = np.cumsum(widths) - widths
    return j, np.arange(j.size) - np.repeat(starts, widths) + 1


def principal_triples(X):
    # X: (R, M) complex FFT frames; returns the mean triple product and mean
    # squared magnitude at the principal-domain points.
    R, M = X.shape
    j, k = principal_index(M)
    jk = j + k  # j + k <= M/2 - 1: no wrap
    P = j.size
    rc = max(1, _CHUNK_POINTS // P)
    # Row 0 of each buffer carries the running frame sums; rows 1..n hold the
    # chunk's T = X_j X_k conj(X_{j+k}) and |T|^2.  Both buffers are C-ordered
    # and P >= 2 for every valid M, so the axis-0 sums add frames in order
    # r = 0, 1, ..., R-1, as a frame-by-frame loop would.  take's "clip" mode
    # writes straight into out (its default "raise" mode buffers); no index clips.
    t = np.empty((rc + 1, P), dtype=np.complex128)
    u = np.empty_like(t)
    a = np.empty(t.shape)
    s3 = np.zeros(P, dtype=np.complex128)
    msq = np.zeros(P)
    for r0 in range(0, R, rc):
        Xr = X[r0 : r0 + rc]
        n = Xr.shape[0]
        tc, uc, ac = t[1 : n + 1], u[1 : n + 1], a[1 : n + 1]
        np.take(Xr, j, axis=1, out=tc, mode="clip")
        np.take(Xr, k, axis=1, out=uc, mode="clip")
        tc *= uc
        np.take(Xr, jk, axis=1, out=uc, mode="clip")
        np.conj(uc, out=uc)
        tc *= uc
        np.abs(tc, out=ac)
        ac *= ac
        t[0] = s3
        a[0] = msq
        np.sum(t[: n + 1], axis=0, out=s3)
        np.sum(a[: n + 1], axis=0, out=msq)
    s3 /= R
    msq /= R
    return s3, msq


def gram_recurrence(t, J):
    # a_j and b_j are Python-float loop locals and each new row is formed in
    # place in P with one length-N scratch buffer; the operations and their
    # order are those of (t - a_j) * p_j - b_j * p_{j-1}, so every bit is too
    N = t.shape[0]
    P = np.zeros((J, N))
    q = [0.0] * J
    P[0] = 1.0
    q[0] = qj = float(N)
    rows = list(P)
    s = np.empty(N)
    for j in range(J - 1):
        if qj <= 0.0:  # underflowed basis; caller rejects the zero norms
            break
        pj, nxt = rows[j], rows[j + 1]
        np.multiply(pj, pj, s)
        aj = float(t.dot(s)) / qj
        np.subtract(t, aj, nxt)
        np.multiply(nxt, pj, nxt)
        if j > 0:
            bj = qj / q[j - 1]
            np.multiply(rows[j - 1], bj, s)
            np.subtract(nxt, s, nxt)
        q[j + 1] = qj = float(nxt.dot(nxt))
    return P, np.array(q)
