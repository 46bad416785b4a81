import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss.gaussianity import _CHUNK_POINTS, _principal_triples
from polygauss.ortho import _gram_recurrence


def random_frames(rng, R=32, M=64):
    return np.fft.fft(rng.standard_normal((R, M)), axis=1)


def chunked_frames(half, full_chunks, last):
    # frame count that fills full_chunks of _principal_triples' frame chunks at
    # M = 2 * half and leaves `last` frames for one more chunk
    rc = max(1, _CHUNK_POINTS // len(pg.principal_domain(2 * half)))
    return full_chunks * rc + last


class TestNumpyKernels:
    def test_triple_grid_coupled_triad(self):
        # zero-phase triad at bins 2, 3 and 5: the only surviving triple
        # product sits where j, k and j+k all land on occupied bins
        M = 16
        n = np.arange(M)
        x = (np.cos(2 * np.pi * 2 * n / M) + np.cos(2 * np.pi * 3 * n / M)
             + np.cos(2 * np.pi * 5 * n / M))
        X = np.fft.fft(x[None, :], axis=1)
        s3, msq = _principal_triples(X)
        at = pg.principal_domain(M).index((3, 2))
        assert s3[at] == pytest.approx((M / 2) ** 3, abs=1e-6)
        assert np.abs(np.delete(s3, at)).max() < 1e-9
        npt.assert_allclose(msq[at], abs(s3[at]) ** 2, rtol=1e-12)

    def test_triple_grid_mean_of_frames(self):
        rng = np.random.default_rng(2)
        X = random_frames(rng, R=5, M=16)
        s3, msq = _principal_triples(X)
        j, k = np.array(pg.principal_domain(16)).T
        T = X[:, j] * X[:, k] * np.conj(X[:, j + k])
        npt.assert_allclose(s3, T.mean(axis=0), rtol=1e-12)
        npt.assert_allclose(msq, (np.abs(T) ** 2).mean(axis=0), rtol=1e-12)

    def test_gram_recurrence_three_points(self):
        # P_1 = t - a_0 pins a_0 = 1, and P_2 = (t - a_1) P_1 - b_1 P_0 pins b_1 = 2/3
        P, q = _gram_recurrence(np.array([0.0, 1.0, 2.0]), 3)
        npt.assert_allclose(P[1], [-1.0, 0.0, 1.0], atol=1e-15)
        npt.assert_allclose(P[2], [1 / 3, -2 / 3, 1 / 3], atol=1e-15)
        npt.assert_allclose(q, [3.0, 2.0, 2 / 3], atol=1e-15)

    @pytest.mark.parametrize("t,J", [
        (np.arange(240) * 0.0375, 240),
        (np.arange(60) * 0.15, 3),
        (np.arange(40) * 1e-30, 12),  # the norms underflow and the loop breaks
    ])
    def test_gram_recurrence_bitwise_equal_to_stepwise(self, stepwise_gram_recurrence, t, J):
        for got, ref in zip(_gram_recurrence(t, J), stepwise_gram_recurrence(t, J)):
            assert np.array_equal(got, ref)


class TestPrincipalTriples:
    @settings(max_examples=60, deadline=None)
    @given(R=st.integers(1, 40), half=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
    # the running sums carried across frame chunks, the last one a single frame
    @example(R=chunked_frames(4, 1, 1), half=4, seed=1)
    @example(R=chunked_frames(8, 2, 1), half=8, seed=2)
    @example(R=chunked_frames(64, 2, 1), half=64, seed=3)
    @example(R=chunked_frames(64, 5, 9), half=64, seed=4)
    def test_bitwise_equal_to_grid_at_principal_points(self, sequential_triple_grid,
                                                       R, half, seed):
        M = 2 * half
        X = random_frames(np.random.default_rng(seed), R=R, M=M)
        s3, msq = _principal_triples(X)
        grid_s3, grid_msq = sequential_triple_grid(X, half + 1)
        j, k = np.array(pg.principal_domain(M)).T
        assert np.array_equal(s3, grid_s3[j, k])
        assert np.array_equal(msq, grid_msq[j, k])
