import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss import _kernels


def random_frames(rng, R=32, M=64):
    return np.fft.fft(rng.standard_normal((R, M)), axis=1)


class TestNumpyKernels:
    def test_triple_grid_coupled_triad(self):
        # zero-phase triad at bins 2, 3 and 5: the only surviving triple
        # products sit where j, k and j+k all land on occupied bins
        M, F = 16, 9
        n = np.arange(M)
        x = (np.cos(2 * np.pi * 2 * n / M) + np.cos(2 * np.pi * 3 * n / M)
             + np.cos(2 * np.pi * 5 * n / M))
        X = np.fft.fft(x[None, :], axis=1)
        s3, msq = _kernels.triple_grid(X, F)
        assert s3[3, 2] == pytest.approx((M / 2) ** 3, abs=1e-6)
        assert s3[2, 3] == pytest.approx((M / 2) ** 3, abs=1e-6)
        assert abs(s3[4, 4]) < 1e-9
        npt.assert_allclose(msq[3, 2], abs(s3[3, 2]) ** 2, rtol=1e-12)

    def test_triple_grid_mean_of_frames(self):
        rng = np.random.default_rng(2)
        X = random_frames(rng, R=5, M=16)
        F = 9
        s3, msq = _kernels.triple_grid(X, F)
        idx = (np.arange(F)[:, None] + np.arange(F)[None, :]) % 16
        T = X[:, :F, None] * X[:, None, :F] * np.conj(X[:, idx])
        npt.assert_allclose(s3, T.mean(axis=0), rtol=1e-12)
        npt.assert_allclose(msq, (np.abs(T) ** 2).mean(axis=0), rtol=1e-12)

    def test_gram_recurrence_three_points(self):
        P, q, a, b = _kernels.gram_recurrence(np.array([0.0, 1.0, 2.0]), 3)
        npt.assert_allclose(P[1], [-1.0, 0.0, 1.0], atol=1e-15)
        npt.assert_allclose(q[:2], [3.0, 2.0], atol=1e-15)
        assert a[0] == pytest.approx(1.0)
        assert b[1] == pytest.approx(2.0 / 3.0)


def sequential_triple_grid(X, F):
    # the full (R, F, F) product, added up one frame at a time in frame order
    R, M = X.shape
    idx = (np.arange(F)[:, None] + np.arange(F)[None, :]) % M
    T = X[:, :F, None] * X[:, None, :F] * np.conj(X[:, idx])
    s3 = np.zeros((F, F), dtype=np.complex128)
    msq = np.zeros((F, F))
    for r in range(R):
        s3 += T[r]
        msq += np.abs(T[r]) ** 2
    return s3 / R, msq / R


class TestTripleGridProperties:
    @settings(max_examples=60, deadline=None)
    @given(R=st.integers(1, 40), half=st.integers(4, 32), seed=st.integers(0, 2**32 - 1))
    def test_lower_triangle_bitwise_and_exact_symmetry(self, R, half, seed):
        M, F = 2 * half, half + 1
        X = random_frames(np.random.default_rng(seed), R=R, M=M)
        s3, msq = _kernels.triple_grid(X, F)
        ref_s3, ref_msq = sequential_triple_grid(X, F)
        lower = np.tril_indices(F)
        npt.assert_array_equal(s3[lower], ref_s3[lower])
        npt.assert_array_equal(msq[lower], ref_msq[lower])
        assert np.array_equal(s3, s3.T)
        assert np.array_equal(msq, msq.T)


class TestPrincipalTriples:
    @settings(max_examples=60, deadline=None)
    @given(R=st.integers(1, 40), half=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_grid_at_principal_points(self, R, half, seed):
        M = 2 * half
        X = random_frames(np.random.default_rng(seed), R=R, M=M)
        s3, msq = _kernels.principal_triples(X)
        grid_s3, grid_msq = _kernels.triple_grid(X, half + 1)
        j, k = np.array(pg.principal_domain(M)).T
        assert np.array_equal(s3, grid_s3[j, k])
        assert np.array_equal(msq, grid_msq[j, k])
