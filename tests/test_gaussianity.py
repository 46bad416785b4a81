import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polygauss as pg


def triad_ensemble(rng, reps=64, n=60, fft_len=64, j1=5, j2=3):
    """Quadratically phase-coupled control: strong bicoherence at (j1, j2)."""
    idx = np.arange(n)
    ph1 = rng.uniform(0, 2 * np.pi, reps)[:, None]
    ph2 = rng.uniform(0, 2 * np.pi, reps)[:, None]
    t1 = 2 * np.pi * j1 * idx / fft_len + ph1
    t2 = 2 * np.pi * j2 * idx / fft_len + ph2
    return pg.Ensemble(np.cos(t1) + np.cos(t2) + np.cos(t1 + t2))


class TestThirdCumulant:
    def test_single_record_zero_lags(self):
        ens = pg.Ensemble(np.array([[1.0, 2.0, 3.0]]))
        assert pg.third_cumulant(ens, 0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_ensemble(self):
        ens = pg.Ensemble(np.zeros((4, 10)))
        assert pg.third_cumulant(ens, 1, 2) == 0.0

    def test_gaussian_vanishes(self):
        rng = np.random.default_rng(1)
        ens = pg.Ensemble(rng.standard_normal((10**5, 8)))
        assert abs(pg.third_cumulant(ens, 0, 0)) < 0.05

    def test_zero_lag_matches_third_moment(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 40))
        ens = pg.Ensemble(v)
        centered = v - v.mean(axis=1, keepdims=True)
        expect = np.mean(centered**3, axis=1).mean()
        assert pg.third_cumulant(ens, 0, 0) == pytest.approx(expect, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 12))
        ens = pg.Ensemble(v)
        for k1, k2 in [(1, 2), (-3, 1), (0, -2)]:
            acc = []
            for rec in v:
                u = rec - rec.mean()
                vals = [u[n] * u[n + k1] * u[n + k2]
                        for n in range(12)
                        if 0 <= n + k1 < 12 and 0 <= n + k2 < 12]
                acc.append(np.mean(vals))
            assert pg.third_cumulant(ens, k1, k2) == pytest.approx(np.mean(acc), abs=1e-12)

    def test_lag_errors(self):
        ens = pg.Ensemble(np.zeros((2, 5)))
        with pytest.raises(pg.LagError):
            pg.third_cumulant(ens, 5, 0)
        with pytest.raises(pg.LagError):
            pg.third_cumulant(ens, 0, -5)


class TestBispectrum:
    def test_zero_ensemble_zero_grid(self):
        ens = pg.Ensemble(np.zeros((8, 16)))
        bisp = pg.bispectrum_direct(ens, 16)
        npt.assert_array_equal(bisp.s3, np.zeros_like(bisp.s3))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(4)
        ens = pg.Ensemble(rng.standard_normal((16, 30)))
        bisp = pg.bispectrum_direct(ens, 32)
        npt.assert_array_equal(bisp.s3, bisp.s3.T)

    def test_uncoupled_tone_averages_out(self):
        rng = np.random.default_rng(5)
        n = np.arange(60)
        ph = rng.uniform(0, 2 * np.pi, 512)[:, None]
        ens = pg.Ensemble(np.cos(2 * np.pi * 6 * n / 64 + ph))
        bisp = pg.bispectrum_direct(ens, 64)
        D = pg.principal_domain(64)
        mags = np.array([abs(bisp.s3[j, k]) for j, k in D])
        # no phase coupling: triple products decay with averaging
        single = np.cos(2 * np.pi * 6 * n / 64)
        X = np.fft.fft(single - single.mean(), 64)
        scale = abs(X[6]) ** 3
        assert mags.max() < 0.05 * scale

    def test_coupled_triad_peaks_at_pair(self):
        ens = triad_ensemble(np.random.default_rng(6), reps=256)
        bisp = pg.bispectrum_direct(ens, 64)
        D = pg.principal_domain(64)
        mags = {pt: abs(bisp.s3[pt]) for pt in D}
        assert max(mags, key=mags.get) == (5, 3)

    def test_config_errors(self):
        ens = pg.Ensemble(np.zeros((16, 16)))
        with pytest.raises(pg.ConfigError):
            pg.bispectrum_direct(ens, 17)
        with pytest.raises(pg.ConfigError):
            pg.bispectrum_direct(ens, 6)
        with pytest.raises(pg.InsufficientFramesError):
            pg.bispectrum_direct(pg.Ensemble(np.zeros((4, 16))), 16)


class TestPowerSpectrum:
    def test_zero_ensemble(self):
        spec = pg.power_spectrum(pg.Ensemble(np.zeros((8, 16))), 16)
        npt.assert_array_equal(spec, np.zeros(9))

    def test_tone_concentrates(self):
        n = np.arange(64)
        ph = np.random.default_rng(7).uniform(0, 2 * np.pi, 64)[:, None]
        spec = pg.power_spectrum(pg.Ensemble(np.cos(2 * np.pi * 5 * n / 64 + ph)), 64)
        assert np.argmax(spec) == 5
        assert spec[5] > 100 * np.sort(spec)[-2]

    def test_parseval_identity(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((32, 64))
        ens = pg.Ensemble(v)
        M = 64
        spec = pg.power_spectrum(ens, M, center_ensemble=False)
        # (1/M) sum over all M bins of |X|^2 equals the centered record energy
        weights = np.full(M // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        lhs = (weights * spec).sum() / M
        centered = v - v.mean(axis=1, keepdims=True)
        rhs = np.mean(np.sum(centered**2, axis=1))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBicoherence:
    def test_zero_bispectrum_zero_grid(self):
        rng = np.random.default_rng(9)
        ens = pg.Ensemble(rng.standard_normal((32, 30)))
        bisp = pg.bispectrum_direct(ens, 32)
        power = pg.power_spectrum(ens, 32)
        zeroed = pg.BispectrumEstimate(bisp.fft_len, bisp.frames,
                                       np.zeros_like(bisp.s3), bisp.triple_msq)
        grid = pg.bicoherence(zeroed, power)
        npt.assert_array_equal(grid.values, np.zeros(len(grid.points)))

    def test_nonnegative_and_domain(self):
        rng = np.random.default_rng(10)
        ens = pg.Ensemble(rng.standard_normal((64, 60)))
        grid = pg.bicoherence(pg.bispectrum_direct(ens, 64), pg.power_spectrum(ens, 64))
        assert np.all(grid.values >= 0)
        for j, k in grid.points:
            assert 1 <= k <= j and j + k <= 31

    def test_triad_maximum_location(self):
        ens = triad_ensemble(np.random.default_rng(11), reps=256)
        grid = pg.bicoherence(pg.bispectrum_direct(ens, 64), pg.power_spectrum(ens, 64))
        assert grid.points[int(np.argmax(grid.values))] == (5, 3)

    def test_mismatched_power_grid(self):
        ens = pg.Ensemble(np.random.default_rng(12).standard_normal((16, 30)))
        bisp = pg.bispectrum_direct(ens, 32)
        with pytest.raises(pg.DimensionError):
            pg.bicoherence(bisp, np.ones(10))


class TestHinich:
    def test_zero_grid_gives_pfa_one(self):
        grid = pg.BicoherenceGrid(fft_len=64, frames=64, points=((1, 1), (2, 1)),
                                  values=np.zeros(2), normalizer=np.ones(2), excluded=0)
        stat, dof, pfa = pg.hinich_test(grid, 64)
        assert stat == 0.0
        assert dof == 4
        assert pfa == 1.0

    def test_gaussian_pfa_roughly_uniform(self):
        rng_master = np.random.default_rng(13)
        pfas = []
        for _ in range(100):
            ens = pg.Ensemble(rng_master.standard_normal((64, 60)))
            rep = pg.gaussianity_report(ens, fft_len=64)
            pfas.append(rep.pfa)
        pfas = np.array(pfas)
        assert 0.25 < np.median(pfas) < 0.75
        assert np.mean(pfas < 0.05) < 0.15

    def test_triad_rejected(self):
        ens = triad_ensemble(np.random.default_rng(14))
        rep = pg.gaussianity_report(ens, fft_len=64)
        assert rep.pfa < 0.01

    def test_too_few_frames(self):
        grid = pg.BicoherenceGrid(fft_len=64, frames=4, points=((1, 1),),
                                  values=np.zeros(1), normalizer=np.ones(1), excluded=0)
        with pytest.raises(pg.InsufficientFramesError):
            pg.hinich_test(grid, 4)


class TestChi2Survival:
    def test_at_zero(self):
        for dof in (1, 2, 7, 100):
            assert pg.chi2_survival(0.0, dof) == 1.0

    def test_closed_forms(self):
        assert pg.chi2_survival(2.0, 2) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert pg.chi2_survival(4.0, 4) == pytest.approx(3.0 * math.exp(-2.0), abs=1e-12)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0, 300, 200)
        vals = [pg.chi2_survival(x, 12) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dof,x", [(2, 3.0), (10, 8.0), (50, 61.0), (200, 240.0)])
    def test_quadrature_oracle(self, dof, x):
        def pdf(u):
            return math.exp((dof / 2 - 1) * math.log(u) - u / 2
                            - math.lgamma(dof / 2) - (dof / 2) * math.log(2))

        oracle, err = quad(pdf, x, np.inf, epsabs=1e-12, limit=200)
        assert pg.chi2_survival(x, dof) == pytest.approx(oracle, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(pg.ConfigError):
            pg.chi2_survival(-1.0, 2)
        with pytest.raises(pg.ConfigError):
            pg.chi2_survival(1.0, 0)

    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special is most of the package's import time; only chi2_survival needs it
        src = os.path.dirname(os.path.dirname(pg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, polygauss; print('scipy.special' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestExcessKurtosis:
    def test_rademacher_limit(self):
        rng = np.random.default_rng(15)
        ens = pg.Ensemble(rng.choice([-1.0, 1.0], size=(10**5, 8)))
        assert pg.excess_kurtosis(ens) == pytest.approx(-2.0, abs=0.01)

    def test_gaussian_near_zero(self):
        rng = np.random.default_rng(16)
        ens = pg.Ensemble(rng.standard_normal((10**5, 4)))
        assert abs(pg.excess_kurtosis(ens)) < 0.05

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        v = rng.laplace(size=(2000, 10))
        base = pg.excess_kurtosis(pg.Ensemble(v))
        shifted = pg.excess_kurtosis(pg.Ensemble(-1.7 * v + 4.2))
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_single_record_fallback(self):
        rng = np.random.default_rng(18)
        w = rng.uniform(-math.sqrt(3), math.sqrt(3), 10**6)
        assert pg.excess_kurtosis(pg.Ensemble(w[None, :])) == pytest.approx(-1.2, abs=0.05)

    def test_too_few_replications(self):
        with pytest.raises(pg.DegenerateDataError):
            pg.excess_kurtosis(pg.Ensemble(np.random.default_rng(0).standard_normal((3, 5))))

    def test_degenerate_index(self):
        v = np.random.default_rng(1).standard_normal((10, 4))
        v[:, 2] = 5.0
        with pytest.raises(pg.DegenerateDataError):
            pg.excess_kurtosis(pg.Ensemble(v))


class TestHistogram:
    def test_worked_binning(self):
        h = pg.histogram([0.0, 0.5, 1.0], 2, (0.0, 1.0))
        npt.assert_array_equal(h.counts, [2, 1])

    def test_identical_values(self):
        h = pg.histogram([3.0] * 7, 4)
        assert h.total == 7
        assert np.count_nonzero(h.counts) == 1

    def test_clipping(self):
        h = pg.histogram([-10.0, 0.5, 10.0], 2, (0.0, 1.0))
        npt.assert_array_equal(h.counts, [2, 1])
        assert h.total == 3

    def test_normal_cdf_oracle(self):
        from math import erf

        rng = np.random.default_rng(19)
        v = rng.standard_normal(10**6)
        h = pg.histogram(v, 50, (-4.0, 4.0))
        cdf = lambda x: 0.5 * (1 + erf(x / math.sqrt(2)))
        for i in range(1, 49):  # interior bins: clipping does not disturb them
            p = cdf(h.edges[i + 1]) - cdf(h.edges[i])
            se = math.sqrt(p * (1 - p) / 10**6)
            # 4 sigma: 48 simultaneous bin checks make a 3 sigma excursion likely
            assert abs(h.counts[i] / 10**6 - p) <= 4 * se + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200),
           st.integers(1, 30))
    def test_conservation(self, values, bins):
        h = pg.histogram(values, bins)
        assert h.total == len(values)

    def test_bad_range(self):
        with pytest.raises(pg.ConfigError):
            pg.histogram([1.0], 2, (1.0, 1.0))


class TestSegmentRecord:
    def test_splits_frames(self):
        ens = pg.segment_record(np.arange(100.0), 16)
        assert ens.values.shape == (6, 16)
        npt.assert_array_equal(ens.values[0], np.arange(16.0))

    def test_too_short(self):
        with pytest.raises(pg.ConfigError):
            pg.segment_record(np.arange(5.0), 16)
