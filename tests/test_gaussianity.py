import math
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import polygauss as pg
from conftest import src_env
from polygauss.gaussianity import (_CHUNK_POINTS, EPS_FLOOR, _bicoherence, _frames_fft,
                                   _power, _principal_index, _principal_triples)


def triad_ensemble(rng, reps=64, n=60, fft_len=64, j1=5, j2=3):
    """Quadratically phase-coupled control: strong bicoherence at (j1, j2)."""
    idx = np.arange(n)
    ph1 = rng.uniform(0, 2 * np.pi, reps)[:, None]
    ph2 = rng.uniform(0, 2 * np.pi, reps)[:, None]
    t1 = 2 * np.pi * j1 * idx / fft_len + ph1
    t2 = 2 * np.pi * j2 * idx / fft_len + ph2
    return pg.Ensemble(np.cos(t1) + np.cos(t2) + np.cos(t1 + t2))


def frames(ens, fft_len):
    # the report's FFT frames: _frames_fft reads values already centred per index
    v = ens.values
    return _frames_fft(v - v.mean(axis=0, keepdims=True), fft_len)


def ensemble_triples(ens, fft_len):
    return _principal_triples(frames(ens, fft_len))


class TestBispectrum:
    def test_zero_ensemble_zero_grid(self):
        s3, msq = ensemble_triples(pg.Ensemble(np.zeros((8, 16))), 16)
        npt.assert_array_equal(s3, np.zeros_like(s3))

    def test_uncoupled_tone_averages_out(self):
        rng = np.random.default_rng(5)
        n = np.arange(60)
        ph = rng.uniform(0, 2 * np.pi, 512)[:, None]
        ens = pg.Ensemble(np.cos(2 * np.pi * 6 * n / 64 + ph))
        mags = np.abs(ensemble_triples(ens, 64)[0])
        # no phase coupling: triple products decay with averaging
        single = np.cos(2 * np.pi * 6 * n / 64)
        X = np.fft.fft(single - single.mean(), 64)
        scale = abs(X[6]) ** 3
        assert mags.max() < 0.05 * scale

    def test_coupled_triad_peaks_at_pair(self):
        ens = triad_ensemble(np.random.default_rng(6), reps=256)
        mags = np.abs(ensemble_triples(ens, 64)[0])
        assert list(zip(*_principal_index(64)))[int(np.argmax(mags))] == (5, 3)

    def test_config_errors(self):
        ens = pg.Ensemble(np.zeros((16, 16)))
        with pytest.raises(pg.ConfigError):
            pg.gaussianity_report(ens, 17)
        with pytest.raises(pg.ConfigError):
            pg.gaussianity_report(ens, 6)
        with pytest.raises(pg.InsufficientFramesError):
            pg.gaussianity_report(pg.Ensemble(np.zeros((4, 16))), 16)


# one bad setting each, as (R, N, M, bins); the wording is that of ExperimentConfig
BAD_SETUPS = pytest.mark.parametrize("R,N,M,bins,error,message", [
    (16, 60, 64, 2**62, pg.ConfigError, "larger than any array"),
    (16, 60, 6, 20, pg.ConfigError, "FFT length must be even"),
    (16, 100, 64, 20, pg.ConfigError, "records of 100 points are longer than the FFT length 64"),
    (4, 60, 64, 20, pg.InsufficientFramesError, "need at least 8 replications, got 4"),
], ids=["bins", "fft_len", "record_length", "replications"])


class TestSetupChecks:
    @BAD_SETUPS
    def test_report_rejects_before_any_work(self, monkeypatch, R, N, M, bins, error, message):
        from polygauss import gaussianity

        calls = []
        frames_fft = gaussianity._frames_fft
        monkeypatch.setattr(gaussianity, "_frames_fft",
                            lambda *a: calls.append(a) or frames_fft(*a))
        ens = pg.Ensemble(np.random.default_rng(2).standard_normal((R, N)))
        with pytest.raises(error, match=message):
            pg.gaussianity_report(ens, M, bins)
        assert calls == []

    @BAD_SETUPS
    def test_config_and_report_raise_one_error(self, R, N, M, bins, error, message):
        ens = pg.Ensemble(np.random.default_rng(2).standard_normal((R, N)))
        with pytest.raises(error) as by_report:
            pg.gaussianity_report(ens, M, bins)
        with pytest.raises(error) as by_config:
            pg.ExperimentConfig(R, 1, grid=pg.SampleGrid.uniform(N, 0.15), fft_len=M, bins=bins)
        assert type(by_config.value) is type(by_report.value)
        assert str(by_config.value) == str(by_report.value)


def traced_peak(fn, *args):
    """tracemalloc's peak over one call of ``fn``, after one untraced warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReportMemory:
    @pytest.mark.parametrize("R, N, M", [(500, 60, 64), (1000, 100, 128), (64, 60, 64), (8, 8, 8)])
    def test_frames_fft_bitwise_equal_to_padded_fft(self, R, N, M):
        u = np.random.default_rng(R + N).standard_normal((R, N))
        ref = np.fft.fft(u - u.mean(axis=1, keepdims=True), n=M, axis=1)
        assert _frames_fft(u, M).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("R, N, M", [(500, 60, 64), (1000, 100, 128)])
    def test_frames_fft_holds_one_frame_buffer(self, R, N, M):
        # the (R, M) frames, plus the two float64 buffers numpy's ufunc loop takes
        # for the strided write into their real part, plus 64 KB; a centred or
        # padded copy beside the frames (R x N x 8 or R x M x 16 bytes) does not fit
        u = np.random.default_rng(3).standard_normal((R, N))
        bound = R * M * 16 + 2 * np.getbufsize() * 8 + 64 * 1024
        assert traced_peak(_frames_fft, u, M) <= bound

    def test_report_drops_the_centred_copy_before_the_triple_products(self):
        # the frames and the triple products' two complex and one float (rc + 1, P)
        # chunk buffers, not the centred copy too
        ens = pg.Ensemble(np.random.default_rng(4).standard_normal((500, 60)))
        P = _principal_index(64)[0].size
        chunks = (max(1, _CHUNK_POINTS // P) + 1) * P * (16 + 16 + 8)
        assert traced_peak(pg.gaussianity_report, ens, 64) < 500 * 64 * 16 + chunks + 64 * 1024

    def test_report_squares_in_place_and_frees_the_frames(self):
        # the power spectrum's step holds the centred copy, the frames and |X|^2; the
        # kurtosis squares the copy in place, and the histogram runs after the frames go
        R, N, M = 1000, 100, 128
        ens = pg.Ensemble(np.random.default_rng(4).standard_normal((R, N)))
        bound = R * M * 16 + R * (M // 2 + 1) * 8 + R * N * 8 + 256 * 1024
        assert traced_peak(pg.gaussianity_report, ens, M) <= bound


def random_frames(rng, R=32, M=64):
    return np.fft.fft(rng.standard_normal((R, M)), axis=1)


def chunked_frames(half, full_chunks, last):
    # frame count that fills full_chunks of _principal_triples' frame chunks at
    # M = 2 * half and leaves `last` frames for one more chunk
    rc = max(1, _CHUNK_POINTS // _principal_index(2 * half)[0].size)
    return full_chunks * rc + last


class TestPrincipalTriples:
    def test_triple_grid_coupled_triad(self):
        # zero-phase triad at bins 2, 3 and 5: the only surviving triple
        # product sits where j, k and j+k all land on occupied bins
        M = 16
        n = np.arange(M)
        x = (np.cos(2 * np.pi * 2 * n / M) + np.cos(2 * np.pi * 3 * n / M)
             + np.cos(2 * np.pi * 5 * n / M))
        X = np.fft.fft(x[None, :], axis=1)
        s3, msq = _principal_triples(X)
        at = list(zip(*_principal_index(M))).index((3, 2))
        assert s3[at] == pytest.approx((M / 2) ** 3, abs=1e-6)
        assert np.abs(np.delete(s3, at)).max() < 1e-9
        npt.assert_allclose(msq[at], abs(s3[at]) ** 2, rtol=1e-12)

    def test_triple_grid_mean_of_frames(self):
        rng = np.random.default_rng(2)
        X = random_frames(rng, R=5, M=16)
        s3, msq = _principal_triples(X)
        j, k = _principal_index(16)
        T = X[:, j] * X[:, k] * np.conj(X[:, j + k])
        npt.assert_allclose(s3, T.mean(axis=0), rtol=1e-12)
        npt.assert_allclose(msq, (np.abs(T) ** 2).mean(axis=0), rtol=1e-12)

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
        j, k = _principal_index(M)
        assert np.array_equal(s3, grid_s3[j, k])
        assert np.array_equal(msq, grid_msq[j, k])


def power_spectrum(ens, fft_len):
    return _power(frames(ens, fft_len))


class TestPowerSpectrum:
    def test_zero_ensemble(self):
        spec = power_spectrum(pg.Ensemble(np.zeros((8, 16))), 16)
        npt.assert_array_equal(spec, np.zeros(9))

    def test_tone_concentrates(self):
        n = np.arange(64)
        ph = np.random.default_rng(7).uniform(0, 2 * np.pi, 64)[:, None]
        spec = power_spectrum(pg.Ensemble(np.cos(2 * np.pi * 5 * n / 64 + ph)), 64)
        assert np.argmax(spec) == 5
        assert spec[5] > 100 * np.sort(spec)[-2]

    def test_parseval_identity(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((32, 64))
        ens = pg.Ensemble(v)
        M = 64
        spec = power_spectrum(ens, M)
        # (1/M) sum over all M bins of |X|^2 equals the record energy after the
        # per-index and then the per-record mean removal
        weights = np.full(M // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        lhs = (weights * spec).sum() / M
        centered = v - v.mean(axis=0, keepdims=True)
        centered = centered - centered.mean(axis=1, keepdims=True)
        rhs = np.mean(np.sum(centered**2, axis=1))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBicoherence:
    def test_zero_bispectrum_zero_grid(self):
        rng = np.random.default_rng(9)
        X = frames(pg.Ensemble(rng.standard_normal((32, 30))), 32)
        s3, msq = _principal_triples(X)
        grid, stat, dof = _bicoherence(32, 32, np.zeros_like(s3), msq, _power(X))
        npt.assert_array_equal(grid.values, np.zeros(len(grid.points)))
        assert grid.points and (stat, dof) == (0.0, 2 * len(grid.points))

    def test_nonnegative_and_domain(self):
        rng = np.random.default_rng(10)
        grid = pg.gaussianity_report(pg.Ensemble(rng.standard_normal((64, 60))), 64).bicoherence
        assert np.all(grid.values >= 0)
        for j, k in grid.points:
            assert 1 <= k <= j and j + k <= 31

    def test_triad_maximum_location(self):
        ens = triad_ensemble(np.random.default_rng(11), reps=256)
        grid = pg.gaussianity_report(ens, 64).bicoherence
        assert grid.points[int(np.argmax(grid.values))] == (5, 3)


def loop_bicoherence(fft_len, K, s3_grid, msq_grid, power):
    # the per-point scalar formula of the squared bicoherence and of Hinich's
    # statistic, kept as the reference for the array code (with the relative
    # dead-denominator floor and the square taken as a product, which is exact
    # under scaling by 2**k); it reads the principal points off the full
    # triple-product grid and returns them as a report's two fields
    floor = EPS_FLOOR * power.max() ** 3
    kept, vals, norms = [], [], []
    excluded = 0
    js, ks = _principal_index(fft_len)
    for j, k in zip(js.tolist(), ks.tolist()):
        den = power[j] * power[k] * power[j + k]
        s3 = s3_grid[j, k]
        var = (msq_grid[j, k] - abs(s3) * abs(s3)) * K / (K - 1)
        if den <= floor or var <= EPS_FLOOR * den or not math.isfinite(var):
            excluded += 1
            continue
        kept.append((j, k))
        vals.append(abs(s3) * abs(s3) / den)
        norms.append(var / den)
    grid = pg.BicoherenceGrid(tuple(kept), np.asarray(vals), excluded)
    stat = float(np.sum(2.0 * K * grid.values / np.asarray(norms))) if kept else 0.0
    return SimpleNamespace(bicoherence=grid, statistic=stat)


def assert_same_grid(got, ref):
    # got, ref: reports, or anything with their bicoherence and statistic fields
    assert got.bicoherence.points == ref.bicoherence.points
    assert got.bicoherence.excluded == ref.bicoherence.excluded
    assert np.array_equal(got.bicoherence.values, ref.bicoherence.values)
    assert got.statistic == ref.statistic


class TestPrincipalDomainReport:
    def test_principal_domain_definition(self):
        for M in range(0, 260):
            half = M // 2
            ref = [(j, k) for j in range(1, half) for k in range(1, j + 1) if j + k <= half - 1]
            j, k = _principal_index(M)
            got = list(zip(j.tolist(), k.tolist()))
            assert got == ref
            assert all(type(j) is int and type(k) is int for j, k in got)

    @settings(max_examples=40, deadline=None)
    @given(R=st.integers(8, 40), half=st.integers(4, 64), seed=st.integers(0, 2**32 - 1))
    def test_report_matches_full_grid_and_point_loop(self, sequential_triple_grid,
                                                     R, half, seed):
        M = 2 * half
        rng = np.random.default_rng(seed)
        ens = pg.Ensemble(rng.gamma(2.0, size=(R, int(rng.integers(2, M + 1)))))
        got = pg.gaussianity_report(ens, M)
        X = frames(ens, M)
        s3, msq = sequential_triple_grid(X, half + 1)
        assert_same_grid(got, loop_bicoherence(M, R, s3, msq, _power(X)))

    def test_dead_denominator_floor_is_scale_free(self):
        w = np.random.default_rng(16).gamma(2.0, size=(500, 60))
        w = (w - 2.0) / math.sqrt(2.0)  # unit variance
        base = pg.gaussianity_report(pg.Ensemble(w), 64)
        assert base.pfa < 1e-6
        for scale in (1e-6, 1e-8):
            rep = pg.gaussianity_report(pg.Ensemble(w * scale), 64)
            assert rep.bicoherence.points == base.bicoherence.points
            assert rep.dof == base.dof
            assert rep.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_tiny_magnitude_keeps_the_statistic(self):
        # scaled to 1e-60 the sixth-power moments once underflowed to 0, every point was
        # dropped and this strongly non-Gaussian ensemble read S=0, PFA=1
        w = np.random.default_rng(16).gamma(2.0, size=(500, 60))
        w = (w - 2.0) / math.sqrt(2.0)  # unit variance
        base = pg.gaussianity_report(pg.Ensemble(w), 64)
        assert base.statistic > 1000 and base.bicoherence.excluded == 0
        for scale in (1e-60, 1e-100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = pg.gaussianity_report(pg.Ensemble(w * scale), 64)
            assert rep.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert (rep.dof, rep.pfa) == (base.dof, base.pfa)
            assert rep.bicoherence.points == base.bicoherence.points
            assert rep.avg_kurtosis == pytest.approx(base.avg_kurtosis, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(R=st.integers(8, 40), half=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_report_is_exact_under_power_of_two_scaling(self, R, half, seed, data):
        M = 2 * half
        N = data.draw(st.integers(2, M), label="N")
        g = np.random.default_rng(seed).gamma(2.0, size=(R, N)) - 2.0
        # on a 2**-30 grid every value stays exact when scaled down to 2**-1074
        w = np.round(g * 2.0**30) / 2.0**30
        vmax = float(np.abs(w).max())
        k_min = -1044
        assert vmax * 2.0**k_min < np.finfo(np.float64).smallest_normal
        # the largest k at which the values and the histogram range max - min stay
        # finite; x * 2**k is finite while frexp(x)[1] + k <= 1024
        k_max = 1024 - math.frexp(max(float(w.max() - w.min()), vmax))[1]
        if math.frexp(vmax)[1] + k_max < 1024:  # one step on, finite values overflow the range
            with pytest.raises(pg.DegenerateDataError, match="overflow"):
                pg.gaussianity_report(pg.Ensemble(np.ldexp(w, k_max + 1)), M)
        base = pg.gaussianity_report(pg.Ensemble(w), M)
        for k in (k_min, data.draw(st.integers(k_min, k_max), label="k"), k_max):
            scaled = np.ldexp(w, k)
            assert np.array_equal(np.ldexp(scaled, -k), w)  # the scaling itself is exact
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = pg.gaussianity_report(pg.Ensemble(scaled), M)
            assert (rep.statistic, rep.dof, rep.pfa) == (base.statistic, base.dof, base.pfa)
            assert rep.avg_kurtosis == base.avg_kurtosis
            assert_same_grid(rep, base)

    def test_overflowing_magnitude_is_degenerate(self):
        # finite values whose max - min is past the largest float64: the histogram,
        # whose edges are in data units, cannot be formed
        w = np.random.default_rng(17).standard_normal((20, 30))
        span = float(w.max()) - float(w.min())
        over = w / np.abs(w).max() * 1.5e308
        assert math.isinf(float(over.max()) - float(over.min()))
        with pytest.raises(pg.DegenerateDataError, match="overflow"):
            pg.gaussianity_report(pg.Ensemble(over))
        # just inside the bound the whole report is finite (a RuntimeWarning fails the test)
        rep = pg.gaussianity_report(pg.Ensemble(w / span * 1.79e308))
        assert math.isfinite(rep.statistic) and math.isfinite(rep.avg_kurtosis)
        assert np.all(np.isfinite(rep.histogram.edges))

    def test_huge_magnitude_keeps_the_report(self):
        # the unit-variance gamma(2) ensemble that a sixth-power bound once rejected
        # from 2**160 on: every moment is formed on the copy rescaled to unit scale
        w = np.random.default_rng(16).gamma(2.0, size=(500, 60))
        w = (w - 2.0) / math.sqrt(2.0)
        base = pg.gaussianity_report(pg.Ensemble(w), 64)
        for k in (160, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = pg.gaussianity_report(pg.Ensemble(np.ldexp(w, k)), 64)
            assert (rep.statistic, rep.dof, rep.pfa) == (base.statistic, base.dof, base.pfa)
            assert rep.avg_kurtosis == base.avg_kurtosis
            assert_same_grid(rep, base)
            npt.assert_array_equal(rep.histogram.counts, base.histogram.counts)
            npt.assert_array_equal(rep.histogram.edges, np.ldexp(base.histogram.edges, k))


class TestHinich:
    def test_every_point_excluded_gives_pfa_one(self):
        # a pure tone on an exact bin leaves no power off bin 5, so every
        # principal-domain point has a dead denominator
        n = np.arange(64)
        ph = np.random.default_rng(22).uniform(0, 2 * np.pi, 32)[:, None]
        rep = pg.gaussianity_report(pg.Ensemble(np.cos(2 * np.pi * 5 * n / 64 + ph)), 64)
        assert rep.bicoherence.points == ()
        assert rep.bicoherence.excluded == _principal_index(64)[0].size
        assert (rep.statistic, rep.dof, rep.pfa) == (0.0, 480, 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_constant_records_degenerate(self, scale):
        # once each record's mean is removed, only rounding residue would be tested
        v = np.repeat(np.random.default_rng(1).standard_normal((64, 1)), 60, axis=1)
        with pytest.raises(pg.DegenerateDataError, match="every record is constant"):
            pg.gaussianity_report(pg.Ensemble(v * scale))

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_constant_plus_shared_shape_degenerate(self, scale):
        # per-index and per-record centring leave only rounding residue, whose
        # bicoherence read S=14599, PFA=0 (S=6181 scaled by 1e-3)
        c = np.random.default_rng(1).standard_normal((64, 1))
        v = c + np.sin(np.arange(60) / 7)
        with pytest.raises(pg.DegenerateDataError, match="every record is constant"):
            pg.gaussianity_report(pg.Ensemble(v * scale))

    def test_gaussian_on_large_offset_reported(self):
        # at unit scale the noise is about 2**-21 of max|v|, far above the residue rule
        v = np.random.default_rng(5).standard_normal((64, 60)) + 2.0**20
        rep = pg.gaussianity_report(pg.Ensemble(v))
        assert rep.dof == 480 and 0.0 < rep.pfa <= 1.0

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
        # scipy.special would be most of the package's import time; nothing at runtime needs it
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, polygauss; print('scipy.special' in sys.modules)"],
            env=src_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_cli_runs_leave_scipy_unloaded(self, tmp_path):
        # scipy is an oracle for the tests only: a simulate and a test run never import it
        rows = np.random.default_rng(5).standard_normal((16, 20))
        csv = tmp_path / "ens.csv"
        csv.write_text("rep,index,value\n" + "".join(
            f"{r},{i},{x!r}\n" for r, rec in enumerate(rows.tolist()) for i, x in enumerate(rec)))
        runs = [["simulate", "--paper", "--reps", "16", "--seed", "1",
                 "--out-dir", str(tmp_path / "sim")],
                ["test", "--in", str(csv), "--out-dir", str(tmp_path / "report")]]
        code = ("import sys\nfrom polygauss.cli import main\n"
                f"codes = [main(argv) for argv in {runs!r}]\n"
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "[0, 0] []"

    def test_matches_scipy_at_principal_domain_dofs(self):
        # the dof of every FFT length M = 8 .. 1024, from mean - 8 sd to mean + 40 sd
        from scipy.special import gammaincc

        worst = 0.0
        for p in range(3, 11):
            dof = 2 * _principal_index(2**p)[0].size
            for x in (dof + np.arange(-8.0, 40.25, 0.25) * math.sqrt(2.0 * dof)).tolist():
                ref = float(gammaincc(dof / 2, x / 2))
                if x >= 0 and ref > 1e-300:
                    worst = max(worst, abs(pg.chi2_survival(x, dof) - ref) / ref)
        assert worst <= 2e-11

    def test_matches_scipy_at_small_dof(self):
        from scipy.special import gammaincc

        worst = 0.0
        for dof in range(1, 60):
            for x in np.linspace(0.0, 4.0 * dof + 50.0, 201).tolist():
                ref = float(gammaincc(dof / 2, x / 2))
                if ref > 1e-300:
                    worst = max(worst, abs(pg.chi2_survival(x, dof) - ref) / ref)
        assert worst <= 1e-13


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

    @pytest.mark.parametrize("shape", [(500, 60), (1, 1000)])
    def test_matches_fourth_power_formula(self, shape):
        # the estimator squares u**2 instead of raising u to the 4th; float64 rounding only
        v = np.random.default_rng(19).laplace(size=shape)
        axis = 0 if shape[0] > 1 else None  # one record: kurtosis across time
        u = v - v.mean(axis=axis, keepdims=True)
        ref = np.mean(np.mean(u**4, axis=axis) / np.mean(u**2, axis=axis) ** 2 - 3.0)
        assert pg.excess_kurtosis(pg.Ensemble(v)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_single_record_fallback(self):
        rng = np.random.default_rng(18)
        w = rng.uniform(-math.sqrt(3), math.sqrt(3), 10**6)
        assert pg.excess_kurtosis(pg.Ensemble(w[None, :])) == pytest.approx(-1.2, abs=0.05)

    @pytest.mark.parametrize("shape", [(500, 60), (1, 1000)])
    def test_extreme_magnitude_keeps_its_value(self, shape):
        # u**4 of data near 1e-100 underflows, and near 1e100 overflows, unless rescaled
        v = np.random.default_rng(20).laplace(size=shape)
        base = pg.excess_kurtosis(pg.Ensemble(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-200, 1e-100, 1e100, 1e200):
                assert pg.excess_kurtosis(pg.Ensemble(v * scale)) == pytest.approx(base, rel=1e-12)
            # subnormal data is rescaled exactly too, whatever precision it has left
            sub = v * 2.0**-1060
            assert pg.excess_kurtosis(pg.Ensemble(sub)) == pg.excess_kurtosis(
                pg.Ensemble(sub * 2.0**1023))

    def test_report_rescales_once_and_keeps_the_bits(self, monkeypatch):
        from polygauss import gaussianity

        ens = pg.Ensemble(np.random.default_rng(21).laplace(size=(200, 60)) * 1e-7)
        expected = pg.excess_kurtosis(ens)
        calls = []
        unit_scaled = gaussianity._unit_scaled
        monkeypatch.setattr(gaussianity, "_unit_scaled",
                            lambda *a: calls.append(a) or unit_scaled(*a))
        assert pg.gaussianity_report(ens).avg_kurtosis == expected
        assert len(calls) == 1

    def test_too_few_replications(self):
        with pytest.raises(pg.DegenerateDataError):
            pg.excess_kurtosis(pg.Ensemble(np.random.default_rng(0).standard_normal((3, 5))))
        # a single record's samples are the replications of one index
        with pytest.raises(pg.DegenerateDataError):
            pg.excess_kurtosis(pg.Ensemble(np.random.default_rng(0).standard_normal((1, 3))))

    def test_degenerate_index(self):
        v = np.random.default_rng(1).standard_normal((10, 4))
        v[:, 2] = 5.0
        with pytest.raises(pg.DegenerateDataError):
            pg.excess_kurtosis(pg.Ensemble(v))

    def test_report_rejects_degenerate_index_before_triple_products(self, monkeypatch):
        from polygauss import gaussianity

        v = np.random.default_rng(1).standard_normal((64, 60))
        v[:, 2] = 5.0
        calls = []
        principal_triples = gaussianity._principal_triples
        monkeypatch.setattr(gaussianity, "_principal_triples",
                            lambda *a: calls.append(a) or principal_triples(*a))
        with pytest.raises(pg.DegenerateDataError, match="zero variance"):
            pg.gaussianity_report(pg.Ensemble(v))
        assert calls == []


class TestHistogram:
    def test_worked_binning(self):
        h = pg.histogram([0.0, 0.5, 1.0], 2)
        npt.assert_array_equal(h.edges, [0.0, 0.5, 1.0])
        npt.assert_array_equal(h.counts, [2, 1])

    @pytest.mark.parametrize("bins", [2**63 - 1, 10**20, np.int64(2**63 - 1)])
    def test_bins_beyond_any_array_rejected(self, bins):
        # np.linspace would raise IndexError or ValueError; nothing is allocated
        with pytest.raises(pg.ConfigError, match="larger than any array"):
            pg.histogram([0.0, 1.0], bins)

    def test_identical_values(self):
        h = pg.histogram([3.0] * 7, 4)
        assert int(h.counts.sum()) == 7
        assert np.count_nonzero(h.counts) == 1
        assert (h.edges[0], h.edges[-1]) == (2.5, 3.5)

    def test_identical_values_past_half_an_ulp(self):
        # 1e17 +- 0.5 rounds back to 1e17; the range is widened by whole ulps instead
        h = pg.histogram([1e17] * 7, 20)
        assert np.all(np.diff(h.edges) > 0)
        npt.assert_array_equal(h.counts, [0] * 9 + [7] + [0] * 10)

    def test_subnormal_range(self):
        # max - min = 5e-324, so (max - min) / bins rounds to 0 in data units
        v = np.zeros(480)
        v[np.random.default_rng(21).permutation(480)[:262]] = 5e-324
        rep = pg.gaussianity_report(pg.Ensemble(v.reshape(16, 30)))
        npt.assert_array_equal(rep.histogram.counts, [218] + [0] * 18 + [262])

    def test_clipping(self):
        # the minimum sits on the left edge of the right-closed bins, one index
        # before the first bin, and is clipped into it
        h = pg.histogram([-10.0, 0.5, 10.0], 2)
        npt.assert_array_equal(h.edges, [-10.0, 0.0, 10.0])
        npt.assert_array_equal(h.counts, [1, 2])
        assert int(h.counts.sum()) == 3

    def test_normal_cdf_oracle(self):
        from math import erf

        rng = np.random.default_rng(19)
        v = rng.standard_normal(10**6)
        h = pg.histogram(v, 50)
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
        assert int(h.counts.sum()) == len(values)

    def test_overflowing_range(self):
        # 600 finite values spanning +-1.7e308: max - min is past the largest float64
        v = np.linspace(-1.0, 1.0, 600) * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pg.DegenerateDataError, match="overflow"):
                pg.histogram(v, 20)


class TestEnsemble:
    @pytest.mark.parametrize("values", [np.zeros((8, 0)), np.array([])])
    def test_records_without_samples_rejected(self, values):
        with pytest.raises(pg.ConfigError, match="non-empty"):
            pg.Ensemble(values)


class TestSegmentRecord:
    def test_splits_frames(self):
        ens = pg.segment_record(np.arange(100.0), 16)
        assert ens.values.shape == (6, 16)
        npt.assert_array_equal(ens.values[0], np.arange(16.0))

    def test_too_short(self):
        with pytest.raises(pg.ConfigError):
            pg.segment_record(np.arange(5.0), 16)
