import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polygauss as pg
from polygauss.noise import _seed_words

REF_G0 = 1.0 + 0.5 * math.cos(math.pi / 4) + 0.5 * math.cos(math.pi / 6)


class TestSynthSignal:
    def test_reference_first_sample(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        g = pg.synth_signal(pg.SignalSpec.reference(), grid)
        assert g.values[0] == pytest.approx(REF_G0, abs=1e-12)
        assert g.values[0] == pytest.approx(1.7865661, abs=1e-6)

    def test_empty_spec_is_zero(self):
        grid = pg.SampleGrid.uniform(10, 1.0)
        npt.assert_array_equal(pg.synth_signal(pg.SignalSpec(), grid).values, np.zeros(10))

    def test_constant_component(self):
        grid = pg.SampleGrid.uniform(8, 0.5)
        g = pg.synth_signal(pg.SignalSpec(((1.0, 0.0, 0.0, 0.0),)), grid)
        npt.assert_allclose(g.values, np.ones(8), atol=1e-15)

    @pytest.mark.parametrize("component,message", [
        ((1.0, 0.0, 2.0), "each component is"),
        ((1.0, np.nan, 2.0, 0.0), "finite"),
    ])
    def test_malformed_component_rejected(self, component, message):
        with pytest.raises(pg.ConfigError, match=message):
            pg.SignalSpec((component,))

    def test_envelope_bound(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        spec = pg.SignalSpec.reference()
        g = pg.synth_signal(spec, grid)
        bound = sum(abs(a) * np.exp(d * grid.points) for a, d, _, _ in spec.components)
        assert np.all(np.abs(g.values) <= bound + 1e-12)


class TestDrawNoise:
    @pytest.mark.parametrize("family", pg.NOISE_FAMILIES)
    def test_mean_and_variance(self, family):
        spec = pg.NoiseSpec(family)
        w = pg.draw_noise(spec, 10**6, 101, 0)
        assert abs(w.mean()) < 0.005
        assert abs(w.var() - 1.0) < 0.01

    def test_uniform_support(self):
        w = pg.draw_noise(pg.NoiseSpec("uniform"), 10**5, 5, 0)
        assert np.all(np.abs(w) <= math.sqrt(3.0))

    @pytest.mark.parametrize("family,target,tol", [
        ("gaussian", 0.0, 0.1),
        ("laplacian", 3.0, 0.1),
        ("uniform", -1.2, 0.05),
        ("gamma", 6.0 / 9.0, 0.1),
    ])
    def test_generator_kurtosis(self, family, target, tol):
        w = pg.draw_noise(pg.NoiseSpec(family), 2 * 10**6, 77, 3)
        k = pg.excess_kurtosis(pg.Ensemble(w[:, None]))
        assert abs(k - target) < tol

    @pytest.mark.parametrize("spec,public", [
        (pg.NoiseSpec("gaussian"), lambda g, n: g.standard_normal(n)),
        (pg.NoiseSpec("laplacian"), lambda g, n: g.laplace(0.0, 1.0 / math.sqrt(2.0), n)),
        (pg.NoiseSpec("uniform"), lambda g, n: g.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)),
        (pg.NoiseSpec("gamma"), lambda g, n: (g.gamma(9.0, 1.0, n) - 9.0) / math.sqrt(9.0)),
        (pg.NoiseSpec("gamma", gamma_shape=2.5),
         lambda g, n: (g.gamma(2.5, 1.0, n) - 2.5) / math.sqrt(2.5)),
    ], ids=["gaussian", "laplacian", "uniform", "gamma", "gamma-2.5"])
    def test_bitwise_equal_to_public_numpy_call(self, spec, public):
        for seed, r, n in ((0, 0, 1), (7, 3, 60), (2**40 + 5, 11, 257)):
            got = pg.draw_noise(spec, n, seed, r)
            ref = public(np.random.default_rng((seed, r)), n)
            assert got.tobytes() == ref.tobytes()

    def test_determinism(self):
        spec = pg.NoiseSpec("laplacian")
        a = pg.draw_noise(spec, 100, 42, 7)
        b = pg.draw_noise(spec, 100, 42, 7)
        npt.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        spec = pg.NoiseSpec("gaussian")
        a = pg.draw_noise(spec, 10, 42, 0)
        b = pg.draw_noise(spec, 10, 42, 1)
        assert not np.array_equal(a, b)

    def test_invalid_family(self):
        with pytest.raises(pg.ConfigError):
            pg.NoiseSpec("cauchy")

    def test_invalid_gamma_shape(self):
        for shape in (0.0, math.nan, math.inf):
            with pytest.raises(pg.ConfigError):
                pg.NoiseSpec("gamma", gamma_shape=shape)

    def test_need_one_draw(self):
        with pytest.raises(pg.ConfigError):
            pg.draw_noise(pg.NoiseSpec("gaussian"), 0, 1, 0)



class TestDrawNoiseEnsemble:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), reps=st.integers(1, 64), n=st.integers(1, 80))
    @example(seed=0, reps=3, n=1)
    @example(seed=1, reps=64, n=80)
    @example(seed=2**32 - 1, reps=5, n=7)  # the largest one-word seed
    @example(seed=2**32, reps=5, n=7)      # the smallest two-word seed
    @example(seed=2**64 - 1, reps=5, n=7)
    def test_rows_equal_per_stream_draws(self, seed, reps, n):
        words = _seed_words(seed, reps)
        assert words.shape == (reps, 4) and words.dtype == np.uint64 and words.flags.c_contiguous
        for r, row in enumerate(words):
            ref = np.random.SeedSequence((seed, r)).generate_state(4, np.uint64)
            npt.assert_array_equal(row, ref)
        for family in pg.NOISE_FAMILIES:
            spec = pg.NoiseSpec(family)
            W = pg.draw_noise_ensemble(spec, reps, n, seed)
            assert W.shape == (reps, n)
            for r in range(reps):
                assert W[r].tobytes() == pg.draw_noise(spec, n, seed, r).tobytes()

    def test_seed_masked_like_rng_stream(self):
        spec = pg.NoiseSpec("gamma", gamma_shape=2.5)
        W = pg.draw_noise_ensemble(spec, 4, 9, -3)
        for r in range(4):
            assert W[r].tobytes() == pg.draw_noise(spec, 9, -3, r).tobytes()

    def test_index_beyond_one_word_rejected(self):
        # the check comes before any seed word or draw is computed
        with pytest.raises(pg.ConfigError, match="32-bit"):
            _seed_words(1, 2**32 + 1)
        with pytest.raises(pg.ConfigError, match="32-bit"):
            pg.draw_noise_ensemble(pg.NoiseSpec("gaussian"), 2**32 + 1, 1, 1)

    @pytest.mark.parametrize("reps,n", [(0, 5), (5, 0)])
    def test_needs_one_row_and_one_draw(self, reps, n):
        with pytest.raises(pg.ConfigError):
            pg.draw_noise_ensemble(pg.NoiseSpec("gaussian"), reps, n, 1)


class TestScaleToSnr:
    """``noise_sigma`` is the factor that scales unit-variance noise to the target SNR."""

    def test_zero_db_unit_power_unchanged(self):
        sig = pg.Sequence(np.ones(4), pg.SampleGrid.uniform(4, 1.0))
        assert pg.noise_sigma(sig, 0.0) == 1.0

    def test_ten_db_variance(self):
        sig = pg.Sequence(np.ones(4), pg.SampleGrid.uniform(4, 1.0))
        assert pg.noise_sigma(sig, 10.0) ** 2 == pytest.approx(0.1, abs=1e-15)

    def test_reference_signal_power_oracle(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        g = pg.synth_signal(pg.SignalSpec.reference(), grid)
        power = sum(v * v for v in g.values) / 60.0  # direct-sum oracle
        assert pg.noise_sigma(g, 10.0) ** 2 == pytest.approx(power / 10.0, rel=1e-12)

    def test_zero_signal_rejected(self):
        grid = pg.SampleGrid.uniform(4, 1.0)
        with pytest.raises(pg.UndefinedSnrError):
            pg.noise_sigma(pg.Sequence(np.zeros(4), grid), 10.0)

    @pytest.mark.parametrize("snr_db", [math.inf, -math.inf, -4000.0, 4000.0, math.nan])
    def test_sigma_outside_zero_and_infinity_rejected(self, snr_db):
        # 10 ** 400 overflows and 10 ** -400 underflows: no usable noise level reaches the SNR
        sig = pg.Sequence(np.ones(4), pg.SampleGrid.uniform(4, 1.0))
        with pytest.raises(pg.DegenerateDataError, match="zero or non-finite"):
            pg.noise_sigma(sig, snr_db)
