import math

import numpy as np
import numpy.testing as npt
import pytest

import polygauss as pg

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
        w = pg.draw_noise(spec, 10**6, pg.RngStream(101, 0))
        assert abs(w.mean()) < 0.005
        assert abs(w.var() - 1.0) < 0.01

    def test_uniform_support(self):
        w = pg.draw_noise(pg.NoiseSpec("uniform"), 10**5, pg.RngStream(5, 0))
        assert np.all(np.abs(w) <= math.sqrt(3.0))

    @pytest.mark.parametrize("family,target,tol", [
        ("gaussian", 0.0, 0.1),
        ("laplacian", 3.0, 0.1),
        ("uniform", -1.2, 0.05),
        ("gamma", 6.0 / 9.0, 0.1),
    ])
    def test_generator_kurtosis(self, family, target, tol):
        w = pg.draw_noise(pg.NoiseSpec(family), 2 * 10**6, pg.RngStream(77, 3))
        k = pg.excess_kurtosis(pg.Ensemble(w[None, :]))
        assert abs(k - target) < tol

    def test_determinism(self):
        spec = pg.NoiseSpec("laplacian")
        a = pg.draw_noise(spec, 100, pg.RngStream(42, 7))
        b = pg.draw_noise(spec, 100, pg.RngStream(42, 7))
        npt.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        spec = pg.NoiseSpec("gaussian")
        a = pg.draw_noise(spec, 10, pg.RngStream(42, 0))
        b = pg.draw_noise(spec, 10, pg.RngStream(42, 1))
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
            pg.draw_noise(pg.NoiseSpec("gaussian"), 0, pg.RngStream(1, 0))


class TestScaleToSnr:
    def test_zero_db_unit_power_unchanged(self):
        grid = pg.SampleGrid.uniform(4, 1.0)
        sig = pg.Sequence(np.ones(4), grid)
        w = np.array([0.5, -1.0, 2.0, 0.0])
        npt.assert_allclose(pg.scale_to_snr(w, sig, 0.0), w, atol=1e-15)

    def test_ten_db_variance(self):
        grid = pg.SampleGrid.uniform(4, 1.0)
        sig = pg.Sequence(np.ones(4), grid)
        scaled = pg.scale_to_snr(np.ones(4), sig, 10.0)
        npt.assert_allclose(scaled**2, 0.1, atol=1e-15)

    def test_reference_signal_power_oracle(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        g = pg.synth_signal(pg.SignalSpec.reference(), grid)
        power = sum(v * v for v in g.values) / 60.0  # direct-sum oracle
        assert pg.noise_sigma(g, 10.0) ** 2 == pytest.approx(power / 10.0, rel=1e-12)

    def test_zero_signal_rejected(self):
        grid = pg.SampleGrid.uniform(4, 1.0)
        with pytest.raises(pg.UndefinedSnrError):
            pg.scale_to_snr(np.ones(4), pg.Sequence(np.zeros(4), grid), 10.0)


class TestMakeObservation:
    def test_sum(self):
        grid = pg.SampleGrid.uniform(2, 1.0)
        obs = pg.make_observation(pg.Sequence(np.array([1.0, 2.0]), grid), np.zeros(2))
        npt.assert_array_equal(obs.values, [1.0, 2.0])
        obs = pg.make_observation(pg.Sequence(np.zeros(2), grid), np.array([3.0, -1.0]))
        npt.assert_array_equal(obs.values, [3.0, -1.0])

    def test_observation_is_exact_sum(self):
        grid = pg.SampleGrid.uniform(60, 0.15)
        g = pg.synth_signal(pg.SignalSpec.reference(), grid)
        w = pg.scale_to_snr(pg.draw_noise(pg.NoiseSpec("gaussian"), 60, pg.RngStream(9, 0)), g, 10.0)
        x = pg.make_observation(g, w)
        npt.assert_array_equal(x.values, g.values + w)

    def test_length_mismatch(self):
        grid = pg.SampleGrid.uniform(2, 1.0)
        with pytest.raises(pg.DimensionError):
            pg.make_observation(pg.Sequence(np.zeros(2), grid), np.zeros(3))
