import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import polygauss as pg


def small_config(seed=1, reps=200, families=("gaussian",)):
    return pg.ExperimentConfig.reference(replications=reps, seed=seed, families=families)


class TestDeriveStream:
    """Per-replication substreams are ``draw_noise(spec, n, seed, index)``."""

    def test_same_pair_same_stream(self):
        a = pg.draw_noise(pg.NoiseSpec("gaussian"), 5, 42, 0)
        b = pg.draw_noise(pg.NoiseSpec("gaussian"), 5, 42, 0)
        npt.assert_array_equal(a, b)

    def test_first_draw_regression(self):
        # pinned after the first implementation run; guards the stream layout
        (v0,) = pg.draw_noise(pg.NoiseSpec("gaussian"), 1, 42, 0)
        (v1,) = pg.draw_noise(pg.NoiseSpec("gaussian"), 1, 42, 1)
        assert v0 == pytest.approx(0.30471707975443135, abs=1e-15)
        assert v1 == pytest.approx(-0.37361989538310314, abs=1e-15)
        assert v0 != v1

    def test_negative_index_rejected(self):
        with pytest.raises(pg.ConfigError, match="non-negative"):
            pg.draw_noise(pg.NoiseSpec("gaussian"), 1, 1, -1)


class TestRunExperiment:
    def test_deterministic(self):
        r1 = pg.run_experiment(small_config())
        r2 = pg.run_experiment(small_config())
        for f1, f2 in zip(r1.families, r2.families):
            assert f1.output_report.statistic == f2.output_report.statistic
            assert f1.output_report.avg_kurtosis == f2.output_report.avg_kurtosis
            npt.assert_array_equal(f1.output_report.histogram.counts,
                                   f2.output_report.histogram.counts)

    def test_reports_all_families(self):
        res = pg.run_experiment(small_config(families=("uniform", "laplacian")))
        assert [f.family for f in res.families] == ["uniform", "laplacian"]
        for fam in res.families:
            assert fam.output_report.pfa == pytest.approx(
                pg.chi2_survival(fam.output_report.statistic, fam.output_report.dof))

    def test_variance_reduction(self):
        cfg = small_config(reps=400, families=("laplacian",))
        res = pg.run_experiment(cfg)
        grid = cfg.grid
        g = pg.synth_signal(cfg.signal, grid)
        sigma2 = pg.noise_sigma(g, cfg.snr_db) ** 2
        # rebuild the error ensemble exactly as the harness does
        fam_seed = pg.experiment._family_seed(cfg.seed, "laplacian")
        W = np.array([pg.draw_noise(pg.NoiseSpec("laplacian"), 60, fam_seed, r)
                      for r in range(400)]) * np.sqrt(sigma2)
        basis = pg.build_basis(grid, res.selection.chosen)
        E = (W + g.values) @ basis.values.T / basis.norms @ basis.values - g.values
        assert np.mean(np.var(E, axis=0)) < sigma2

    def test_bias_consistency(self):
        cfg = small_config(reps=2000)
        res = pg.run_experiment(cfg)
        grid = cfg.grid
        g = pg.synth_signal(cfg.signal, grid)
        sigma2 = pg.noise_sigma(g, cfg.snr_db) ** 2
        J = res.selection.chosen
        op = pg.projection_operator(pg.build_basis(grid, J))
        expected_bias = op.xi @ g.values - g.values
        fam_seed = pg.experiment._family_seed(cfg.seed, "gaussian")
        W = np.array([pg.draw_noise(pg.NoiseSpec("gaussian"), 60, fam_seed, r)
                      for r in range(2000)]) * np.sqrt(sigma2)
        E = (W + g.values) @ op.basis.values.T / op.basis.norms @ op.basis.values - g.values
        se = np.sqrt(sigma2 * np.diag(op.xi) / 2000)
        assert np.all(np.abs(E.mean(axis=0) - expected_bias) <= 5 * se)

    def test_one_order_selection_per_study(self):
        cfg = small_config(reps=16, families=("gaussian", "gamma"))
        g = pg.synth_signal(cfg.signal, cfg.grid)
        ref = pg.select_order(cfg.grid, "oracle", pg.experiment.ORDER_RANGE, signal=g,
                              noise_var=pg.noise_sigma(g, cfg.snr_db) ** 2)
        sel = pg.run_experiment(cfg).selection
        assert (sel.chosen, sel.risk_curve) == (ref.chosen, ref.risk_curve)
        fields = tuple(f.name for f in dataclasses.fields(pg.FamilyResult))
        assert fields == ("family", "input_report", "output_report")

    def test_gaussianization_ordering(self):
        res = pg.run_experiment(pg.ExperimentConfig.reference(
            replications=500, seed=3, families=("laplacian", "uniform", "gamma")))
        for fam in res.families:
            assert abs(fam.output_report.avg_kurtosis) < abs(fam.input_report.avg_kurtosis)

    def test_degenerate_snr(self):
        cfg = pg.ExperimentConfig.reference(replications=10, seed=1)
        bad = pg.ExperimentConfig(grid=cfg.grid, signal=cfg.signal, snr_db=np.inf,
                                  families=("gaussian",), replications=10, seed=1)
        with pytest.raises(pg.DegenerateDataError):
            pg.run_experiment(bad)

    def test_order_one_study_degenerate_before_draws(self, monkeypatch):
        # at -3 dB the oracle risk picks J=1, whose output error the report cannot test
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn for a study whose output cannot be tested")

        monkeypatch.setattr(pg.experiment, "draw_noise_ensemble", no_draws)
        with pytest.raises(pg.DegenerateDataError, match="J=1"):
            pg.run_experiment(pg.ExperimentConfig.reference(16, 1, snr_db=-3.0))

    def test_too_few_replications_before_draws(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn for a study too small to test")

        monkeypatch.setattr(pg.experiment, "draw_noise_ensemble", no_draws)
        with pytest.raises(pg.InsufficientFramesError, match="at least 8 replications, got 4"):
            pg.run_experiment(pg.ExperimentConfig.reference(4, 1))

    def test_config_validation(self):
        with pytest.raises(pg.ConfigError):
            pg.ExperimentConfig.reference(replications=0, seed=1)
        with pytest.raises(pg.ConfigError):
            pg.ExperimentConfig.reference(replications=10, seed=1, families=())
        with pytest.raises(pg.ConfigError):
            pg.ExperimentConfig.reference(replications=10, seed=1, families=("weird",))
        # every family's spec is checked, so a bad shape fails even without "gamma"
        for shape in (-1.0, np.nan, np.inf):
            with pytest.raises(pg.ConfigError):
                pg.ExperimentConfig.reference(replications=10, seed=1, families=("gaussian",),
                                              gamma_shape=shape)

    @pytest.mark.parametrize("setup", [
        {"snr_db": np.nan},
        {"fft_len": 3},
        {"fft_len": 0},
        {"fft_len": 32},  # shorter than the 60-point reference records
        {"bins": 0},
        {"families": ("gaussian", "gamma", "gaussian")},  # one report per family
        {"grid": pg.SampleGrid.uniform(2, 0.15)},  # fewer points than the highest order
    ])
    def test_setup_checked_at_construction(self, setup):
        with pytest.raises(pg.ConfigError):
            pg.ExperimentConfig.reference(replications=10, seed=1, **setup)

    @pytest.mark.parametrize("setup", [{"bins": 2**63 - 1}, {"fft_len": 2**62}])
    def test_oversized_setup_rejected_at_construction(self, monkeypatch, setup):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the sizes were checked")

        monkeypatch.setattr(pg.experiment, "draw_noise_ensemble", no_draws)
        with pytest.raises(pg.ConfigError, match="larger than any array"):
            pg.run_experiment(pg.ExperimentConfig(40, 1, **setup))

    def test_input_ensemble_is_per_stream_draws(self):
        # run_experiment draws each family in one pass; rebuild it one stream at a time
        cfg = small_config(seed=5, reps=64, families=("gamma",))
        (fam,) = pg.run_experiment(cfg).families
        fam_seed = pg.experiment._family_seed(cfg.seed, "gamma")
        sigma = pg.noise_sigma(pg.synth_signal(cfg.signal, cfg.grid), cfg.snr_db)
        W = np.array([pg.draw_noise(pg.NoiseSpec("gamma"), 60, fam_seed, r)
                      for r in range(64)]) * sigma
        ref = pg.gaussianity_report(pg.Ensemble(W), cfg.fft_len, cfg.bins)
        assert fam.input_report.statistic == ref.statistic
        assert fam.input_report.avg_kurtosis == ref.avg_kurtosis
        npt.assert_array_equal(fam.input_report.histogram.counts, ref.histogram.counts)

    def test_one_basis_build(self, basis_builds):
        pg.run_experiment(small_config(reps=16))
        assert basis_builds == [3]  # select_order's build at the top of the order range

    def test_foreign_exception_propagates_unchanged(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, message, detail):
                super().__init__(message, detail)

        raised = TwoArgError("out of memory", 42)

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(pg.experiment, "gaussianity_report", fail)
        with pytest.raises(TwoArgError) as info:
            pg.run_experiment(small_config(reps=16))
        assert info.value is raised

    def test_package_error_names_family(self, monkeypatch):
        # the config rejects fewer than MIN_FRAMES replications, so the report's
        # own frame error is raised here
        def too_few(*args, **kwargs):
            raise pg.InsufficientFramesError("need at least 8 records, got 1")

        monkeypatch.setattr(pg.experiment, "gaussianity_report", too_few)
        with pytest.raises(pg.InsufficientFramesError, match="family 'gaussian'"):
            pg.run_experiment(small_config(reps=16))


class TestEmitReport:
    def test_manifest_single_family(self, tmp_path):
        res = pg.run_experiment(small_config(reps=64))
        files = pg.emit_report(res, str(tmp_path))
        assert len(files) == 5
        names = sorted(os.path.basename(f) for f in files)
        assert names == [
            "gaussian_input_bicoherence.csv",
            "gaussian_input_histogram.csv",
            "gaussian_output_bicoherence.csv",
            "gaussian_output_histogram.csv",
            "summary.json",
        ]

    def test_empty_result_summary_only(self, tmp_path):
        res = dataclasses.replace(pg.run_experiment(small_config()), families=())
        files = pg.emit_report(res, str(tmp_path))
        assert [os.path.basename(f) for f in files] == ["summary.json"]

    def test_reemission_byte_identical(self, tmp_path):
        res = pg.run_experiment(small_config(reps=64))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        f1 = pg.emit_report(res, str(d1))
        f2 = pg.emit_report(res, str(d2))
        for a, b in zip(f1, f2):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_summary_schema(self, tmp_path):
        res = pg.run_experiment(small_config(reps=64))
        pg.emit_report(res, str(tmp_path))
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert len(doc) == 1
        keys = {"family", "J", "risk_curve", "pfa_input", "pfa_output", "kurt_input",
                "kurt_output", "S_input", "S_output", "dof", "M", "R", "seed"}
        assert set(doc[0]) == keys
        assert doc[0]["family"] == "gaussian"
        assert doc[0]["R"] == 64
