import json
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import polygauss as pg
from conftest import src_env
from polygauss.cli import main
from polygauss.csvio import read_table_csv, write_report_tables, write_sequence_csv


def run(*argv):
    return main(list(argv))


def run_process(*argv):
    """Run the command line in a fresh interpreter, with Python's default warning filters."""
    return subprocess.run([sys.executable, "-m", "polygauss.cli", *argv],
                          capture_output=True, text=True, env=src_env())


class TestGenSignal:
    def test_reference_signal(self, tmp_path):
        out = str(tmp_path / "sig.csv")
        assert run("gen-signal", "--paper-signal", "--n", "60", "--dt", "0.15",
                   "--out", out) == 0
        kind, seq = read_table_csv(out)
        assert kind == "sequence"
        assert len(seq.values) == 60
        assert seq.values[0] == pytest.approx(1.7865661, abs=1e-6)

    def test_no_components_zero(self, tmp_path):
        out = str(tmp_path / "zero.csv")
        assert run("gen-signal", "--n", "2", "--dt", "1", "--out", out) == 0
        _, seq = read_table_csv(out)
        npt.assert_array_equal(seq.values, [0.0, 0.0])

    def test_bad_n(self, tmp_path):
        assert run("gen-signal", "--n", "0", "--dt", "1",
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_unknown_flag(self, tmp_path):
        assert run("gen-signal", "--n", "4", "--dt", "1", "--bogus", "1",
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_overflowing_dt_rejected_without_warning(self, tmp_path):
        proc = run_process("gen-signal", "--paper-signal", "--n", "60", "--dt", "1e308",
                           "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert "grid points must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_component_with_paper_signal_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("gen-signal", "--paper-signal", "--component", "1,0,1,0",
                   "--n", "60", "--dt", "0.15", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--component" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("component", ["a,b,c,d", "1,2,3", "1,2,3,4,5"])
    def test_malformed_component(self, tmp_path, capsys, component):
        out = tmp_path / "x.csv"
        assert run("gen-signal", "--component", component, "--n", "10", "--dt", "1",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--component" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_component_one_error_line(self, tmp_path, capsys):
        # exp(1000 t) overflows; the finiteness check reports it without a RuntimeWarning
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen-signal", "--n", "100", "--dt", "1", "--component", "1,1000,1,0",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "error: sequence values must be finite\n"
        assert not out.exists()


class TestTransform:
    def write_seq(self, tmp_path, values, dt=1.0):
        grid = pg.SampleGrid.uniform(len(values), dt)
        path = str(tmp_path / "in.csv")
        write_sequence_csv(path, pg.Sequence(np.asarray(values, float), grid))
        return path

    @pytest.mark.parametrize("order, code", [("1", 0), ("2", 2)])
    def test_span_beyond_float64_without_warning(self, tmp_path, order, code):
        src = tmp_path / "in.csv"
        src.write_text("index,time,value\n0,-1e308,1.0\n1,1e308,2.0\n")
        proc = run_process("transform", "--in", str(src), "--order", order,
                           "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_worked_projection(self, tmp_path):
        src = self.write_seq(tmp_path, [1.0, 0.0, 0.0])
        out = str(tmp_path / "out.csv")
        assert run("transform", "--in", src, "--order", "2", "--out", out) == 0
        _, seq = read_table_csv(out)
        npt.assert_allclose(seq.values, [5 / 6, 1 / 3, -1 / 6], atol=1e-12)

    def test_full_order_identity(self, tmp_path):
        vals = list(np.random.default_rng(0).standard_normal(6))
        src = self.write_seq(tmp_path, vals)
        out = str(tmp_path / "out.csv")
        assert run("transform", "--in", src, "--order", "6", "--out", out) == 0
        _, seq = read_table_csv(out)
        npt.assert_allclose(seq.values, vals, atol=1e-10)

    def test_order_zero_rejected(self, tmp_path):
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        assert run("transform", "--in", src, "--order", "0",
                   "--out", str(tmp_path / "out.csv")) == 1

    def test_unreadable_input_and_unwritable_output_exit_io(self, tmp_path):
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        assert run("transform", "--in", str(tmp_path / "missing.csv"), "--order", "1",
                   "--out", str(tmp_path / "out.csv")) == 3
        assert run("transform", "--in", src, "--order", "1",
                   "--out", str(tmp_path / "no-dir" / "out.csv")) == 3

    def test_ensemble_input_and_non_integer_order_rejected(self, tmp_path, capsys):
        ens = tmp_path / "ens.csv"
        ens.write_text("rep,index,value\n0,0,1.0\n0,1,2.0\n")
        out = tmp_path / "out.csv"
        assert run("transform", "--in", str(ens), "--order", "1", "--out", str(out)) == 1
        assert "sequence CSV" in capsys.readouterr().err
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        assert run("transform", "--in", src, "--order", "abc", "--out", str(out)) == 1
        assert "--order" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_requires_sigma2(self, tmp_path):
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        assert run("transform", "--in", src, "--order", "auto",
                   "--out", str(tmp_path / "out.csv")) == 1

    def test_sigma2_without_auto_rejected(self, tmp_path, capsys):
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        out = tmp_path / "out.csv"
        assert run("transform", "--in", src, "--order", "3", "--sigma2", "0.1",
                   "--out", str(out)) == 1
        assert "--sigma2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["auto", "abc"])
    def test_flags_checked_before_the_table_is_read(self, tmp_path, order):
        out = tmp_path / "out.csv"
        assert run("transform", "--in", str(tmp_path / "missing.csv"), "--order", order,
                   "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("sigma2", ["nan", "inf"])
    def test_auto_non_finite_sigma2_rejected(self, tmp_path, capsys, sigma2):
        src = self.write_seq(tmp_path, [1.0, 2.0, 4.0, 3.0])
        out = tmp_path / "out.csv"
        assert run("transform", "--in", src, "--order", "auto", "--sigma2", sigma2,
                   "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert "noise_var" in captured.err and "risk curve" not in captured.out
        assert not out.exists()

    def test_auto_selects_and_prints(self, tmp_path, capsys):
        grid = pg.SampleGrid.uniform(40, 0.1)
        rng = np.random.default_rng(1)
        x = 2.0 + grid.points + 0.01 * rng.standard_normal(40)
        src = str(tmp_path / "in.csv")
        write_sequence_csv(src, pg.Sequence(x, grid))
        out = str(tmp_path / "out.csv")
        assert run("transform", "--in", src, "--order", "auto",
                   "--sigma2", "0.0001", "--out", out) == 0
        captured = capsys.readouterr().out
        assert "selected order:" in captured
        assert "risk curve" in captured
        _, fit = read_table_csv(out)
        npt.assert_allclose(fit.values, 2.0 + grid.points, atol=0.02)

    def test_auto_builds_the_basis_once(self, tmp_path, basis_builds):
        grid = pg.SampleGrid.uniform(40, 0.1)
        x = pg.Sequence(np.sin(grid.points) + 0.1 * np.random.default_rng(8).standard_normal(40),
                        grid)
        src, out, ref = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "ref.csv"
        write_sequence_csv(str(src), x)
        assert run("transform", "--in", str(src), "--order", "auto", "--sigma2", "0.01",
                   "--out", str(out)) == 0
        assert basis_builds == [40]
        # the same bytes as projecting onto a fresh build at the chosen order
        chosen = pg.select_order(grid, "penalized", range(1, 41), observed=x,
                                 noise_var=0.01).chosen
        write_sequence_csv(str(ref), pg.transform(
            pg.projection_operator(pg.build_basis(grid, chosen)), x))
        assert out.read_bytes() == ref.read_bytes()

    def test_overflowing_recurrence_one_error_line(self, tmp_path, capsys):
        # over 9 s the top orders of the recurrence overflow; the basis check reports
        # it without a RuntimeWarning
        src, out = tmp_path / "sig.csv", tmp_path / "out.csv"
        assert run("gen-signal", "--n", "1000", "--dt", "0.009", "--paper-signal",
                   "--out", str(src)) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("transform", "--in", str(src), "--order", "auto", "--sigma2", "0.01",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "risk curve" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("signal,sigma2", [
        (["--component", "1e160,0,1,-1.5707963267948966"], "1"),  # 1e160 sin(t) overflows
        (["--paper-signal"], "1e308"),           # 2 sigma^2 overflows
    ])
    def test_overflowing_risk_curve_exits_degenerate(self, tmp_path, signal, sigma2):
        src, out = tmp_path / "sig.csv", tmp_path / "out.csv"
        assert run("gen-signal", "--n", "240", "--dt", "0.0375", *signal, "--out", str(src)) == 0
        proc = run_process("transform", "--in", str(src), "--order", "auto", "--sigma2", sigma2,
                           "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the risk curve") and proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr and "selected order" not in proc.stdout
        assert not out.exists()

    def test_overflowing_fit_exits_degenerate(self, tmp_path):
        # a finite record near float64's maximum whose order-3 coefficients overflow
        grid = pg.SampleGrid.uniform(240, 0.0375)
        src, out = tmp_path / "big.csv", tmp_path / "out.csv"
        write_sequence_csv(str(src), pg.Sequence(1.5e307 + 1e307 * np.sin(grid.points), grid))
        proc = run_process("transform", "--in", str(src), "--order", "3", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the fit overflows float64")
        assert proc.stderr.count("\n") == 1 and "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_roundtrip_value_identical(self, tmp_path):
        vals = np.random.default_rng(2).standard_normal(10)
        grid = pg.SampleGrid.uniform(10, 0.15)
        path = str(tmp_path / "seq.csv")
        write_sequence_csv(path, pg.Sequence(vals, grid))
        _, seq = read_table_csv(path)
        npt.assert_array_equal(seq.values, vals)
        npt.assert_array_equal(seq.grid.points, grid.points)


class TestTestCommand:
    def write_ensemble(self, tmp_path, table):
        path = str(tmp_path / "ens.csv")
        lines = ["rep,index,value"]
        for r in range(table.shape[0]):
            for i in range(table.shape[1]):
                lines.append(f"{r},{i},{float(table[r, i])!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def test_zero_ensemble_degenerate(self, tmp_path, capsys):
        src = self.write_ensemble(tmp_path, np.zeros((16, 60)))
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 2
        # records that each hold one value, different from record to record
        records = np.repeat(np.random.default_rng(1).standard_normal((64, 1)), 60, axis=1)
        src = self.write_ensemble(tmp_path, records)
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 2
        assert "every record is constant" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_constant_plus_shared_shape_exits_degenerate(self, tmp_path, capsys):
        c = np.random.default_rng(1).standard_normal((64, 1))
        src = self.write_ensemble(tmp_path, c + np.sin(np.arange(60) / 7))
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 2
        assert "rounding residue" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_constant_ensemble_too_long_for_fft_exits_config(self, tmp_path, capsys):
        # records longer than the FFT length are a flag error whatever the values
        src = self.write_ensemble(tmp_path, np.ones((20, 100)))
        out_dir = tmp_path / "r"
        assert run("test", "--in", src, "--fft-len", "64", "--out-dir", str(out_dir)) == 1
        assert "longer than the FFT length" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_gaussian_ensemble_report(self, tmp_path, capsys):
        table = np.random.default_rng(3).standard_normal((64, 60))
        src = self.write_ensemble(tmp_path, table)
        out_dir = tmp_path / "rep"
        assert run("test", "--in", src, "--out-dir", str(out_dir)) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert 0.0 <= doc["pfa"] <= 1.0
        assert abs(doc["kurtosis"]) < 0.5
        assert (out_dir / "histogram.csv").exists()
        assert (out_dir / "bicoherence.csv").exists()
        assert "PFA=" in capsys.readouterr().out

    def test_coupled_triad_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        n = np.arange(60)
        ph1 = rng.uniform(0, 2 * np.pi, 64)[:, None]
        ph2 = rng.uniform(0, 2 * np.pi, 64)[:, None]
        t1 = 2 * np.pi * 5 * n / 64 + ph1
        t2 = 2 * np.pi * 3 * n / 64 + ph2
        src = self.write_ensemble(tmp_path, np.cos(t1) + np.cos(t2) + np.cos(t1 + t2))
        out_dir = tmp_path / "rep"
        assert run("test", "--in", src, "--out-dir", str(out_dir)) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["pfa"] < 0.01

    def test_defaults_match_library_report(self, tmp_path):
        table = np.random.default_rng(6).standard_normal((32, 60))
        src = self.write_ensemble(tmp_path, table)
        out_dir = tmp_path / "rep"
        assert run("test", "--in", src, "--out-dir", str(out_dir)) == 0
        rep = pg.gaussianity_report(pg.Ensemble(table))
        doc = {"S": rep.statistic, "dof": rep.dof, "pfa": rep.pfa, "kurtosis": rep.avg_kurtosis,
               "M": rep.fft_len, "K": rep.frames, "R": rep.replications}
        assert (out_dir / "report.json").read_text() == json.dumps(doc, indent=2,
                                                                   sort_keys=True) + "\n"
        write_report_tables(os.path.join(tmp_path, ""), rep)
        for name in ("histogram.csv", "bicoherence.csv"):
            assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_report_tables_returns_both_paths(self, tmp_path):
        rep = pg.gaussianity_report(pg.Ensemble(np.random.default_rng(6).standard_normal((8, 8))),
                                    fft_len=8)
        prefix = os.path.join(tmp_path, "x_")
        assert write_report_tables(prefix, rep) == [prefix + "histogram.csv",
                                                    prefix + "bicoherence.csv"]
        assert (tmp_path / "x_histogram.csv").exists() and (tmp_path / "x_bicoherence.csv").exists()

    def test_overflowing_ensemble_degenerate(self, tmp_path, capsys):
        # finite values whose max - min is past the largest float64
        table = np.random.default_rng(7).standard_normal((20, 30))
        table = table / np.abs(table).max() * 1.5e308
        src = self.write_ensemble(tmp_path, table)
        out_dir = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("test", "--in", src, "--out-dir", str(out_dir)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflow" in captured.err
        assert not out_dir.exists()

    def test_huge_ensemble_reports(self, tmp_path):
        # every moment is formed on a copy rescaled to unit scale
        table = np.random.default_rng(7).standard_normal((20, 30))
        src = self.write_ensemble(tmp_path, table * 1e200)
        out_dir = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("test", "--in", src, "--out-dir", str(out_dir)) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        rep = pg.gaussianity_report(pg.Ensemble(table))
        assert doc["dof"] == rep.dof
        assert doc["S"] == pytest.approx(rep.statistic, rel=1e-9)
        assert doc["kurtosis"] == pytest.approx(rep.avg_kurtosis, rel=1e-12)

    @pytest.mark.parametrize("flags", [
        ["--bins", "0"],
        ["--fft-len", "7"],
        ["--bins", "9223372036854775807"],  # edges beyond any array
        ["--fft-len", "4611686018427387904"],  # one frame beyond any array
    ])
    def test_bad_flag_rejected_before_reading(self, tmp_path, capsys, flags):
        # the input does not exist, so a command that read it first would exit 3
        out_dir = tmp_path / "r"
        assert run("test", "--in", str(tmp_path / "missing.csv"), *flags,
                   "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_long_sequence_segmented(self, tmp_path):
        grid = pg.SampleGrid.uniform(1024, 1.0)
        vals = np.random.default_rng(5).standard_normal(1024)
        src = str(tmp_path / "seq.csv")
        write_sequence_csv(src, pg.Sequence(vals, grid))
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 0


# well-formed apart from one extra field on the first data row, and large
# enough (8 reps; 8 frames of 64) to pass the battery if that field is ignored
_EXTRA_ENSEMBLE = "rep,index,value\n0,0,0.5,9\n" + "".join(
    f"{r},{i},{np.sin(3 * r + i)}\n" for r in range(8) for i in range(4) if (r, i) != (0, 0))
_EXTRA_SEQUENCE = "index,time,value\n0,0.0,0.5,9\n" + "".join(
    f"{i},{0.1 * i!r},{np.sin(3 * i)}\n" for i in range(1, 512))


def _indexed_sequence(index):
    """512 rows (8 frames of 64) with strictly increasing time and the given index column."""
    return "index,time,value\n" + "".join(
        f"{k},{0.1 * i!r},{np.sin(3 * i)}\n" for i, k in enumerate(index))


class TestMalformedCsv:
    @pytest.mark.parametrize("text", [
        "rep,index,value\n0,0,1.0\n0,0,2.0\n0,1,3.0\n1,1,4.0\n",  # duplicate hides a hole
        "rep,index,value\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,-1,4.0\n",  # negative index
        "rep,index,value\n0,0,1.0\n0,1,abc\n",                      # non-numeric field
        "rep,index,value\n0,0,1.0\n0,1\n",                          # short row
        "rep,index,value\n",                                         # no rows
        "index,time,value\n0,0.0,1.0\n1,0.1\n",                     # short sequence row
        _EXTRA_ENSEMBLE,                                             # extra ensemble field
        _EXTRA_SEQUENCE,                                             # extra sequence field
        # each fills the grid's (0, 0) hole if the parser honours comments or quotes, or
        # truncates a float to an integer rep, and the battery then passes
        _EXTRA_ENSEMBLE.replace("0,0,0.5,9", "0,0,0.5#x"),
        _EXTRA_ENSEMBLE.replace("0,0,0.5,9", '0,0,"0.5"'),
        _EXTRA_ENSEMBLE.replace("0,0,0.5,9", "0.5,0,0.5"),
        "rep,index,value\n  \n\t\r\n \n",                           # whitespace-only body
        "index,time,value\n",                                       # no sequence rows
        _indexed_sequence([0, 0, *range(2, 512)]),                  # duplicated index
        _indexed_sequence([*range(511), 512]),                      # skipped index
        _indexed_sequence([0, 2, 1, *range(3, 512)]),               # out-of-order indices
        "rep,index,value\n0,0,\u00a01.0\n",                         # non-ASCII space
        # the grid, sequence and ensemble checks
        "index,time,value\n0,0.0,1.0\n",                           # one-point grid
        "index,time,value\n0,1.0,1.0\n1,0.5,2.0\n",               # decreasing time
        "rep,index,value\n0,0,1.0\n0,1,inf\n",                     # non-finite value
    ], ids=["duplicate", "negative", "non_numeric", "short_row", "no_rows", "short_sequence",
            "extra_field", "extra_sequence_field", "comment_char", "quoted_field",
            "non_integer_rep", "whitespace_body", "no_sequence_rows", "duplicate_index",
            "skipped_index", "unordered_index", "non_ascii_space", "one_row",
            "decreasing_time", "inf_value"])
    def test_exit_config_without_traceback(self, tmp_path, capsys, recwarn, text):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        assert run("test", "--in", str(src), "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(src) in err
        assert not recwarn.list  # e.g. loadtxt's "input contained no data"

    # numpy 2.4's loadtxt can segfault on integer fields of astral-plane characters;
    # a subprocess turns such a crash into a failed test instead of a killed run
    @pytest.mark.parametrize("char", ["\U000E0001", "\U000F0000", "\U000FFFFD", "\U0010FFFD"])
    @pytest.mark.parametrize("text", [
        "rep,index,value\n{},0,1.0\n",
        "rep,index,value\n0,{},1.0\n",
        "index,time,value\n{},0.0,1.0\n",
        "rep,index,value\n0,0,1.0\n0,{},1.0\n",  # past the header scan, in the C reader's text
    ], ids=["rep", "index", "sequence_index", "second_row_index"])
    def test_astral_plane_field_exits_config(self, tmp_path, text, char):
        src = tmp_path / "bad.csv"
        src.write_text(text.format(char), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "polygauss.cli", "test", "--in", str(src),
             "--out-dir", str(tmp_path / "r")], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 1, proc.stderr
        assert "ASCII" in proc.stderr and "Traceback" not in proc.stderr

    def test_non_utf8_bytes(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"rep,index,value\n0,0,\xff\n")
        assert run("test", "--in", str(src), "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(src) in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# one CSV field's worth of text: no separator, no line break, encodable as UTF-8
_JUNK = st.text(st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
                max_size=6)


@st.composite
def _malformed_csv(draw):
    """A well-formed sequence or ensemble CSV with one mutation that no reader may accept."""
    if draw(st.booleans()):
        header = "rep,index,value"
        R, N = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        rows = [f"{r},{i},{draw(_FINITE)!r}" for r in range(R) for i in range(N)]
    else:
        header = "index,time,value"
        rows = [f"{i},{0.5 * i!r},{draw(_FINITE)!r}" for i in range(draw(st.integers(2, 8)))]
    mutation = draw(st.sampled_from(["drop_field", "extra_field", "junk_field",
                                     "duplicate_row", "bad_header", "no_rows", "not_utf8"]))
    k, column, junk = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2)), draw(_JUNK)
    fields = rows[k].split(",")
    if mutation == "drop_field":
        del fields[column]
    elif mutation == "extra_field":
        fields.insert(column, junk)
    elif mutation == "junk_field":
        fields[column] = junk + "x"  # no integer or float ends in "x"
    rows[k] = ",".join(fields)
    if mutation == "duplicate_row":
        rows.insert(k, rows[k])
    elif mutation == "bad_header":
        header = f"{header},{junk}"
    elif mutation == "no_rows":
        rows = []
    data = ("\n".join([header, *rows]) + "\n").encode()
    if mutation == "not_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestFuzzedCsv:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_malformed_csv())
    def test_malformed_exits_cleanly(self, tmp_path_factory, capsys, recwarn, data):
        work = tmp_path_factory.mktemp("fuzz")
        src = work / "bad.csv"
        src.write_bytes(data)
        assert run("test", "--in", str(src), "--out-dir", str(work / "r")) in (1, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert not recwarn.list


class TestCsvRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_FINITE),
           st.data())
    def test_ensemble_shuffled_crlf_blank_lines(self, tmp_path_factory, table, data):
        R, N = table.shape
        cells = data.draw(st.permutations([(r, n) for r in range(R) for n in range(N)]))
        lines = ["rep,index,value"]
        for r, n in cells:
            lines += data.draw(st.lists(st.sampled_from(["", " ", "\t", " \t  "]), max_size=2))
            lines.append(f"{r},{n},{float(table[r, n])!r}")
        path = tmp_path_factory.mktemp("csv") / "ens.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        kind, ens = read_table_csv(str(path))
        assert kind == "ensemble"
        assert ens.values.shape == table.shape
        assert ens.values.tobytes() == table.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_FINITE, min_size=2, max_size=30, unique=True), st.data())
    def test_sequence_written_by_writer(self, tmp_path_factory, times, data):
        grid = pg.SampleGrid(np.sort(times))
        values = data.draw(arrays(np.float64, grid.count, elements=_FINITE))
        path = str(tmp_path_factory.mktemp("csv") / "seq.csv")
        write_sequence_csv(path, pg.Sequence(values, grid))
        kind, seq = read_table_csv(path)
        assert kind == "sequence"
        assert seq.values.tobytes() == values.tobytes()
        assert seq.grid.points.tobytes() == grid.points.tobytes()


def _ensemble_text(table):
    return "rep,index,value\n" + "".join(
        f"{r},{n},{float(v)!r}\n" for (r, n), v in np.ndenumerate(table))


class TestCsvReaders:
    TABLE = np.random.default_rng(11).standard_normal((10, 100))

    # np.loadtxt opens a path by its extension; these files are plain text all the same
    @pytest.mark.parametrize("ext", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_extension_read_as_text(self, tmp_path, ext):
        text = _ensemble_text(self.TABLE)
        (tmp_path / "ens.csv").write_text(text)
        (tmp_path / f"ens{ext}").write_text(text)
        _, want = read_table_csv(str(tmp_path / "ens.csv"))
        _, got = read_table_csv(str(tmp_path / f"ens{ext}"))
        assert got.values.tobytes() == want.values.tobytes() == self.TABLE.tobytes()

    @pytest.mark.parametrize("blank", [False, True], ids=["clean", "blank_lines"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings(self, tmp_path, newline, blank):
        text = _ensemble_text(self.TABLE)
        if blank:  # whitespace-only lines send the body to the parse from the open handle
            text = text.replace("\n0,5,", "\n \t\n0,5,").replace("\n7,", "\n\n7,", 1)
        path = tmp_path / "ens.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        _, ens = read_table_csv(str(path))
        assert ens.values.tobytes() == self.TABLE.tobytes()

    # the file must be ASCII throughout, whitespace-only lines included
    @pytest.mark.parametrize("blank", ["\u00a0", " \u3000 "], ids=["no_break", "ideographic"])
    def test_non_ascii_blank_line_exits_config(self, tmp_path, capsys, blank):
        src = tmp_path / "ens.csv"
        src.write_text(_ensemble_text(self.TABLE).replace("\n0,5,", f"\n{blank}\n0,5,"),
                       encoding="utf-8")
        assert run("test", "--in", str(src), "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert str(src) in err and "ASCII" in err and "Traceback" not in err

    @pytest.mark.parametrize("lead", ["", "\n \t\n\r\n"], ids=["clean", "blank_lead"])
    def test_clean_body_one_loadtxt_on_path(self, tmp_path, monkeypatch, lead):
        sources, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        path = tmp_path / "ens.csv"
        path.write_text(lead + _ensemble_text(self.TABLE))
        _, ens = read_table_csv(str(path))
        assert ens.values.tobytes() == self.TABLE.tobytes()
        assert sources == [str(path)]  # the chunked C reader parsed all 1000 rows


class TestSimulate:
    def test_seed_required(self, tmp_path):
        assert run("simulate", "--paper", "--reps", "16",
                   "--out-dir", str(tmp_path / "o")) == 1

    def test_single_replication_degenerate(self, tmp_path):
        code = run("simulate", "--noise", "gaussian", "--paper-signal", "--reps", "1",
                   "--seed", "1", "--out-dir", str(tmp_path / "o"))
        assert code == 2  # one record cannot feed the frame-averaged test

    def test_paper_run_and_determinism(self, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("simulate", "--paper", "--reps", "64", "--seed", "1",
                   "--noise", "gaussian", "--out-dir", d1) == 0
        assert run("simulate", "--paper", "--reps", "64", "--seed", "1",
                   "--noise", "gaussian", "--out-dir", d2) == 0
        for name in sorted(os.listdir(d1)):
            assert open(os.path.join(d1, name), "rb").read() == \
                open(os.path.join(d2, name), "rb").read()

    def test_threads_flag_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--reps", "16", "--seed", "1", "--threads", "4",
                   "--out-dir", str(out_dir)) == 1
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("setup", [
        ["--paper", "--snr-db=-3"],
        ["--paper", "--snr-db=-0.5"],
        ["--paper", "--dt", "1e-6"],
        ["--component", "1,0,0,0"],
    ])
    def test_order_one_study_degenerate(self, tmp_path, capsys, setup):
        # the oracle risk picks J=1, whose output error is a constant per record minus g
        out_dir = tmp_path / "o"
        assert run("simulate", *setup, "--reps", "16", "--seed", "1",
                   "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the oracle risk picks J=1") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_negative_component_attached_with_equals(self, tmp_path):
        # argparse reads a detached value that starts with "-" and is not a plain number
        # as a flag, so such a value follows "="
        assert run("simulate", "--component=-1,0,1,0", "--noise", "gaussian", "--reps", "16",
                   "--seed", "1", "--out-dir", str(tmp_path / "o")) == 0

    def test_paper_honours_setup_flags(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "--reps", "16",
                   "--seed", "1", "--fft-len", "128", "--out-dir", str(out_dir)) == 0
        (fam,) = json.loads((out_dir / "summary.json").read_text())
        assert fam["M"] == 128

    def test_paper_with_component_rejected(self, tmp_path, capsys):
        assert run("simulate", "--paper", "--component", "1,0,1,0", "--noise", "gaussian",
                   "--reps", "16", "--seed", "1", "--out-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "--component" in err and "Traceback" not in err

    def test_summary_table_printed(self, tmp_path, capsys):
        assert run("simulate", "--paper", "--reps", "32", "--seed", "7",
                   "--noise", "laplacian", "--out-dir", str(tmp_path / "o")) == 0
        out = capsys.readouterr().out
        assert "laplacian" in out and "pfa_out" in out

    def test_paper_defaults_match_reference_config(self, tmp_path):
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        assert run("simulate", "--paper", "--reps", "16", "--seed", "1",
                   "--out-dir", str(cli_dir)) == 0
        pg.emit_report(pg.run_experiment(pg.ExperimentConfig.reference(16, 1)), str(lib_dir))
        names = sorted(os.listdir(lib_dir))
        assert sorted(os.listdir(cli_dir)) == names and "summary.json" in names
        for name in names:
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()

    @pytest.mark.parametrize("shape", ["-1", "nan", "inf"])
    def test_bad_gamma_shape_rejected_before_draws(self, tmp_path, capsys, shape):
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "--gamma-shape", shape,
                   "--reps", "16", "--seed", "1", "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert "gamma shape" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_unknown_family_rejected_before_draws(self, tmp_path, capsys):
        # the library, not the parser, holds the family list
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "cauchy", "--reps", "16",
                   "--seed", "1", "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert "'cauchy'" in err and str(pg.NOISE_FAMILIES) in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_repeated_family_rejected_before_draws(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "gaussian", "--reps", "16",
                   "--seed", "1", "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert "distinct" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_nan_snr_rejected_before_draws(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "--reps", "16", "--seed", "1",
                   "--snr-db", "nan", "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert "SNR" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("snr_db", ["-3090", "-1e308"])
    def test_overflowing_noise_level_degenerate(self, tmp_path, capsys, snr_db):
        # 10 ** 309 and up overflows: no finite noise reaches the SNR
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--reps", "16", "--seed", "1",
                   f"--snr-db={snr_db}", "--out-dir", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "noise variance" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("amplitude,code,message", [
        ("1e-200", 2, "signal power underflows float64"),
        ("2e154", 2, "signal power overflows float64"),
        ("1e200", 2, "signal power overflows float64"),
        ("0", 1, "SNR undefined for an all-zero signal"),
    ])
    def test_signal_power_limits(self, tmp_path, capsys, amplitude, code, message):
        # the signal power and the oracle risk are formed in data units
        out_dir = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--component", f"{amplitude},0,1,0", "--noise", "gaussian",
                       "--reps", "16", "--seed", "1", "--out-dir", str(out_dir)) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--fft-len", "3", "FFT length"),
        ("--fft-len", "8", "FFT length"),  # shorter than the 60-point records
        ("--bins", "0", "bin"),
        ("--bins", "9223372036854775807", "larger than any array"),
        ("--fft-len", "4611686018427387904", "larger than any array"),
    ])
    def test_bad_setup_rejected_before_draws(self, tmp_path, capsys, monkeypatch,
                                             flag, value, named):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the setup was checked")

        monkeypatch.setattr(pg.experiment, "draw_noise_ensemble", no_draws)
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--noise", "gaussian", "--reps", "16", "--seed", "1",
                   flag, value, "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert named in err and "family" not in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--fft-len", "7"], "FFT length"),
        (["--noise", "bogus"], "unknown noise family"),
    ])
    def test_flag_error_before_too_few_reps(self, tmp_path, capsys, flags, named):
        # a bad setting exits 1 even when --reps is also below the 8 frames a report needs
        out_dir = tmp_path / "o"
        assert run("simulate", "--paper", "--reps", "4", "--seed", "1", *flags,
                   "--out-dir", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert named in err and "replications" not in err
        assert not out_dir.exists()

    def test_malformed_component(self, tmp_path, capsys):
        assert run("simulate", "--component", "a,b,c,d", "--reps", "16", "--seed", "1",
                   "--out-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "--component" in err and "Traceback" not in err


class TestOversizedSizeFlags:
    # each size needs more bytes than any array can address, so it is rejected before
    # numpy is asked for memory; none of these runs allocates more than a small study
    @pytest.mark.parametrize("argv", [
        ["test", "--in", "{ens}", "--fft-len", "4611686018427387904", "--out-dir", "{out}"],
        ["simulate", "--paper", "--reps", "40", "--seed", "1", "--fft-len",
         "4611686018427387904", "--out-dir", "{out}"],
        ["gen-signal", "--n", "4611686018427387904", "--dt", "1", "--out", "{out}"],
        ["gen-signal", "--n", "9223372036854775807", "--dt", "1", "--out", "{out}"],
        ["test", "--in", "{ens}", "--bins", "9223372036854775807", "--out-dir", "{out}"],
        ["simulate", "--paper", "--reps", "40", "--seed", "1", "--bins", "9223372036854775807",
         "--out-dir", "{out}"],
        ["test", "--in", "{ens}", "--bins", "99999999999999999999", "--out-dir", "{out}"],
    ], ids=["test_fft_len", "simulate_fft_len", "gen_signal_n", "gen_signal_n_max",
            "test_bins", "simulate_bins", "test_bins_beyond_int64"])
    def test_exits_config_with_one_error_line(self, tmp_path, capsys, argv):
        ens = tmp_path / "ens.csv"
        ens.write_text("rep,index,value\n" + "".join(
            f"{r},{i},{np.sin(3 * r + i)}\n" for r in range(20) for i in range(30)))
        out = tmp_path / "o"
        assert run(*(a.format(ens=ens, out=out) for a in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "larger than any array" in err
        assert not out.exists()


class TestOutOfMemory:
    # a size flag such as --fft-len 1000000000000 makes numpy raise MemoryError; the
    # stand-ins raise it without allocating anything
    @pytest.mark.parametrize("command,target,message", [
        ("simulate", "run_experiment", "Unable to allocate 7.11 PiB for an array"),
        ("gen-signal", "synth_signal", ""),
    ])
    def test_out_of_memory_exits_config(self, tmp_path, capsys, monkeypatch,
                                        command, target, message):
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        # each command imports its layers when it runs, so the defining module is patched
        owner = {"run_experiment": pg.experiment, "synth_signal": pg.noise}[target]
        monkeypatch.setattr(owner, target, too_large)
        argv = {"simulate": ["--paper", "--reps", "16", "--seed", "1", "--out-dir"],
                "gen-signal": ["--n", "16", "--dt", "1", "--out"]}[command]
        assert run(command, *argv, str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n"
