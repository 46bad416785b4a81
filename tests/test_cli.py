import json
import os

import numpy as np
import numpy.testing as npt
import pytest

import polygauss as pg
from polygauss.cli import main, read_table_csv, write_sequence_csv


def run(*argv):
    return main(list(argv))


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


class TestTransform:
    def write_seq(self, tmp_path, values, dt=1.0):
        grid = pg.SampleGrid.uniform(len(values), dt)
        path = str(tmp_path / "in.csv")
        write_sequence_csv(path, pg.Sequence(np.asarray(values, float), grid))
        return path

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

    def test_auto_requires_sigma2(self, tmp_path):
        src = self.write_seq(tmp_path, [1.0, 2.0, 3.0])
        assert run("transform", "--in", src, "--order", "auto",
                   "--out", str(tmp_path / "out.csv")) == 1

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

    def test_zero_ensemble_degenerate(self, tmp_path):
        src = self.write_ensemble(tmp_path, np.zeros((16, 60)))
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 2

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

    def test_long_sequence_segmented(self, tmp_path):
        grid = pg.SampleGrid.uniform(1024, 1.0)
        vals = np.random.default_rng(5).standard_normal(1024)
        src = str(tmp_path / "seq.csv")
        write_sequence_csv(src, pg.Sequence(vals, grid))
        assert run("test", "--in", src, "--out-dir", str(tmp_path / "r")) == 0


class TestMalformedCsv:
    @pytest.mark.parametrize("text", [
        "rep,index,value\n0,0,1.0\n0,0,2.0\n0,1,3.0\n1,1,4.0\n",  # duplicate hides a hole
        "rep,index,value\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,-1,4.0\n",  # negative index
        "rep,index,value\n0,0,1.0\n0,1,abc\n",                      # non-numeric field
        "rep,index,value\n0,0,1.0\n0,1\n",                          # short row
        "rep,index,value\n",                                         # no rows
        "index,time,value\n0,0.0,1.0\n1,0.1\n",                     # short sequence row
    ], ids=["duplicate", "negative", "non_numeric", "short_row", "no_rows", "short_sequence"])
    def test_exit_config_without_traceback(self, tmp_path, capsys, text):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        assert run("test", "--in", str(src), "--out-dir", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(src) in err


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
                   "--noise", "gaussian", "--threads", "4", "--out-dir", d2) == 0
        for name in sorted(os.listdir(d1)):
            assert open(os.path.join(d1, name), "rb").read() == \
                open(os.path.join(d2, name), "rb").read()

    def test_summary_table_printed(self, tmp_path, capsys):
        assert run("simulate", "--paper", "--reps", "32", "--seed", "7",
                   "--noise", "laplacian", "--out-dir", str(tmp_path / "o")) == 0
        out = capsys.readouterr().out
        assert "laplacian" in out and "pfa_out" in out
