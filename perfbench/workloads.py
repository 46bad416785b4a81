"""The benchmark's workloads: their inputs, one operation, and its output check.

Every workload is a closed loop with one caller and no added threads. Inputs
are generated from the workload seed with numpy alone, before any timing, and
written to the run directory; the program sees only those inputs. A workload
class is instantiated inside a fresh worker interpreter, which is where
``polygauss`` is first imported.

Why each workload was chosen, and which layer it bypasses, is recorded on its
class as ``WHY`` and ``BYPASSES``.
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

# The paper's reference transient: amplitude, damping (1/s), angular frequency
# (rad/s) and phase (rad) of three damped cosines. Kept here so the inputs do
# not depend on the program under test.
REFERENCE_COMPONENTS = (
    (1.0, -0.2, 2.0, 0.0),
    (0.5, -0.1, 4.0, math.pi / 4),
    (0.5, -0.3, 1.0, math.pi / 6),
)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _reference_signal(t):
    return sum(a * np.exp(d * t) * np.cos(w * t + p) for a, d, w, p in REFERENCE_COMPONENTS)


def _csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


class McPaper:
    """The paper's Monte Carlo study at R=500 over the four noise families.

    One operation is ``run_experiment(ExperimentConfig.reference(500, s))``
    followed by ``emit_report`` into a fresh directory, with ``s`` taken in turn
    from seeds drawn from the workload seed.
    """

    WHY = ("The paper's study and the ROADMAP headline; runs mostly in "
           "_kernels.triple_grid at cache-sized arrays (M=64), RNG construction and kurtosis.")
    BYPASSES = "cli (no CSV parsing) and ortho.transform; select_order sees only J=1..3."
    REPLICATIONS = 500
    RECORD_LEN = 60  # the reference grid's N

    @staticmethod
    def make_inputs(seed, run_dir):
        seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, size=4096)
        with open(os.path.join(run_dir, "seeds.json"), "w") as fh:
            json.dump([int(s) for s in seeds], fh)

    def __init__(self, run_dir, scratch_dir):
        import polygauss

        self.pg = polygauss
        with open(os.path.join(run_dir, "seeds.json")) as fh:
            self.seeds = json.load(fh)
        self.scratch = scratch_dir
        self.first_summary = None

    def _run(self, seed, out_dir):
        pg = self.pg
        result = pg.run_experiment(
            pg.ExperimentConfig.reference(replications=self.REPLICATIONS, seed=seed))
        pg.emit_report(result, out_dir)

    def op(self, i):
        out_dir = os.path.join(self.scratch, f"op{i}")
        self._run(self.seeds[i % len(self.seeds)], out_dir)
        return i, out_dir

    def check(self, out):
        i, out_dir = out
        try:
            written = len(os.listdir(out_dir))
            if written != 17:
                raise CheckFailed(f"{written} files written, expected 17")
            with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
                raw = fh.read()
            summary = json.loads(raw)
            if len(summary) != 4:
                raise CheckFailed(f"summary has {len(summary)} families, expected 4")
            for fam in summary:
                name = fam["family"]
                if fam["J"] != 3:
                    raise CheckFailed(f"{name}: J={fam['J']}, expected 3")
                rows = _csv_rows(os.path.join(out_dir, f"{name}_output_bicoherence.csv"))
                if fam["dof"] != 2 * len(rows):
                    raise CheckFailed(f"{name}: dof {fam['dof']} != 2 x {len(rows)} rows")
                for side in ("input", "output"):
                    hist = _csv_rows(os.path.join(out_dir, f"{name}_{side}_histogram.csv"))
                    total = sum(int(r[2]) for r in hist)
                    if total != fam["R"] * self.RECORD_LEN:
                        raise CheckFailed(f"{name} {side} histogram sums to {total}")
            if i % len(self.seeds) == 0:
                self.first_summary = raw
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self):
        """Re-run the first seed; its summary.json must be byte-identical."""
        if self.first_summary is None:
            raise CheckFailed("the first seed never produced a checked summary")
        out_dir = os.path.join(self.scratch, "rerun")
        try:
            self._run(self.seeds[0], out_dir)
            with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
                if fh.read() != self.first_summary:
                    raise CheckFailed("re-running the first seed changed summary.json")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class OrderAuto:
    """What ``polygauss transform --order auto`` computes, in process.

    One operation is ``select_order(grid, "penalized", range(1, N+1), ...)``,
    then ``build_basis``, ``projection_operator`` and ``transform`` at the
    chosen order, on one record: N=240 samples at dt=0.0375 (the reference's
    9 s span), the reference signal plus Laplacian noise at 10 dB SNR.

    Known limit found while sizing: at a 9 s span ``build_basis(grid, N)``
    overflows from about N=500 (N=400 passes, N=500 raises
    DegenerateGridError), so ``transform --order auto`` exits 2 there. N stays
    at 240, where one operation takes about 0.3-0.4 s.
    """

    WHY = ("Order selection as a user runs it: 241 basis builds per operation, "
           "mostly in ortho and _kernels.gram_recurrence.")
    BYPASSES = "noise, gaussianity and experiment entirely; no CSV parsing."
    N = 240
    DT = 0.0375
    SNR_DB = 10.0
    ORTHO_RTOL = 1e-9

    @classmethod
    def make_inputs(cls, seed, run_dir):
        t = np.arange(cls.N) * cls.DT
        g = _reference_signal(t)
        noise_var = float(np.mean(g**2)) * 10.0 ** (-cls.SNR_DB / 10.0)
        w = np.random.default_rng(seed).laplace(0.0, math.sqrt(noise_var / 2.0), cls.N)
        np.save(os.path.join(run_dir, "record.npy"), g + w)
        with open(os.path.join(run_dir, "noise_var.json"), "w") as fh:
            json.dump(noise_var, fh)

    def __init__(self, run_dir, scratch_dir):
        import polygauss as pg

        self.pg = pg
        self.grid = pg.SampleGrid.uniform(self.N, self.DT)
        self.x = pg.Sequence(np.load(os.path.join(run_dir, "record.npy")), self.grid)
        with open(os.path.join(run_dir, "noise_var.json")) as fh:
            self.noise_var = json.load(fh)

    def op(self, i):
        pg = self.pg
        sel = pg.select_order(self.grid, "penalized", range(1, self.N + 1),
                              observed=self.x, noise_var=self.noise_var)
        proj = pg.projection_operator(pg.build_basis(self.grid, sel.chosen))
        return sel, proj, pg.transform(proj, self.x)

    def check(self, out):
        sel, proj, y = out
        curve = sel.risk_curve
        if [j for j, _ in curve] != list(range(1, self.N + 1)):
            raise CheckFailed("risk curve does not cover J=1..N")
        best = min(curve, key=lambda jr: (jr[1], jr[0]))[0]
        if sel.chosen != best:
            raise CheckFailed(f"chosen J={sel.chosen} but the risk curve's argmin is {best}")
        # The residual of a least-squares projection is orthogonal to the basis.
        P = proj.basis.values
        r = self.x.values - y.values
        cos = np.abs(P @ r) / (np.linalg.norm(P, axis=1) * np.linalg.norm(r))
        if not np.max(cos) <= self.ORTHO_RTOL:
            raise CheckFailed(f"residual not orthogonal to the basis: {np.max(cos):.3g}")

    def finish(self):
        pass


class CliEnsemble:
    """``polygauss test --in ens.csv --fft-len 128``, through ``polygauss.cli.main``.

    The input is a ``rep,index,value`` CSV of R=1000 Laplacian records of
    N=100 samples. What a user of the command waits for is split in two:

    - ``setup_s`` on this workload is a fresh interpreter importing polygauss
      and running the command once, which is a cold ``polygauss test``;
    - each timed operation runs the command again in the same worker: CSV
      parsing and the battery at M=128, without start-up and import.

    One operation in a child interpreter would time start-up twice (it is in
    ``setup_s`` already) and takes about 1 s, which leaves too few samples in a
    run for a steady tail; in process it takes about 0.4 s.
    """

    WHY = ("What a user of `polygauss test` waits for: start-up and import (setup_s), CSV "
           "parsing and one large report at M=128 whose triple-product temporaries are far "
           "above cache.")
    BYPASSES = "noise, ortho and experiment; gaussianity runs one large report, not eight small."
    R = 1000
    N = 100
    FFT_LEN = 128
    RTOL = 1e-12

    @classmethod
    def make_inputs(cls, seed, run_dir):
        values = np.random.default_rng(seed).laplace(0.0, 1.0, (cls.R, cls.N))
        np.save(os.path.join(run_dir, "ens.npy"), values)
        lines = ["rep,index,value"]
        for r in range(cls.R):
            lines.extend(f"{r},{n},{float(v)!r}" for n, v in enumerate(values[r]))
        with open(os.path.join(run_dir, "ens.csv"), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def __init__(self, run_dir, scratch_dir):
        import polygauss.cli

        self.pg = polygauss
        self.csv = os.path.join(run_dir, "ens.csv")
        self.npy = os.path.join(run_dir, "ens.npy")
        self.scratch = scratch_dir
        self.reference = None

    def op(self, i):
        out_dir = os.path.join(self.scratch, f"op{i}")
        argv = ["test", "--in", self.csv, "--fft-len", str(self.FFT_LEN), "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.pg.cli.main(argv)
        return code, out_dir

    def check(self, out):
        code, out_dir = out
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            if self.reference is None:
                rep = self.pg.gaussianity_report(self.pg.Ensemble(np.load(self.npy)),
                                                 fft_len=self.FFT_LEN)
                self.reference = {"S": rep.statistic, "dof": rep.dof, "pfa": rep.pfa,
                                  "kurtosis": rep.avg_kurtosis, "M": rep.fft_len,
                                  "K": rep.frames, "R": rep.replications}
            with open(os.path.join(out_dir, "report.json")) as fh:
                doc = json.load(fh)
            for key, want in self.reference.items():
                got = doc.get(key)
                ok = got == want if isinstance(want, int) else (
                    got is not None and math.isclose(got, want, rel_tol=self.RTOL))
                if not ok:
                    raise CheckFailed(f"report.json {key}={got!r}, in-process gives {want!r}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self):
        pass


WORKLOADS = {"mc_paper": McPaper, "order_auto": OrderAuto, "cli_ensemble": CliEnsemble}
