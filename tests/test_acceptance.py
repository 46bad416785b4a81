"""Acceptance gate: every release-blocking behavior in one module.

Each test prints a single PASS/FAIL line with its measured numbers so the
suite output doubles as the acceptance report.  Tolerances are fixed here and
never loosened to make a run pass; a red line means the claim it encodes does
not hold at the stated tolerance.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt

import polygauss as pg
from conftest import src_env

N_REF = 60
DT_REF = 0.15
PAPER_SEEDS = range(1, 21)
PAPER_REPS = 500

_paper_cache = {}


def paper_run(seed):
    if seed not in _paper_cache:
        _paper_cache[seed] = pg.run_experiment(
            pg.ExperimentConfig.reference(replications=PAPER_REPS, seed=seed))
    return _paper_cache[seed]


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_1_projection_algebra(self):
        t0 = time.perf_counter()
        grid = pg.SampleGrid.uniform(N_REF, DT_REF)
        worst_idem = worst_trace = worst_orth = worst_repro = 0.0
        for J in range(2, 13):
            basis = pg.build_basis(grid, J)
            op = pg.projection_operator(basis)
            H = op.xi
            worst_idem = max(worst_idem, np.max(np.abs(H @ H - H)))
            worst_trace = max(worst_trace, abs(np.trace(H) - J))
            G = basis.values @ basis.values.T
            off = np.abs(G - np.diag(np.diag(G))) / np.sqrt(
                np.outer(basis.norms, basis.norms))
            worst_orth = max(worst_orth, np.max(off))
            for deg in range(J):
                p = grid.points**deg
                y = pg.transform(op, pg.Sequence(p, grid)).values
                worst_repro = max(worst_repro,
                                  np.max(np.abs(y - p)) / max(1.0, np.max(np.abs(p))))
        elapsed = time.perf_counter() - t0
        ok = (worst_idem <= 1e-10 and worst_trace <= 1e-9
              and worst_orth <= 1e-10 and worst_repro <= 1e-9 and elapsed < 1.0)
        report("projection algebra (N=60, J=2..12)", ok,
               f"idem {worst_idem:.2e}, trace {worst_trace:.2e}, "
               f"orth {worst_orth:.2e}, repro {worst_repro:.2e}, {elapsed:.2f}s")

    def test_2_three_point_hand_values(self):
        grid = pg.SampleGrid(np.array([0.0, 1.0, 2.0]))
        basis = pg.build_basis(grid, 2)
        op = pg.projection_operator(basis)
        errs = [
            np.max(np.abs(basis.values[1] - [-1.0, 0.0, 1.0])),
            np.max(np.abs(basis.norms - [3.0, 2.0])),
            np.max(np.abs(op.xi - np.array([[5, 2, -1], [2, 2, 2], [-1, 2, 5]]) / 6.0)),
            np.max(np.abs(pg.transform(op, pg.Sequence(np.array([1.0, 0.0, 0.0]), grid)).values
                          - [5 / 6, 1 / 3, -1 / 6])),
        ]
        g = pg.Sequence(np.array([0.0, 1.0, 4.0]), grid)
        sel0 = pg.select_order(grid, "oracle", range(1, 4), signal=g, noise_var=0.0)
        sel1 = pg.select_order(grid, "oracle", range(1, 4), signal=g, noise_var=1.0)
        errs.append(np.max(np.abs([r for _, r in sel0.risk_curve]
                                  - np.array([26 / 9, 2 / 9, 0.0]))))
        errs.append(np.max(np.abs([r for _, r in sel1.risk_curve]
                                  - np.array([29 / 9, 8 / 9, 1.0]))))
        worst = max(errs)
        ok = worst <= 1e-12 and sel0.chosen == 3 and sel1.chosen == 2
        report("three-point hand values", ok,
               f"worst error {worst:.2e}, chosen orders ({sel0.chosen}, {sel1.chosen})")

    def test_3_chi2_survival(self):
        from scipy.integrate import quad

        e_closed = max(abs(pg.chi2_survival(2.0, 2) - math.exp(-1.0)),
                       abs(pg.chi2_survival(4.0, 4) - 3.0 * math.exp(-2.0)))

        def pdf(u, dof):
            h = dof / 2.0
            return math.exp((h - 1.0) * math.log(u) - u / 2.0
                            - h * math.log(2.0) - math.lgamma(h))

        e_quad = 0.0
        for dof in (1, 2, 3, 5, 10, 50, 100, 200):
            for x in (0.5 * dof, 1.0 * dof, 2.0 * dof):
                ref, _ = quad(pdf, x, np.inf, args=(dof,), limit=200)
                e_quad = max(e_quad, abs(pg.chi2_survival(x, dof) - ref))
        ok = e_closed <= 1e-12 and e_quad <= 1e-8
        report("chi-squared survival", ok,
               f"closed-form error {e_closed:.2e}, quadrature error {e_quad:.2e}")

    def test_4_input_noise_kurtosis(self):
        t0 = time.perf_counter()
        targets = {"gaussian": (0.0, 0.05), "laplacian": (3.0, 0.1),
                   "uniform": (-1.2, 0.05), "gamma": (6.0 / 9.0, 0.1)}
        measured, ok = {}, True
        for i, (family, (target, tol)) in enumerate(targets.items()):
            w = pg.draw_noise(pg.NoiseSpec(family), 4 * 10**6, 2024, i)
            k = pg.excess_kurtosis(pg.Ensemble(w[None, :]))
            measured[family] = k
            ok = ok and abs(k - target) <= tol
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 30.0
        report("input-noise kurtosis (4e6 draws)", ok,
               ", ".join(f"{f} {k:+.4f}" for f, k in measured.items())
               + f", {elapsed:.1f}s")

    def test_5_gaussianization_kurtosis(self):
        t0 = time.perf_counter()
        band_hits = order_hits = 0
        worst_band = 0.0
        for seed in PAPER_SEEDS:
            res = paper_run(seed)
            kout = {f.family: f.output_report.avg_kurtosis for f in res.families}
            kin = {f.family: f.input_report.avg_kurtosis for f in res.families}
            worst_band = max(worst_band, max(abs(v) for v in kout.values()))
            if all(abs(v) <= 0.2 for v in kout.values()):
                band_hits += 1
            if all(abs(kout[f]) < abs(kin[f])
                   for f in ("laplacian", "uniform", "gamma")):
                order_hits += 1
        elapsed = time.perf_counter() - t0
        ok = band_hits >= 19 and order_hits >= 19 and elapsed < 120.0
        report("gaussianization kurtosis (20 seeds, R=500)", ok,
               f"|K_out|<=0.2 in {band_hits}/20 (worst {worst_band:.3f}), "
               f"|K_out|<|K_in| in {order_hits}/20, {elapsed:.1f}s")

    def test_6_output_pfa_direction(self):
        pfas = {f: [] for f in pg.NOISE_FAMILIES}
        for seed in PAPER_SEEDS:
            for fam in paper_run(seed).families:
                pfas[fam.family].append(fam.output_report.pfa)
        medians = {f: float(np.median(v)) for f, v in pfas.items()}

        triad_hits = 0
        n_triad = 40
        n = np.arange(N_REF)
        for s in range(n_triad):
            rng = np.random.default_rng(10_000 + s)
            ph1 = rng.uniform(0, 2 * np.pi, 64)[:, None]
            ph2 = rng.uniform(0, 2 * np.pi, 64)[:, None]
            u = (np.cos(2 * np.pi * 5 * n / 64 + ph1)
                 + np.cos(2 * np.pi * 3 * n / 64 + ph2)
                 + np.cos(2 * np.pi * 8 * n / 64 + ph1 + ph2))
            rep = pg.gaussianity_report(pg.Ensemble(u))
            triad_hits += rep.pfa < 0.01
        ok = all(m >= 0.5 for m in medians.values()) and triad_hits >= 0.95 * n_triad
        report("output-error PFA direction", ok,
               "medians " + ", ".join(f"{f} {m:.3f}" for f, m in medians.items())
               + f"; triad rejections {triad_hits}/{n_triad}")

    def test_7_null_calibration(self):
        t0 = time.perf_counter()
        n_seeds = 1000
        hits = 0
        for s in range(n_seeds):
            rng = np.random.default_rng(s)
            rep = pg.gaussianity_report(pg.Ensemble(rng.standard_normal((64, N_REF))))
            hits += rep.pfa < 0.05
        frac = hits / n_seeds
        elapsed = time.perf_counter() - t0
        ok = 0.02 <= frac <= 0.09 and elapsed < 120.0
        report("null calibration (1000 Gaussian ensembles)", ok,
               f"rejection fraction {frac:.4f} in [0.02, 0.09], {elapsed:.1f}s")

    def test_8_byte_identical_reports(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("a", "b", "c")]
        for d in dirs:
            r = subprocess.run(
                [sys.executable, "-m", "polygauss.cli", "simulate", "--paper",
                 "--reps", "500", "--seed", "1", "--out-dir", d],
                capture_output=True, text=True, env=src_env())
            assert r.returncode == 0, r.stderr
        names = sorted(os.listdir(dirs[0]))
        same = all(
            open(os.path.join(dirs[0], f), "rb").read()
            == open(os.path.join(d, f), "rb").read()
            for d in dirs[1:] for f in names)
        ok = same and len(names) == 17
        report("byte-identical simulation reports", ok,
               f"{len(names)} files identical across three reruns: {same}")

    def test_9_error_mixing_and_covariance(self):
        grid = pg.SampleGrid.uniform(N_REF, DT_REF)
        op = pg.projection_operator(pg.build_basis(grid, 3))
        H = op.xi
        rng = np.random.default_rng(99)

        worst = 0.0
        for _ in range(100):
            w = rng.standard_normal(N_REF)
            y = pg.transform(op, pg.Sequence(w, grid)).values
            worst = max(worst, np.max(np.abs(y - H @ w)))

        sigma2 = 0.25
        R = 10**5
        E = rng.standard_normal((R, N_REF)) * math.sqrt(sigma2) @ H.T
        C = E.T @ E / R - np.outer(E.mean(axis=0), E.mean(axis=0))
        se = sigma2 * np.sqrt((np.outer(np.diag(H), np.diag(H)) + H**2) / R)
        dev = np.max(np.abs(C - sigma2 * H) / se)
        ok = worst <= 1e-12 and dev <= 5.0
        report("error mixing sum and covariance", ok,
               f"mixing-sum error {worst:.2e}, worst covariance deviation {dev:.2f} SE")
