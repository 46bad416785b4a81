"""Command-line front end: signal generation, transform, testing, simulation.

Exit codes: 0 success, 1 configuration/flag error, 2 statistically degenerate
data, 3 I/O failure.
"""

import argparse
import sys

import numpy as np

from .errors import ConfigError, DegenerateDataError, PolygaussError
from .experiment import ExperimentConfig, emit_report, run_experiment
from .gaussianity import Ensemble, gaussianity_report, segment_record
from .noise import NOISE_FAMILIES, SignalSpec
from .ortho import (
    SampleGrid,
    Sequence,
    build_basis,
    projection_operator,
    select_order,
    transform,
)

EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _fmt(x) -> str:
    return repr(float(x))


def write_sequence_csv(path: str, seq: Sequence) -> None:
    lines = ["index,time,value"]
    for i, (t, v) in enumerate(zip(seq.grid.points, seq.values)):
        lines.append(f"{i},{_fmt(t)},{_fmt(v)}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_columns(path: str, body, columns):
    """Cast the listed (column, type) fields of every row; malformed rows are a ConfigError."""
    try:
        return [np.array([cast(r[c]) for r in body]) for c, cast in columns]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed row ({exc})") from None


def read_table_csv(path: str):
    """Read a sequence or ensemble CSV; returns ('sequence', Sequence) or ('ensemble', Ensemble)."""
    with open(path, newline="") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: empty file")
    header = rows[0].split(",")
    body = [row.split(",") for row in rows[1:]]
    if header == ["index", "time", "value"]:
        times, values = _parse_columns(path, body, ((1, float), (2, float)))
        return "sequence", Sequence(values, SampleGrid(times))
    if header == ["rep", "index", "value"]:
        reps, idx, vals = _parse_columns(path, body, ((0, int), (1, int), (2, float)))
        if not body or reps.min() < 0 or idx.min() < 0:
            raise ConfigError(f"{path}: ensemble needs rows with non-negative rep and index")
        n_rep, n_idx = int(reps.max()) + 1, int(idx.max()) + 1
        # the size check bounds the bincount; the counts reject duplicated or missing cells
        if (len(body) != n_rep * n_idx
                or np.any(np.bincount(reps * n_idx + idx, minlength=len(body)) != 1)):
            raise ConfigError(f"{path}: ensemble table is not a full rep x index grid")
        table = np.empty((n_rep, n_idx))
        table[reps, idx] = vals
        return "ensemble", Ensemble(table)
    raise ConfigError(f"{path}: unrecognized header {header}")


def _parse_component(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("component must be amplitude,damping,omega,phase")
    return tuple(float(p) for p in parts)


def cmd_gen_signal(args) -> int:
    if args.n < 2:
        raise ConfigError("--n must be at least 2")
    if args.dt <= 0:
        raise ConfigError("--dt must be positive")
    grid = SampleGrid.uniform(args.n, args.dt)
    if args.paper_signal:
        spec = SignalSpec.reference()
    else:
        spec = SignalSpec(tuple(_parse_component(c) for c in args.component))
    from .noise import synth_signal

    write_sequence_csv(args.out, synth_signal(spec, grid))
    return 0


def cmd_transform(args) -> int:
    kind, seq = read_table_csv(args.infile)
    if kind != "sequence":
        raise ConfigError("transform expects a sequence CSV")
    grid = seq.grid
    if args.order == "auto":
        if args.sigma2 is None:
            raise ConfigError("--order auto requires --sigma2")
        sel = select_order(grid, "penalized", range(1, grid.count + 1),
                           observed=seq, noise_var=args.sigma2)
        order = sel.chosen
        print(f"selected order: {order}")
        print("risk curve:")
        for j, risk in sel.risk_curve:
            print(f"  J={j}: {risk:.6g}")
    else:
        try:
            order = int(args.order)
        except ValueError:
            raise ConfigError(f"--order must be an integer or 'auto', got {args.order!r}")
        if not 1 <= order <= grid.count:
            raise ConfigError(f"--order must be in [1, {grid.count}]")
    op = projection_operator(build_basis(grid, order))
    write_sequence_csv(args.out, transform(op, seq))
    return 0


def cmd_test(args) -> int:
    import json
    import os

    kind, data = read_table_csv(args.infile)
    if kind == "sequence":
        ens = segment_record(data.values, args.fft_len)
    else:
        ens = data
    if np.all(ens.values == ens.values.flat[0]):
        raise DegenerateDataError("input has no variability")
    report = gaussianity_report(ens, fft_len=args.fft_len, bins=args.bins)
    os.makedirs(args.out_dir, exist_ok=True)
    doc = {
        "S": report.statistic,
        "dof": report.dof,
        "pfa": report.pfa,
        "kurtosis": report.avg_kurtosis,
        "M": report.fft_len,
        "K": report.frames,
        "R": report.replications,
    }
    with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    from .experiment import _write_bicoherence_csv, _write_histogram_csv

    _write_histogram_csv(os.path.join(args.out_dir, "histogram.csv"), report.histogram)
    _write_bicoherence_csv(os.path.join(args.out_dir, "bicoherence.csv"), report.bicoherence)
    print(f"S={report.statistic:.6g} dof={report.dof} "
          f"PFA={report.pfa:.6g} kurtosis={report.avg_kurtosis:.6g}")
    return 0


def cmd_simulate(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required; simulations never seed from the clock")
    if args.paper:
        families = tuple(args.noise) if args.noise else NOISE_FAMILIES
        config = ExperimentConfig.reference(
            replications=args.reps, seed=args.seed,
            families=families, gamma_shape=args.gamma_shape,
        )
    else:
        if not args.noise:
            raise ConfigError("specify --noise families or use --paper")
        config = ExperimentConfig(
            grid=SampleGrid.uniform(args.n, args.dt),
            signal=SignalSpec.reference() if args.paper_signal
            else SignalSpec(tuple(_parse_component(c) for c in args.component)),
            snr_db=args.snr_db,
            families=tuple(args.noise),
            replications=args.reps,
            seed=args.seed,
            gamma_shape=args.gamma_shape,
            fft_len=args.fft_len,
            bins=args.bins,
        )
    result = run_experiment(config)
    emit_report(result, args.out_dir)
    print(f"{'family':>10} {'J':>3} {'pfa_in':>10} {'K_in':>9} {'pfa_out':>10} {'K_out':>9}")
    for fam in result.families:
        print(f"{fam.family:>10} {fam.selection.chosen:>3} "
              f"{fam.input_report.pfa:>10.4f} {fam.input_report.avg_kurtosis:>9.4f} "
              f"{fam.output_report.pfa:>10.4f} {fam.output_report.avg_kurtosis:>9.4f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polygauss",
                     description="Polynomial-projection denoising and Gaussianity testing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", help="synthesize a damped-cosine transient")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--dt", type=float, required=True, help="sample spacing")
    p.add_argument("--out", required=True, help="output sequence CSV")
    p.add_argument("--paper-signal", action="store_true",
                   help="use the built-in three-component reference signal")
    p.add_argument("--component", action="append", default=[],
                   metavar="AMP,DAMP,OMEGA,PHASE", help="add a signal component")
    p.set_defaults(func=cmd_gen_signal)

    p = sub.add_parser("transform", help="apply the polynomial projection to a sequence")
    p.add_argument("--in", dest="infile", required=True, help="input sequence CSV")
    p.add_argument("--order", required=True, help="approximation order J, or 'auto'")
    p.add_argument("--sigma2", type=float, default=None,
                   help="noise variance (required with --order auto)")
    p.add_argument("--out", required=True, help="output sequence CSV")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("test", help="run the Gaussianity battery on a sequence or ensemble")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--fft-len", type=int, default=64)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--paper", action="store_true",
                   help="use the reference setup: N=60, dt=0.15, 10 dB, four families")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--dt", type=float, default=0.15)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--paper-signal", action="store_true")
    p.add_argument("--component", action="append", default=[],
                   metavar="AMP,DAMP,OMEGA,PHASE")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", nargs="+", choices=NOISE_FAMILIES, default=None)
    p.add_argument("--gamma-shape", type=float, default=9.0)
    p.add_argument("--fft-len", type=int, default=64)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--threads", type=int, default=1,
                   help="currently ignored; accepted for compatibility")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PolygaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
