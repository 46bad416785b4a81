"""Command-line front end: signal generation, transform, testing, simulation.

Exit codes: 0 success, 1 configuration/flag error, 2 statistically degenerate
data, 3 I/O failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, PolygaussError
from .experiment import (
    REFERENCE_DT,
    REFERENCE_N,
    ExperimentConfig,
    _write_bicoherence_csv,
    _write_histogram_csv,
    emit_report,
    run_experiment,
    write_sequence_csv,
)
from .gaussianity import Ensemble, gaussianity_report, segment_record
from .noise import NOISE_FAMILIES, SignalSpec, synth_signal
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


def read_table_csv(path: str):
    """Read a sequence or ensemble CSV; returns ('sequence', Sequence) or ('ensemble', Ensemble)."""
    try:
        with open(path, newline="") as fh:
            lines = [line for line in fh if not line.isspace()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = lines[0].strip().split(",")
    if header not in (["index", "time", "value"], ["rep", "index", "value"]):
        raise ConfigError(f"{path}: unrecognized header {header}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no data rows")
    dtype = [(name, np.float64 if name in ("time", "value") else np.int64) for name in header]
    try:
        # loadtxt rejects rows with a wrong field count or a field that is not a number
        table = np.loadtxt(lines[1:], dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed row ({exc})") from None
    if header[0] == "index":
        if not np.array_equal(table["index"], np.arange(table.size)):
            raise ConfigError(f"{path}: sequence index must run 0..N-1 in file order")
        # contiguous copies: matmul sums a strided field view in another order (last-bit changes)
        return "sequence", Sequence(table["value"].copy(), SampleGrid(table["time"].copy()))
    reps, idx = table["rep"], table["index"]
    if reps.min() < 0 or idx.min() < 0:
        raise ConfigError(f"{path}: ensemble needs rows with non-negative rep and index")
    n_rep, n_idx = int(reps.max()) + 1, int(idx.max()) + 1
    # the size check bounds the bincount; the counts reject duplicated or missing cells
    if (table.size != n_rep * n_idx
            or np.any(np.bincount(reps * n_idx + idx, minlength=table.size) != 1)):
        raise ConfigError(f"{path}: ensemble table is not a full rep x index grid")
    values = np.empty((n_rep, n_idx))
    values[reps, idx] = table["value"]
    return "ensemble", Ensemble(values)


def _component(text: str) -> tuple:
    try:
        amp, damp, omega, phase = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected AMP,DAMP,OMEGA,PHASE, got {text!r}") from None
    return amp, damp, omega, phase


def _signal_spec(reference: bool, components) -> SignalSpec:
    """The reference signal, or the ``--component`` list; never both."""
    if reference and components:
        raise ConfigError("--component cannot be combined with --paper or --paper-signal")
    return SignalSpec.reference() if reference else SignalSpec(tuple(components))


def cmd_gen_signal(args) -> int:
    grid = SampleGrid.uniform(args.n, args.dt)
    spec = _signal_spec(args.paper_signal, args.component)
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
    op = projection_operator(build_basis(grid, order))
    write_sequence_csv(args.out, transform(op, seq))
    return 0


def cmd_test(args) -> int:
    kind, data = read_table_csv(args.infile)
    if kind == "sequence":
        ens = segment_record(data.values, args.fft_len)
    else:
        ens = data
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
    _write_histogram_csv(os.path.join(args.out_dir, "histogram.csv"), report.histogram)
    _write_bicoherence_csv(os.path.join(args.out_dir, "bicoherence.csv"), report.bicoherence)
    print(f"S={report.statistic:.6g} dof={report.dof} "
          f"PFA={report.pfa:.6g} kurtosis={report.avg_kurtosis:.6g}")
    return 0


def cmd_simulate(args) -> int:
    result = run_experiment(ExperimentConfig(
        replications=args.reps,
        seed=args.seed,
        grid=SampleGrid.uniform(args.n, args.dt),
        signal=_signal_spec(args.paper, args.component),
        snr_db=args.snr_db,
        families=args.noise,
        gamma_shape=args.gamma_shape,
        fft_len=args.fft_len,
        bins=args.bins,
    ))
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
    p.add_argument("--component", action="append", default=[], type=_component,
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
    p.add_argument("--fft-len", type=int, default=ExperimentConfig.fft_len)
    p.add_argument("--bins", type=int, default=ExperimentConfig.bins)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--paper", "--paper-signal", action="store_true",
                   help="use the reference signal; the other flags default to the reference study")
    p.add_argument("--n", type=int, default=REFERENCE_N)
    p.add_argument("--dt", type=float, default=REFERENCE_DT)
    p.add_argument("--snr-db", type=float, default=ExperimentConfig.snr_db)
    p.add_argument("--component", action="append", default=[], type=_component,
                   metavar="AMP,DAMP,OMEGA,PHASE")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed; simulations never seed from the clock")
    p.add_argument("--noise", nargs="+", choices=NOISE_FAMILIES,
                   default=ExperimentConfig.families)
    p.add_argument("--gamma-shape", type=float, default=ExperimentConfig.gamma_shape)
    p.add_argument("--fft-len", type=int, default=ExperimentConfig.fft_len)
    p.add_argument("--bins", type=int, default=ExperimentConfig.bins)
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
    except PolygaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
