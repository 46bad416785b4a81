"""Command-line front end: signal generation, transform, testing, simulation.

Exit codes: 0 success, 1 configuration/flag error, 2 statistically degenerate
data, 3 I/O failure.

Each command imports the layers it runs when it runs, so ``transform`` never
loads the noise, Gaussianity or Monte Carlo modules. A flag left unset keeps
the library's reference value.
"""

import argparse
import os
import sys

from .csvio import read_table_csv, write_json, write_report_tables, write_sequence_csv
from .errors import ConfigError, PolygaussError
from .ortho import SampleGrid, build_basis, projection_operator, select_order, transform

EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_IO = 3
#: simulate flags that are ExperimentConfig fields of the same name
_SETUP_FIELDS = ("snr_db", "families", "gamma_shape", "fft_len", "bins")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _component(text: str) -> tuple:
    try:
        amp, damp, omega, phase = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected AMP,DAMP,OMEGA,PHASE, got {text!r}") from None
    return amp, damp, omega, phase


def _signal_spec(reference: bool, components):
    """The reference signal, or the ``--component`` list; never both."""
    from .noise import SignalSpec

    if reference and components:
        raise ConfigError("--component cannot be combined with --paper or --paper-signal")
    return SignalSpec.reference() if reference else SignalSpec(tuple(components))


def cmd_gen_signal(args) -> int:
    from .noise import synth_signal

    grid = SampleGrid.uniform(args.n, args.dt)
    spec = _signal_spec(args.paper_signal, args.component)
    write_sequence_csv(args.out, synth_signal(spec, grid))
    return 0


def cmd_transform(args) -> int:
    auto = args.order == "auto"  # both flags are checked before the table is read
    if auto != (args.sigma2 is not None):
        raise ConfigError("--sigma2 is required with --order auto and not allowed without it")
    if not auto:
        try:
            order = int(args.order)
        except ValueError:
            raise ConfigError(f"--order must be an integer or 'auto', got {args.order!r}") from None
    kind, seq = read_table_csv(args.infile)
    if kind != "sequence":
        raise ConfigError("transform expects a sequence CSV")
    grid = seq.grid
    if auto:
        sel = select_order(grid, "penalized", range(1, grid.count + 1),
                           observed=seq, noise_var=args.sigma2)
        basis = sel.basis
        print(f"selected order: {sel.chosen}")
        print("risk curve:")
        for j, risk in sel.risk_curve:
            print(f"  J={j}: {risk:.6g}")
    else:
        basis = build_basis(grid, order)
    write_sequence_csv(args.out, transform(projection_operator(basis), seq))
    return 0


def cmd_test(args) -> int:
    from .gaussianity import (
        REFERENCE_BINS,
        REFERENCE_FFT_LEN,
        _validate_bins,
        _validate_fft_len,
        gaussianity_report,
        segment_record,
    )

    fft_len = REFERENCE_FFT_LEN if args.fft_len is None else args.fft_len
    bins = REFERENCE_BINS if args.bins is None else args.bins
    # the flags, with one frame's and the edges' sizes, are checked before the table is read
    for flag, validate, value in (("--fft-len", _validate_fft_len, fft_len),
                                  ("--bins", _validate_bins, bins)):
        try:
            validate(value)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    kind, data = read_table_csv(args.infile)
    if kind == "sequence":
        ens = segment_record(data.values, fft_len)
    else:
        ens = data
    report = gaussianity_report(ens, fft_len=fft_len, bins=bins)
    os.makedirs(args.out_dir, exist_ok=True)
    write_json(os.path.join(args.out_dir, "report.json"), {
        "S": report.statistic,
        "dof": report.dof,
        "pfa": report.pfa,
        "kurtosis": report.avg_kurtosis,
        "M": report.fft_len,
        "K": report.frames,
        "R": report.replications,
    })
    write_report_tables(os.path.join(args.out_dir, ""), report)
    print(f"S={report.statistic:.6g} dof={report.dof} "
          f"PFA={report.pfa:.6g} kurtosis={report.avg_kurtosis:.6g}")
    return 0


def cmd_simulate(args) -> int:
    from .experiment import (
        REFERENCE_DT,
        REFERENCE_N,
        ExperimentConfig,
        emit_report,
        run_experiment,
    )

    n = REFERENCE_N if args.n is None else args.n
    dt = REFERENCE_DT if args.dt is None else args.dt
    setup = {key: getattr(args, key) for key in _SETUP_FIELDS if getattr(args, key) is not None}
    result = run_experiment(ExperimentConfig(
        replications=args.reps,
        seed=args.seed,
        grid=SampleGrid.uniform(n, dt),
        signal=_signal_spec(args.paper, args.component),
        **setup,
    ))
    emit_report(result, args.out_dir)
    print(f"{'family':>10} {'J':>3} {'pfa_in':>10} {'K_in':>9} {'pfa_out':>10} {'K_out':>9}")
    for fam in result.families:
        print(f"{fam.family:>10} {result.selection.chosen:>3} "
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
                   help="noise variance; required with --order auto, rejected otherwise")
    p.add_argument("--out", required=True, help="output sequence CSV")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("test", help="run the Gaussianity battery on a sequence or ensemble")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--fft-len", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--paper", "--paper-signal", action="store_true",
                   help="use the reference signal; the other flags default to the reference study")
    p.add_argument("--n", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--snr-db", type=float)
    p.add_argument("--component", action="append", default=[], type=_component,
                   metavar="AMP,DAMP,OMEGA,PHASE")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, required=True,
                   help="master seed; simulations never seed from the clock")
    p.add_argument("--noise", dest="families", nargs="+", metavar="FAMILY",
                   help="noise families to run; default every family")
    p.add_argument("--gamma-shape", type=float)
    p.add_argument("--fft-len", type=int)
    p.add_argument("--bins", type=int)
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
    except MemoryError as exc:  # a size flag too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except PolygaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
