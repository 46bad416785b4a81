"""Run one workload in a fresh single-process interpreter.

    python perfbench/worker.py --workload NAME --run-dir DIR --mode MODE [--seconds S]

``run.py`` starts this with ``PYTHONPATH`` at the checkout's ``src`` and the
BLAS/OpenMP thread variables pinned to 1. Modes:

- ``probe``: import polygauss, run one operation, print ``ready`` (the parent
  stops its set-up clock there), then check the output.
- ``measure``: one untimed warm-up operation, then a closed loop of timed
  operations for S seconds. Every output is checked outside the timed region.
- ``trace``: the same loop, with the tracer installed on every other
  operation, so traced and untraced rates come from the same run. Spans are
  written to ``--spans`` when the loop ends.

``measure`` and ``trace`` print one JSON line as the last line of stdout.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter

from workloads import WORKLOADS, CheckFailed

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_ERRORS_REPORTED = 5


def attempt(wl, i, tracer=None):
    """Run operation ``i`` (timed) and check it (untimed); returns (seconds, error)."""
    if tracer is not None:
        tracer.op_id = i
        tracer.install()
    try:
        t0 = perf_counter()
        out = wl.op(i)
        elapsed = perf_counter() - t0
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"op {i}: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        wl.check(out)
    except Exception as exc:
        return None, f"op {i} check: {type(exc).__name__}: {exc}"
    return elapsed, None


def closed_loop(wl, seconds, tracer=None):
    """Warm up, then run operations back to back until ``seconds`` have passed."""
    errors = []
    untraced, traced = [], []
    traced_ops = 0
    _, err = attempt(wl, 0)
    if err:
        errors.append(err)
    i = 1
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        use_tracer = tracer is not None and i % 2 == 1
        traced_ops += use_tracer
        elapsed, err = attempt(wl, i, tracer if use_tracer else None)
        if err:
            errors.append(err)
        else:
            (traced if use_tracer else untraced).append(elapsed)
        i += 1
    try:
        wl.finish()
    except Exception as exc:
        errors.append(f"final check: {type(exc).__name__}: {exc}")
    return {"attempted": i + 1, "failed": len(errors), "errors": errors[:MAX_ERRORS_REPORTED],
            "latencies_s": untraced, "traced_latencies_s": traced,
            "traced_ops": traced_ops}


def environment():
    import numpy
    import polygauss
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "polygauss.NUMBA_ENABLED": getattr(polygauss, "NUMBA_ENABLED", "absent"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    scratch = os.path.join(args.run_dir, f"{args.mode}-{os.getpid()}")
    os.makedirs(scratch)
    tracer = None
    if args.mode == "trace":
        import polygauss.cli  # noqa: F401  loaded so its names are wrapped, not reported absent
        from tracer import Tracer

        tracer = Tracer()
    wl = WORKLOADS[args.workload](args.run_dir, scratch)
    if args.mode == "probe":
        out = wl.op(0)
        print("ready", flush=True)
        try:
            wl.check(out)
        except CheckFailed as exc:
            print(f"set-up probe check: {exc}", file=sys.stderr)
            return 1
        return 0

    result = closed_loop(wl, args.seconds, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment()
    if tracer is not None:
        result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "raised": tracer.raised, "counts": tracer.counts,
                            "absent": sorted(tracer.absent)}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
