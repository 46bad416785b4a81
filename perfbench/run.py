"""The polygauss benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``mc_paper``, ``order_auto``, ``cli_ensemble`` or ``all``. Run it
from anywhere inside a source checkout; nothing needs installing or building,
because every worker runs with ``PYTHONPATH`` at the checkout's ``src``.

With ``--trace 0`` one fresh worker runs a closed loop with one caller for S
seconds, and the run measures the end-to-end metrics named in
``BENCHMARK.json``:

- ``setup_s``: wall time for a fresh interpreter to import polygauss and finish
  the workload's first operation, the median of ``SETUP_REPEATS`` interpreters;
- ``op_tail_ms``: the highest latency percentile with at least ten samples
  beyond it (which one is printed);
- ``peak_rss_mb``: the measuring worker's peak resident memory.

It also prints three metrics that ``BENCHMARK.json`` does not gate:

- ``ops_per_s`` (completed operations over the time spent in them) and
  ``op_p50_ms`` (the median latency): on a shared host, operation latency
  switches for tens of seconds at a time between two levels about 2x apart as
  other tenants load the CPUs; a run's median and mean land on either level, so
  they spread past any usable bound between runs of the same code, while the
  tail sits on the slower level in every run and holds within a few percent;
- ``failed_ops_frac``: the share of attempted operations that raised, exited
  non-zero or failed their output check. It is 0 on a healthy tree, so it is
  carried by the result's ``attempted`` and ``failed`` fields instead.

With ``--trace 1`` a separate worker wraps the package's public functions from
outside (``tracer.py``) on every other operation and reports each layer's
calls, self time and raised calls per traced operation, the counts taken at
those boundaries, import times from ``python -X importtime``, and the tracing
overhead as traced against untraced ops_per_s of the same run. Spans and the
full result go to ``.perfbench_out/`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Outside a checkout that holds
``src/polygauss`` the benchmark exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
PROBE_TIMEOUT_S = 60
TAIL_SAMPLES = 10
# Printed with every --trace 0 result but left out of BENCHMARK.json; see above.
UNGATED = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"))


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({v: "1" for v in THREAD_VARS})
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def setup_probe(name, run_dir, env):
    """Seconds from starting a fresh interpreter until its first operation is done."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--run-dir", run_dir, "--mode", "probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed if line.strip() == "ready" and code == 0 else None


def import_times(env):
    """Cumulative ``import polygauss`` and ``scipy.special`` seconds from -X importtime."""
    found = {"polygauss.import_s": [], "polygauss.import_scipy_special_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polygauss"],
                             env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"import polygauss failed:\n{out.stderr}")
        cumulative = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        found["polygauss.import_s"].append(cumulative.get("polygauss", 0.0))
        # 0 when importing polygauss no longer imports scipy.special.
        found["polygauss.import_scipy_special_s"].append(cumulative.get("scipy.special", 0.0))
    return {k: statistics.median(v) for k, v in found.items()}


def run_worker(name, run_dir, env, mode, seconds, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--run-dir", run_dir,
           "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=seconds + 120)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{name} worker exited {out.returncode}")
    return json.loads(lines[-1])


def tail(latencies):
    """(value, percentile): the highest order statistic with TAIL_SAMPLES samples beyond it.

    Below 2 * TAIL_SAMPLES samples that statistic would sit under the median, so
    the maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def rate(latencies):
    return len(latencies) / sum(latencies) if latencies else 0.0


def end_to_end(name, seconds, run_dir, env):
    # Half the probes run before the timed loop and half after, so that they
    # sample the host's load at two times S seconds apart, not one.
    before = (SETUP_REPEATS + 1) // 2
    probes = [setup_probe(name, run_dir, env) for _ in range(before)]
    res = run_worker(name, run_dir, env, "measure", seconds)
    probes += [setup_probe(name, run_dir, env) for _ in range(SETUP_REPEATS - before)]
    ok_probes = [p for p in probes if p is not None]
    lat = res["latencies_s"]
    if not lat or not ok_probes:
        raise RuntimeError(f"{name}: no operation completed; errors: {res['errors']}")
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(ok_probes),
        "ops_per_s": rate(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    attempted = res["attempted"] + len(probes)
    failed = res["failed"] + len(probes) - len(ok_probes)
    notes = {
        "setup_s": f"median of {len(ok_probes)} fresh interpreters",
        "ops_per_s": f"{len(lat)} operations in {sum(lat):.2f} s",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} samples",
        "peak_rss_mb": "worker",
    }
    return metrics, notes, attempted, failed, res


def per_layer(name, seconds, run_dir, env, spans):
    res = run_worker(name, run_dir, env, "trace", seconds, spans)
    layers, n = res["layers"], max(res["traced_ops"], 1)
    metrics = import_times(env)
    for layer in layers["calls"]:
        metrics[f"{layer}.calls"] = layers["calls"][layer] / n
        metrics[f"{layer}.self_s"] = layers["self_s"][layer] / n
        metrics[f"{layer}.raised"] = layers["raised"][layer] / n
    counts = layers["counts"]
    for key in ("kernels.triple_grid.triple_products", "kernels.triple_grid.bytes_computed",
                "kernels.gram_recurrence.rows", "experiment.bytes_written", "cli.rows_parsed"):
        metrics[key] = counts.get(key, 0) / n
    reports = layers["calls"].get("gaussianity.gaussianity_report", 0)
    metrics["gaussianity.ffts_per_report"] = (
        layers["calls"].get("gaussianity._frames_fft", 0) / reports if reports else 0.0)
    domain = counts.get("gaussianity.bicoherence.domain_points", 0)
    metrics["gaussianity.bicoherence.kept_ratio"] = (
        counts.get("gaussianity.bicoherence.kept_points", 0) / domain if domain else 0.0)
    traced, untraced = rate(res["traced_latencies_s"]), rate(res["latencies_s"])
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.overhead_frac"] = untraced / traced - 1.0 if traced else 0.0
    notes = {"traced_ops": res["traced_ops"], "absent": layers["absent"],
             "ratio_bases": {"gaussianity.ffts_per_report": f"{reports} reports",
                             "gaussianity.bicoherence.kept_ratio": f"{domain} domain points"}}
    return metrics, notes, res["attempted"], res["failed"], res


def run_workload(name, seed, seconds, trace, env, out_dir, tmp_root):
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    try:
        WORKLOADS[name].make_inputs(seed, run_dir)
        if trace:
            spans = str(out_dir / f"{name}.spans.csv")
            return per_layer(name, seconds, run_dir, env, spans)
        return end_to_end(name, seconds, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def print_report(name, seed, seconds, trace, spec_metrics, metrics, notes, attempted, failed,
                 res):
    wl = WORKLOADS[name]
    print(f"workload {name}  seed {seed}  {seconds:g} s  closed loop, 1 caller"
          f"{'  (traced)' if trace else ''}")
    print(f"  why: {wl.WHY}")
    print(f"  bypasses: {wl.BYPASSES}")
    for m in spec_metrics:
        value = metrics.get(m["name"])
        note = notes.get(m["name"], "") if not trace else ""
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<44} {shown:>14} {m['unit']:<8} {note}")
    if not trace:
        for key, unit in UNGATED:
            print(f"  {key:<44} {metrics[key]:>14.6g} {unit:<8} {notes.get(key, '')} (not gated)")
    print(f"  {'failed_ops_frac':<44} {failed / attempted:>14.6g} {'ratio':<8} "
          f"{failed} of {attempted} attempted")
    for err in res["errors"]:
        print(f"  failure: {err}")
    if trace:
        self_times = sorted(((v, k[:-len('.self_s')]) for k, v in metrics.items()
                             if k.endswith(".self_s")), reverse=True)
        top = ", ".join(f"{layer} {v * 1e3:.1f} ms" for v, layer in self_times[:3])
        print(f"  top self time per traced op: {top}")
        print(f"  traced ops: {notes['traced_ops']}; ratio bases: {notes['ratio_bases']}")
        print(f"  tracing overhead: {metrics['trace.overhead_frac']:.1%} "
              f"(ops_per_s untraced {metrics['trace.ops_per_s_untraced']:.4g}, "
              f"traced {metrics['trace.ops_per_s_traced']:.4g})")
        if notes["absent"]:
            print(f"  absent from the package: {', '.join(notes['absent'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polygauss" / "__init__.py").is_file():
        print(f"error: no src/polygauss under {ROOT}; run from a polygauss checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    env = worker_env()
    out_dir = ROOT / ".perfbench_out"
    tmp_root = ROOT / ".perfbench_tmp"
    out_dir.mkdir(exist_ok=True)
    tmp_root.mkdir(exist_ok=True)
    environment = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                   "git_commit": git_commit()}

    total_attempted = total_failed = 0
    reported = {}
    for name in names:
        try:
            metrics, notes, attempted, failed, res = run_workload(
                name, args.seed, args.seconds, args.trace, env, out_dir, tmp_root)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        environment.update(res["env"])
        print(f"env: {json.dumps(environment, sort_keys=True)}")
        print_report(name, args.seed, args.seconds, args.trace, spec_metrics, metrics, notes,
                     attempted, failed, res)
        total_attempted += attempted
        total_failed += failed
        prefix = f"{name}." if len(names) > 1 else ""
        for m in spec_metrics:
            # A metric whose layer is gone from the package reads 0 and is listed as absent.
            reported[prefix + m["name"]] = {"value": metrics.get(m["name"], 0.0),
                                            "unit": m["unit"]}
        with open(out_dir / f"{name}.{'trace' if args.trace else 'e2e'}.json", "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "env": environment,
                       "metrics": metrics, "notes": notes, "attempted": attempted,
                       "failed": failed, "errors": res["errors"],
                       "latencies_s": res["latencies_s"]}, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
