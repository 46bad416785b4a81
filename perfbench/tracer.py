"""Outside-in tracer: spans around calls into polygauss, from outside the package.

Each target function is wrapped by replacing the function object in every
loaded ``polygauss`` namespace that bound it: the defining module, the package
re-exports in ``polygauss/__init__.py`` and the ``from .x import y`` names in
``experiment`` and ``cli``. Patching only the defining module would miss calls
made through those other names. ``RngStream.generator`` is wrapped on its
class. ``uninstall`` puts every original back.

A span is ``(layer, start, end, parent span id, operation id, raised)``. Spans
stay in memory and are written out once, when the run ends. Layer names are
module names without the leading underscore (``_kernels`` -> ``kernels``), so
every metric name starts with a letter.

A target that the package no longer defines is reported as absent instead of
failing the run; so is a count whose hook no longer fits the function.
"""

import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (module under polygauss, attribute path); "Class.method" wraps on the class.
TARGETS = (
    ("noise", "draw_noise"),
    ("noise", "RngStream.generator"),
    ("ortho", "select_order"),
    ("ortho", "build_basis"),
    ("ortho", "projection_operator"),
    ("ortho", "transform"),
    ("_kernels", "triple_grid"),
    ("_kernels", "gram_recurrence"),
    ("gaussianity", "gaussianity_report"),
    ("gaussianity", "bispectrum_direct"),
    ("gaussianity", "power_spectrum"),
    ("gaussianity", "_frames_fft"),
    ("gaussianity", "bicoherence"),
    ("gaussianity", "hinich_test"),
    ("gaussianity", "excess_kurtosis"),
    ("gaussianity", "histogram"),
    ("experiment", "run_experiment"),
    ("experiment", "emit_report"),
    ("cli", "read_table_csv"),
    ("cli", "cmd_test"),
)


def layer_name(module, attr):
    return f"{module.lstrip('_')}.{attr.split('.')[-1]}"


# Counts taken at a layer boundary: hook(args, kwargs, result) -> {metric: increment}.
def _triple_grid_counts(args, kwargs, result):
    X, F = args
    R, M = X.shape
    # Computed from array shapes, not measured: read the (R, M) complex frames,
    # form one complex triple product per (r, j, k), write s3 and msq.
    return {"kernels.triple_grid.triple_products": R * F * F,
            "kernels.triple_grid.bytes_computed": 16 * R * M + 16 * R * F * F + 24 * F * F}


def _gram_recurrence_counts(args, kwargs, result):
    return {"kernels.gram_recurrence.rows": args[1]}


def _bicoherence_counts(args, kwargs, result):
    kept = len(result.points)
    return {"gaussianity.bicoherence.kept_points": kept,
            "gaussianity.bicoherence.domain_points": kept + result.excluded}


def _emit_report_counts(args, kwargs, result):
    return {"experiment.bytes_written": sum(os.path.getsize(p) for p in result)}


def _read_table_counts(args, kwargs, result):
    return {"cli.rows_parsed": result[1].values.size}


HOOKS = {
    "kernels.triple_grid": _triple_grid_counts,
    "kernels.gram_recurrence": _gram_recurrence_counts,
    "gaussianity.bicoherence": _bicoherence_counts,
    "experiment.emit_report": _emit_report_counts,
    "cli.read_table_csv": _read_table_counts,
}


class Tracer:
    """Wraps the targets while installed; accumulates spans and counts across installs."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = set()
        self._stack = []   # open span ids
        self._child = []   # time covered by children of each open span
        self._undo = []

    def _wrap(self, layer, fn):
        hook = HOOKS.get(layer)

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            self._child.append(0.0)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf_counter()
                self._stack.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += t1 - t0
                self.spans[sid] = (layer, t0, t1, parent, self.op_id, raised)
                self.calls[layer] += 1
                self.self_s[layer] += t1 - t0 - child
                self.raised[layer] += raised
            if hook is not None:
                try:
                    for key, inc in hook(args, kwargs, result).items():
                        self.counts[key] += inc
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    self.absent.add(f"counts of {layer}")
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "polygauss" or name.startswith("polygauss."))]
        for module, attr in TARGETS:
            layer = layer_name(module, attr)
            *owner_path, name = attr.split(".")
            owner = sys.modules.get(f"polygauss.{module}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.absent.add(layer)
                continue
            wrapper = self._wrap(layer, original)
            for stat in (self.calls, self.self_s, self.raised):
                stat[layer] += 0  # a layer that is never called still reads 0
            if owner_path:
                targets = [(owner, name)]
            else:
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for obj, key in targets:
                setattr(obj, key, wrapper)
                self._undo.append((obj, key, original))

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("layer,start_s,end_s,parent,op,raised\n")
            for layer, t0, t1, parent, op, raised in self.spans:
                fh.write(f"{layer},{t0!r},{t1!r},{parent},{op},{int(raised)}\n")
