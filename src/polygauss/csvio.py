"""The CSV tables and JSON documents the command line reads and writes.

A sequence table has the header ``index,time,value``, an ensemble table
``rep,index,value``; each report adds a histogram (``bin_left,bin_right,count``)
and a bicoherence (``j,k,bicoherence_sq``) table. Floats are written with
``repr``, so a written sequence reads back bit for bit. ``summary.json`` and
``report.json`` go through one writer: two-space indent, sorted keys and a
final newline.

The header is read from an open ASCII handle. A clean body is parsed by one
call of ``np.loadtxt`` on the path, which opens the file again and runs numpy's
chunked C reader. A file that call rejects is parsed from the first handle,
its whitespace-only lines dropped by ``itertools.filterfalse(str.isspace, ...)``;
that pass decides what is accepted and words every malformed-row error.
"""

import itertools
import lzma

import numpy as np

from .errors import ConfigError
from .ortho import SampleGrid, Sequence

#: what ``np.loadtxt`` raises when a file is not a clean table: a malformed row or
#: non-ASCII text (``ValueError``), or a file it opens as compressed by its extension
_FAST_PATH_ERRORS = (ValueError, OSError, EOFError, lzma.LZMAError)


def _loadtxt(source, header, **kwargs):
    dtype = [(name, np.float64 if name in ("time", "value") else np.int64) for name in header]
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1, **kwargs)


def read_table_csv(path: str):
    """Read a sequence or ensemble CSV; returns ('sequence', Sequence) or ('ensemble', Ensemble).

    After the header is checked, numpy opens the path again and parses the body
    in one pass of its chunked C reader. A file that pass rejects (whitespace-only
    lines, a malformed row, non-ASCII text, a name numpy opens as compressed) is
    parsed again from the first handle. The file's text is never held whole.
    """
    try:
        # the ascii codec raises before any non-ASCII text reaches loadtxt's tokenizer,
        # which numpy 2.4 can crash on astral-plane characters
        with open(path, encoding="ascii", newline="") as fh:
            for skip, line in enumerate(fh, 1):
                if not line.isspace():
                    break
            else:
                raise ConfigError(f"{path}: empty file")
            header = line.strip().split(",")
            if header not in (["index", "time", "value"], ["rep", "index", "value"]):
                raise ConfigError(f"{path}: unrecognized header {header}")
            if next(itertools.filterfalse(str.isspace, fh), None) is None:
                raise ConfigError(f"{path}: no data rows")
            try:
                table = _loadtxt(path, header, skiprows=skip, encoding="ascii")
            except _FAST_PATH_ERRORS:
                fh.seek(0)
                table = _loadtxt(
                    itertools.filterfalse(str.isspace, itertools.islice(fh, skip, None)), header)
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise ConfigError(f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}; "
                          "the CSV must be ASCII text") from None
    except ValueError as exc:
        # loadtxt rejects rows with a wrong field count or a field that is not a number
        raise ConfigError(f"{path}: malformed row ({exc})") from None
    try:
        return _table_object(header, table)
    except ConfigError as exc:  # the grid, sequence and ensemble checks, with the path
        raise ConfigError(f"{path}: {exc}") from None


def _table_object(header, table):
    """The Sequence or Ensemble that a parsed table holds."""
    if header[0] == "index":
        if not np.array_equal(table["index"], np.arange(table.size)):
            raise ConfigError("sequence index must run 0..N-1 in file order")
        # contiguous copies: matmul sums a strided field view in another order (last-bit changes)
        return "sequence", Sequence(table["value"].copy(), SampleGrid(table["time"].copy()))
    reps, idx = table["rep"], table["index"]
    if reps.min() < 0 or idx.min() < 0:
        raise ConfigError("ensemble needs rows with non-negative rep and index")
    n_rep, n_idx = int(reps.max()) + 1, int(idx.max()) + 1
    # the size check bounds the bincount; the counts reject duplicated or missing cells
    if (table.size != n_rep * n_idx
            or np.any(np.bincount(reps * n_idx + idx, minlength=table.size) != 1)):
        raise ConfigError("ensemble table is not a full rep x index grid")
    values = np.empty((n_rep, n_idx))
    values[reps, idx] = table["value"]
    from .gaussianity import Ensemble  # only an ensemble table needs the test battery's layer

    return "ensemble", Ensemble(values)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and the already formatted ``rows`` as newline-terminated lines."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_sequence_csv(path: str, seq: Sequence) -> None:
    _write_csv(path, "index,time,value", (
        f"{i},{_fmt(t)},{_fmt(v)}" for i, (t, v) in enumerate(zip(seq.grid.points, seq.values))))


def write_report_tables(prefix: str, report) -> list[str]:
    """Write a report's ``<prefix>histogram.csv`` and ``<prefix>bicoherence.csv``; returns both."""
    hist, bicoh = report.histogram, report.bicoherence
    paths = [prefix + "histogram.csv", prefix + "bicoherence.csv"]
    _write_csv(paths[0], "bin_left,bin_right,count", (
        f"{_fmt(lo)},{_fmt(hi)},{int(c)}"
        for lo, hi, c in zip(hist.edges, hist.edges[1:], hist.counts)))
    _write_csv(paths[1], "j,k,bicoherence_sq", (
        f"{j},{k},{_fmt(val)}" for (j, k), val in zip(bicoh.points, bicoh.values)))
    return paths


def write_json(path: str, doc) -> None:
    """Write ``doc`` as JSON with a two-space indent, sorted keys and a final newline."""
    import json  # loaded by the commands that write a document; transform writes none
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
