"""The CSV tables the command line reads and writes.

A sequence table has the header ``index,time,value``, an ensemble table
``rep,index,value``; reports add histogram (``bin_left,bin_right,count``) and
bicoherence (``j,k,bicoherence_sq``) tables. Floats are written with ``repr``,
so a written sequence reads back bit for bit.

A table is read from one open file, decoded as ASCII. A clean file's body is
parsed by one call of ``np.loadtxt`` on its path, which runs numpy's chunked C
reader. A file that call rejects is parsed from the same handle, with its
whitespace-only lines dropped by ``itertools.filterfalse(str.isspace, ...)``;
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

    After the header is checked, the body is parsed in one pass of numpy's chunked
    C reader. A file that pass rejects (whitespace-only lines, a malformed row,
    non-ASCII text, a name numpy opens as compressed) is parsed again from the
    open handle. The file's text is never held whole.
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


def write_histogram_csv(path: str, hist) -> None:
    edges = hist.edges
    _write_csv(path, "bin_left,bin_right,count", (
        f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}" for i, c in enumerate(hist.counts)))


def write_bicoherence_csv(path: str, bicoh) -> None:
    _write_csv(path, "j,k,bicoherence_sq", (
        f"{j},{k},{_fmt(val)}" for (j, k), val in zip(bicoh.points, bicoh.values)))
