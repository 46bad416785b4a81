"""The CSV tables the command line reads and writes.

A sequence table has the header ``index,time,value``, an ensemble table
``rep,index,value``; reports add histogram (``bin_left,bin_right,count``) and
bicoherence (``j,k,bicoherence_sq``) tables. Floats are written with ``repr``,
so a written sequence reads back bit for bit.

A table is read in two passes at most. A clean file's body is parsed by one
call of ``np.loadtxt`` on its path, which runs numpy's chunked C reader. A file
that call rejects is read again line by line (``_stream_table``), the reader
that decides what is accepted and what every error says.
"""

import itertools
import lzma

import numpy as np

from .errors import ConfigError
from .ortho import SampleGrid, Sequence

#: what ``np.loadtxt`` raises when a file is not a clean table: a malformed row or
#: non-ASCII text (``ValueError``), or a file it opens as compressed by its extension
_FAST_PATH_ERRORS = (ValueError, OSError, EOFError, lzma.LZMAError)


def _ascii_rows(path: str, fh):
    """(number, line) for each non-blank line of ``fh``; every yielded line is ASCII.

    A non-ASCII line raises before it is yielded: numpy 2.4's loadtxt can crash the
    process on an integer field of astral-plane characters, so such text never reaches it.
    """
    try:
        for number, line in enumerate(fh, 1):
            if line.isspace():
                continue
            if not line.isascii():
                raise ConfigError(f"{path}: non-ASCII character; the CSV must be ASCII text")
            yield number, line
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def _scan(path: str, fh):
    """Check the header and that a data row follows it.

    Returns the header's fields, the header's line number and the stream of data
    lines from the first one on.
    """
    rows = _ascii_rows(path, fh)
    number, line = next(rows, (0, None))
    if line is None:
        raise ConfigError(f"{path}: empty file")
    header = line.strip().split(",")
    if header not in (["index", "time", "value"], ["rep", "index", "value"]):
        raise ConfigError(f"{path}: unrecognized header {header}")
    first = next(rows, None)
    if first is None:
        raise ConfigError(f"{path}: no data rows")
    return header, number, (line for _, line in itertools.chain([first], rows))


def _loadtxt(source, header, **kwargs):
    dtype = [(name, np.float64 if name in ("time", "value") else np.int64) for name in header]
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1, **kwargs)


def _stream_table(path: str):
    """The header and table of ``path``, its lines fed one at a time into ``np.loadtxt``.

    The reference reader: it alone accepts whitespace-only lines, and it raises
    every error the command line reports for a malformed file.
    """
    with open(path, newline="") as fh:
        header, _, rows = _scan(path, fh)
        try:
            # loadtxt rejects rows with a wrong field count or a field that is not a number
            table = _loadtxt(rows, header)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row ({exc})") from None
    return header, table


def read_table_csv(path: str):
    """Read a sequence or ensemble CSV; returns ('sequence', Sequence) or ('ensemble', Ensemble).

    After the header is checked, the body is parsed in one pass of numpy's chunked
    C reader, which decodes it as ASCII. A file that pass rejects (whitespace-only
    lines, a malformed row, non-ASCII text, a name numpy opens as compressed) is
    read again by ``_stream_table``, so every accepted file and every error is that
    reader's. The file's text is never held whole.
    """
    with open(path, newline="") as fh:
        header, skip, _ = _scan(path, fh)
    try:
        # the ascii codec raises before any non-ASCII text reaches loadtxt's tokenizer
        table = _loadtxt(path, header, skiprows=skip, encoding="ascii")
    except _FAST_PATH_ERRORS:
        header, table = _stream_table(path)
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
