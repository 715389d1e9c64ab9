"""CSV serialization of count and ratio series.

Schemas are fixed: ``t_start_s,width_s,counts,channel`` for counts and
``t_start_s,width_s,ratio,sigma`` for ratios.  Floats are written with
repr precision, so write-then-read is lossless; invalid ratio bins are
stored as NaN pairs.  Readers validate structure and report the first
offending line by number.

The writers format ``_BLOCK_BINS`` rows at a time, each column of a block
in one ``repr`` of its list, so the text of a whole file is never held.
The process keeps the text of the last ``t_start`` column it wrote
(``_time_text``): the three files of one product share their time axis,
so it is formatted once for all of them.  At 60 000 rows of 1.2 s that
is 1.17 MB: the column's 0.48 MB of bytes as the key and 0.69 MB of text,
one string per block.

Each reader first tries one numpy pass.  It reads the file in binary,
checks the exact header and then scans the rest in chunks of
``_SCAN_BYTES`` for bytes outside printable ASCII and "\n" and for a line
longer than the csv module's field size limit, counting the data rows.
It then reads the data rows again, ``_BLOCK_BINS`` at a time, parses each
block through ``np.loadtxt`` into columns allocated for all the rows and
checks that its rows name one channel.  The columns are marked read-only
and the series keeps them, so neither a whole-file table nor a second
copy of a column is made.  Where that pass declines a
file or finds anything wrong, the row-by-row reader reads it again; it
is the authority on which files are accepted and on every error message,
so both paths return the same series or raise the same error.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
import functools
import itertools
import math
import warnings

import numpy as np

from .errors import StructuralError
from .spectra import _CHANNELS, _EDGE_RTOL, CountSeries, RatioSeries, _frozen

COUNT_HEADER = ["t_start_s", "width_s", "counts", "channel"]
RATIO_HEADER = ["t_start_s", "width_s", "ratio", "sigma"]

_INT64_MAX = int(np.iinfo(np.int64).max)
_COUNT_DTYPE = np.dtype([("t_start_s", "f8"), ("width_s", "f8"), ("counts", "i8"), ("channel", "O")])
# the numpy pass reads the channel as bytes one wider than the longest
# valid channel: a longer name is cut to that width, which no valid
# channel has, so the cut name is rejected and the row reader names it
_COUNT_TABLE_DTYPE = np.dtype([("t_start_s", "f8"), ("width_s", "f8"), ("counts", "i8"),
                               ("channel", f"S{max(map(len, _CHANNELS)) + 1}")])
_RATIO_DTYPE = np.dtype([(name, "f8") for name in RATIO_HEADER])
# The numpy pass takes only files of printable ASCII and "\n".  numpy's
# number parser skips some control characters (such as "\x1c") that
# ``float`` and ``int`` reject, and its string fields drop trailing NULs.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"
# rows per block of the writers and of the reader's parse, and bytes per
# chunk of the reader's scan
_BLOCK_BINS = 4096
_SCAN_BYTES = 1 << 18


def write_count_series(series: CountSeries, path) -> None:
    """Write a count series; one row per bin, fixed header.  The text of
    its time column is kept for the next file on the same bins."""
    columns = (series.t_start, _width_column(series.width), series.counts)
    with open(path, "w", newline="") as fh:
        _write_rows(fh, COUNT_HEADER, columns, f",{series.channel}\n")


def read_count_series(path) -> CountSeries:
    """Read a count series, validating schema, counts and contiguity.

    Raises ``StructuralError`` naming the first bad line; an empty data
    section yields an empty gamma-channel series with a warning.
    """
    return _read(path, _count_table, _count_rows)


def write_ratio_series(series: RatioSeries, path) -> None:
    """Write a ratio series to a file path or an open text stream (such as
    ``sys.stdout``); invalid bins become NaN ratio and sigma.  The text of
    its time column is kept for the next file on the same bins."""
    columns = (series.t_start, _width_column(series.width), series.ratio, series.sigma)
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
        _write_rows(fh, RATIO_HEADER, columns, "\n")


def _width_column(width: np.ndarray):
    """The widths, or their one ``repr`` where all are equal.  Widths are
    positive and finite, so equal widths have one ``repr``; a uniform
    column, as ``simulate_counts`` and ``rebin`` give, is formatted once."""
    if len(width) and (width == width[0]).all():
        return repr(float(width[0]))
    return width


@functools.lru_cache(maxsize=1)
def _time_text(t_start: bytes, block: int) -> tuple[str, ...]:
    """The text of the float64 ``t_start`` column, one str per ``block``
    rows: the ``repr`` of the block's list without its brackets.  The
    process keeps the last column asked for.  The key is the column's
    bytes, so -0.0 and 0.0, whose ``repr`` differ, never share text."""
    t = np.frombuffer(t_start)
    return tuple(repr(t[i:i + block].tolist())[1:-1] for i in range(0, len(t), block))


def _write_rows(fh, header, columns, end):
    """Write ``header``, then row k of ``columns`` joined by commas and
    closed by ``end``, ``_BLOCK_BINS`` rows at a time.

    The first column is the float64 ``t_start``, its text taken from
    ``_time_text``.  Every other column is an array, each value written as
    its ``repr``, or a str that every row shares.  Each array slice is
    formatted in one call, as ``repr`` of its list, which writes each value
    as its own ``repr``.
    """
    fh.write(",".join(header) + "\n")
    times = _time_text(columns[0].tobytes(), _BLOCK_BINS)
    n = len(columns[0])
    step = 2 * len(columns)
    for i, time_text in zip(range(0, n, _BLOCK_BINS), times):
        rows = min(n - i, _BLOCK_BINS)
        parts = [","] * (step * rows)
        parts[step - 1::step] = [end] * rows
        parts[0::step] = time_text.split(", ")
        for k, column in enumerate(columns[1:], 1):
            if isinstance(column, str):
                parts[2 * k::step] = [column] * rows
            else:
                parts[2 * k::step] = repr(column[i:i + rows].tolist())[1:-1].split(", ")
        fh.write("".join(parts))


def read_ratio_series(path) -> RatioSeries:
    """Read a ratio series; NaN rows are marked invalid, 0/sigma rows low-count."""
    return _read(path, _ratio_table, _ratio_rows)


def _read(path, fast, rows):
    """``fast(path)``, or the row reader's verdict where ``fast`` declines
    (returns None) or fails."""
    try:
        series = fast(path)
    except (ValueError, Warning):  # parse errors, failed checks, undecodable text
        series = None
    return rows(path) if series is None else series


def _ratio_series(t_start, width, ratio, sigma) -> RatioSeries:
    ratio = np.asarray(ratio, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    valid = np.isfinite(ratio) & np.isfinite(sigma)
    low = valid & (ratio == 0.0)
    return RatioSeries(t_start, width, ratio, sigma, _frozen(valid), _frozen(low))


# --- numpy pass --------------------------------------------------------------


def _load_table(path, header, dtype):
    """The columns of all data rows of ``path``, in the fields of ``dtype``,
    or None.

    Each numeric field is a read-only array, which a series keeps.  A bytes
    field (the channel) must be the same on every row and is returned as
    that one value.  None means the file is not plain enough for this pass:
    another header line, no data rows (``_count_lines``), or a bytes field
    that varies.  The columns are allocated once the data rows are counted;
    ``np.loadtxt`` then fills them ``_BLOCK_BINS`` rows at a time, so that
    every block but the last takes memory of one size.
    """
    head = (",".join(header) + "\n").encode("ascii")
    with open(path, "rb") as fh:
        if fh.read(len(head)) != head:
            return None
        rows, lines = _count_lines(fh)
        if not rows:
            return None
        fh.seek(len(head))
        # numpy skips empty lines; leave them out, where there are any, so
        # that a block of lines is a block of rows
        data = fh if rows == lines else filter(b"\n".__ne__, fh)
        columns = [None if dtype[name].kind == "S" else np.empty(rows, dtype[name]) for name in dtype.names]
        shared = {}
        # some numpy releases (1.23 on) parse a non-integer count such as "2.5"
        # or "1e3" through a float, truncate it and only warn; any warning here
        # is a decline, so such files go to the row reader, which rejects them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for at in range(0, rows, _BLOCK_BINS):
                part = np.loadtxt(itertools.islice(data, _BLOCK_BINS), dtype=dtype, delimiter=",",
                                  comments=None, quotechar=None, ndmin=1, encoding="ascii")
                if len(part) != min(_BLOCK_BINS, rows - at):  # no unset value may pass
                    return None
                for name, column in zip(dtype.names, columns):
                    if column is not None:
                        column[at:at + len(part)] = part[name]
                    elif not (part[name] == shared.setdefault(name, part[name][0])).all():
                        return None
    return [shared[name] if column is None else _frozen(column) for name, column in zip(dtype.names, columns)]


def _count_lines(fh) -> tuple[int, int]:
    """The number of data rows (the lines that are not empty) and of lines
    in the rest of ``fh``; no rows where it holds a byte outside
    ``_PLAIN_BYTES`` or a line longer than the csv module's field size limit
    (where the row reader fails).  The rest is scanned in chunks of
    ``_SCAN_BYTES``, carrying the length of the line that a chunk ends in."""
    limit = csv.field_size_limit()
    line, rows, lines = 0, 0, 0
    while chunk := fh.read(_SCAN_BYTES):
        if chunk.translate(None, _PLAIN_BYTES):
            return 0, 0
        # the length of each line in the chunk, the first one counted
        # from its start in an earlier chunk, the last one so far
        breaks = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        lengths = np.diff(breaks, prepend=-1 - line, append=len(chunk)) - 1
        if lengths.max() > limit:
            return 0, 0
        rows += np.count_nonzero(lengths[:-1])
        lines += len(breaks)
        line = int(lengths[-1])
    return rows + (line > 0), lines + (line > 0)


def _count_table(path) -> CountSeries | None:
    # CountSeries checks the channel name, finite times, positive widths,
    # nonnegative counts and contiguity
    columns = _load_table(path, COUNT_HEADER, _COUNT_TABLE_DTYPE)
    if columns is None:
        return None
    t_start, width, counts, channel = columns
    return CountSeries(channel.decode("ascii"), t_start, width, counts)


def _ratio_table(path) -> RatioSeries | None:
    # RatioSeries checks finite times, positive widths and contiguity
    columns = _load_table(path, RATIO_HEADER, _RATIO_DTYPE)
    return None if columns is None else _ratio_series(*columns)


# --- row-by-row reader: the authority on rejected files ----------------------


def _csv_rows(path, header) -> list[tuple[int, list[str]]]:
    """Every csv row of ``path`` with the file line it ends on, after
    checking the header row; a quoted field may span lines."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise StructuralError(f"line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise StructuralError(f"{path}: not {fh.encoding} text: {exc}") from exc
    if not rows or rows[0][1] != header:
        got = ",".join(rows[0][1]) if rows else "<empty file>"
        raise StructuralError(f"line 1: expected header {','.join(header)!r}, got {got!r}")
    return rows[1:]


def _count_fields(lineno, fields):
    """A count row's count and channel, as the numpy pass's table holds
    them, and its channel as the field every row must share."""
    count, channel = fields
    try:
        c = int(count)
    except ValueError as exc:
        raise StructuralError(f"line {lineno}: counts must be an integer, got {count!r}") from exc
    if c < 0:
        raise StructuralError(f"line {lineno}: counts must be nonnegative, got {c}")
    if c > _INT64_MAX:
        raise StructuralError(f"line {lineno}: counts must fit in a 64-bit integer, got {c}")
    return (c, channel), channel


def _count_rows(path) -> CountSeries:
    table, channel = _table_rows(path, COUNT_HEADER, 2, _count_fields, _COUNT_DTYPE)
    channel = "gamma" if channel is None else channel
    return CountSeries(channel, table["t_start_s"], table["width_s"], table["counts"])


def _ratio_fields(lineno, fields):
    """Checks a ratio row's ratio and sigma, already floats in its table row:
    sigma is positive where both are finite (a valid bin)."""
    ratio, sigma = fields
    if math.isfinite(ratio) and math.isfinite(sigma) and sigma <= 0.0:
        raise StructuralError(f"line {lineno}: sigma must be positive on valid bins, got {sigma!r}")
    return (), None


def _ratio_rows(path) -> RatioSeries:
    table, _ = _table_rows(path, RATIO_HEADER, 4, _ratio_fields, _RATIO_DTYPE)
    return _ratio_series(table["t_start_s"], table["width_s"], table["ratio"], table["sigma"])


def _table_rows(path, header, n_floats, read_fields, dtype):
    """The data rows of ``path`` as a ``dtype`` table, and the field they all
    share (None where there are no rows).

    A row's first ``n_floats`` fields are floats, the times first;
    ``read_fields(lineno, fields)`` checks the schema's own fields, those
    after the times (the floats among them already parsed), and returns the
    values of the rest and the shared field.  An empty table gives a warning.
    """
    rows, shared = [], None
    for lineno, row in _csv_rows(path, header):
        if not row:
            continue
        if len(row) != 4:
            raise StructuralError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            floats = [float(v) for v in row[:n_floats]]
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: bad number: {exc}") from exc
        t, w = floats[:2]
        for name, v in (("t_start_s", t), ("width_s", w)):
            if not math.isfinite(v):
                raise StructuralError(f"line {lineno}: {name} must be finite, got {v!r}")
        values, key = read_fields(lineno, floats[2:] + row[n_floats:])
        if w <= 0.0:
            raise StructuralError(f"line {lineno}: width must be positive, got {w!r}")
        if rows and key != shared:
            raise StructuralError(f"line {lineno}: mixed channels {shared!r} and {key!r}")
        if rows and abs(t - (rows[-1][0] + rows[-1][1])) > _EDGE_RTOL * max(w, rows[-1][1]):
            raise StructuralError(
                f"line {lineno}: bin starting at {t!r} does not continue the previous bin"
            )
        rows.append((*floats, *values))
        shared = key
    if not rows:
        # stacklevel 5: the warning names the caller of read_count_series or
        # read_ratio_series
        warnings.warn(f"{path}: no data rows, returning an empty series", stacklevel=5)
    return np.array(rows, dtype=dtype), shared
