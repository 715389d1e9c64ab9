"""CSV serialization of count and ratio series.

Schemas are fixed: ``t_start_s,width_s,counts,channel`` for counts and
``t_start_s,width_s,ratio,sigma`` for ratios.  Floats are written with
repr precision, so write-then-read is lossless; invalid ratio bins are
stored as NaN pairs.  Readers validate structure and report the first
offending line by number.

Each reader first tries one numpy pass: the exact header, then every data
row through ``np.loadtxt`` and the checks on whole columns.  Where that pass
declines a file or finds anything wrong, the row-by-row reader reads it
again; it is the authority on which files are accepted and on every error
message, so both paths return the same series or raise the same error.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
import io
import itertools
import math
import warnings

import numpy as np

from .errors import StructuralError
from .spectra import _EDGE_RTOL, CountSeries, RatioSeries

COUNT_HEADER = ["t_start_s", "width_s", "counts", "channel"]
RATIO_HEADER = ["t_start_s", "width_s", "ratio", "sigma"]

_INT64_MAX = int(np.iinfo(np.int64).max)
_COUNT_DTYPE = np.dtype([("t_start_s", "f8"), ("width_s", "f8"), ("counts", "i8"), ("channel", "O")])
_RATIO_DTYPE = np.dtype([(name, "f8") for name in RATIO_HEADER])
# The numpy pass takes only files of printable ASCII and "\n".  numpy's
# number parser skips some control characters (such as "\x1c") that
# ``float`` and ``int`` reject, and its string fields drop trailing NULs.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


def write_count_series(series: CountSeries, path) -> None:
    """Write a count series; one row per bin, fixed header."""
    channel = series.channel
    rows = zip(series.t_start.tolist(), _width_fields(series.width), series.counts.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COUNT_HEADER) + "\n")
        fh.writelines(f"{t!r},{w},{c},{channel}\n" for t, w, c in rows)


def read_count_series(path) -> CountSeries:
    """Read a count series, validating schema, counts and contiguity.

    Raises ``StructuralError`` naming the first bad line; an empty data
    section yields an empty gamma-channel series with a warning.
    """
    return _read(path, _count_table, _count_rows)


def write_ratio_series(series: RatioSeries, path) -> None:
    """Write a ratio series to a file path or an open text stream (such as
    ``sys.stdout``); invalid bins become NaN ratio and sigma."""
    rows = zip(series.t_start.tolist(), _width_fields(series.width), series.ratio.tolist(), series.sigma.tolist())
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
        fh.write(",".join(RATIO_HEADER) + "\n")
        fh.writelines(f"{t!r},{w},{r!r},{s!r}\n" for t, w, r, s in rows)


def _width_fields(width: np.ndarray):
    """The ``repr`` of each width.  Widths are positive and finite, so equal
    widths have one ``repr``; a uniform column, as ``simulate_counts`` and
    ``rebin`` give, is formatted once."""
    if len(width) and (width == width[0]).all():
        return itertools.repeat(repr(float(width[0])), len(width))
    return map(repr, width.tolist())


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
    return RatioSeries(t_start, width, ratio, sigma, valid, low)


# --- numpy pass --------------------------------------------------------------


def _load_table(path, header, dtype):
    """All data rows of ``path`` as one structured array, or None.

    None means the file is not plain enough for this pass: another header
    line, no data rows, a byte outside ``_PLAIN_BYTES``, or a line longer
    than the csv module's field size limit (where the row reader fails).
    """
    with open(path, newline="") as fh:
        if fh.readline() != ",".join(header) + "\n":
            return None
        raw = fh.read().encode("ascii")
    if raw.translate(None, _PLAIN_BYTES) or not raw.strip(b"\n"):
        return None
    breaks = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    if np.diff(breaks, prepend=-1, append=len(raw)).max() - 1 > csv.field_size_limit():
        return None
    # some numpy releases (1.23 on) parse a non-integer count such as "2.5"
    # or "1e3" through a float, truncate it and only warn; any warning here
    # is a decline, so such files go to the row reader, which rejects them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(io.BytesIO(raw), dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1, encoding="ascii")


def _count_table(path) -> CountSeries | None:
    # CountSeries checks the channel name, finite times, positive widths,
    # nonnegative counts and contiguity
    table = _load_table(path, COUNT_HEADER, _COUNT_DTYPE)
    if table is None:
        return None
    channel = table["channel"][0]
    if not (table["channel"] == channel).all():
        return None
    return CountSeries(channel, table["t_start_s"], table["width_s"], table["counts"])


def _ratio_table(path) -> RatioSeries | None:
    # RatioSeries checks finite times, positive widths and contiguity
    table = _load_table(path, RATIO_HEADER, _RATIO_DTYPE)
    if table is None:
        return None
    return _ratio_series(table["t_start_s"], table["width_s"], table["ratio"], table["sigma"])


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


def _ratio_rows(path) -> RatioSeries:
    table, _ = _table_rows(path, RATIO_HEADER, 4, lambda lineno, fields: ((), None), _RATIO_DTYPE)
    return _ratio_series(table["t_start_s"], table["width_s"], table["ratio"], table["sigma"])


def _table_rows(path, header, n_floats, read_fields, dtype):
    """The data rows of ``path`` as a ``dtype`` table, and the field they all
    share (None where there are no rows).

    A row's first ``n_floats`` fields are floats, the times first;
    ``read_fields(lineno, fields)`` reads the rest and returns their values
    and the shared field.  An empty table gives a warning.
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
        values, key = read_fields(lineno, row[n_floats:])
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
