"""CSV serialization of count and ratio series.

Schemas are fixed: ``t_start_s,width_s,counts,channel`` for counts and
``t_start_s,width_s,ratio,sigma`` for ratios.  Floats are written with
repr precision, so write-then-read is lossless; invalid ratio bins are
stored as NaN pairs.  Readers validate structure and report the first
offending line by number.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
import warnings

import numpy as np

from .errors import StructuralError
from .spectra import CountSeries, RatioSeries

COUNT_HEADER = ["t_start_s", "width_s", "counts", "channel"]
RATIO_HEADER = ["t_start_s", "width_s", "ratio", "sigma"]


def write_count_series(series: CountSeries, path) -> None:
    """Write a count series; one row per bin, fixed header."""
    rows = zip(series.t_start.tolist(), series.width.tolist(), series.counts.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COUNT_HEADER) + "\n")
        fh.writelines(f"{t!r},{w!r},{c},{series.channel}\n" for t, w, c in rows)


def read_count_series(path) -> CountSeries:
    """Read a count series, validating schema, counts and contiguity.

    Raises ``StructuralError`` naming the first bad line; an empty data
    section yields an empty gamma-channel series with a warning.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != COUNT_HEADER:
        got = ",".join(rows[0]) if rows else "<empty file>"
        raise StructuralError(f"line 1: expected header {','.join(COUNT_HEADER)!r}, got {got!r}")
    t_start, width, counts = [], [], []
    channel = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise StructuralError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            t = float(row[0])
            w = float(row[1])
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: bad number: {exc}") from exc
        try:
            c = int(row[2])
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: counts must be an integer, got {row[2]!r}") from exc
        if c < 0:
            raise StructuralError(f"line {lineno}: counts must be nonnegative, got {c}")
        if w <= 0.0:
            raise StructuralError(f"line {lineno}: width must be positive, got {w!r}")
        if channel is None:
            channel = row[3]
        elif row[3] != channel:
            raise StructuralError(f"line {lineno}: mixed channels {channel!r} and {row[3]!r}")
        if t_start and abs(t - (t_start[-1] + width[-1])) > 1e-9 * max(w, width[-1]):
            raise StructuralError(
                f"line {lineno}: bin starting at {t!r} does not continue the previous bin"
            )
        t_start.append(t)
        width.append(w)
        counts.append(c)
    if channel is None:
        warnings.warn(f"{path}: no data rows, returning an empty series", stacklevel=2)
        channel = "gamma"
    return CountSeries(channel, np.array(t_start), np.array(width), np.array(counts, dtype=np.int64))


def write_ratio_series(series: RatioSeries, path) -> None:
    """Write a ratio series to a file path or an open text stream (such as
    ``sys.stdout``); invalid bins become NaN ratio and sigma."""
    rows = zip(series.t_start.tolist(), series.width.tolist(), series.ratio.tolist(), series.sigma.tolist())
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
        fh.write(",".join(RATIO_HEADER) + "\n")
        fh.writelines(f"{t!r},{w!r},{r!r},{s!r}\n" for t, w, r, s in rows)


def read_ratio_series(path) -> RatioSeries:
    """Read a ratio series; NaN rows are marked invalid, 0/sigma rows low-count."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RATIO_HEADER:
        got = ",".join(rows[0]) if rows else "<empty file>"
        raise StructuralError(f"line 1: expected header {','.join(RATIO_HEADER)!r}, got {got!r}")
    cols = {name: [] for name in RATIO_HEADER}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise StructuralError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise StructuralError(f"line {lineno}: bad number: {exc}") from exc
        if vals[1] <= 0.0:
            raise StructuralError(f"line {lineno}: width must be positive, got {vals[1]!r}")
        if cols["t_start_s"]:
            prev_end = cols["t_start_s"][-1] + cols["width_s"][-1]
            if abs(vals[0] - prev_end) > 1e-9 * max(vals[1], cols["width_s"][-1]):
                raise StructuralError(
                    f"line {lineno}: bin starting at {vals[0]!r} does not continue the previous bin"
                )
        for name, v in zip(RATIO_HEADER, vals):
            cols[name].append(v)
    if not cols["t_start_s"]:
        warnings.warn(f"{path}: no data rows, returning an empty series", stacklevel=2)
    ratio = np.array(cols["ratio"])
    sigma = np.array(cols["sigma"])
    valid = np.isfinite(ratio) & np.isfinite(sigma)
    low = valid & (ratio == 0.0)
    return RatioSeries(
        np.array(cols["t_start_s"]), np.array(cols["width_s"]), ratio, sigma, valid, low
    )
