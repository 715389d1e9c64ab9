"""Synthetic two-channel count series and the Kalpha normalization.

The gamma channel realizes Poisson counts around the accumulated beat
model per bin; the Kalpha fluorescence channel follows the same decay
without the beat factor.  Normalization divides the channels bin by bin
with first-order error propagation, flagging bins the division cannot
handle.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .beat import BeatParams, _checked_edges, bin_expected_counts
from .errors import DomainError, StructuralError, _check_seed

_CHANNELS = ("gamma", "kalpha")
# metadata-only detector windows (keV): 1 keV around the 40-keV gamma,
# 2 keV around the 20.2-keV fluorescence line
GAMMA_WINDOW_KEV = (39.5, 40.5)
KALPHA_WINDOW_KEV = (19.2, 21.2)

_EDGE_RTOL = 1e-9


def _check_contiguous(t, w) -> None:
    """Raise ``StructuralError`` naming the first bin ``i`` after which bin
    ``i + 1`` does not start where bin ``i`` ends (``|t_{i+1} - (t_i + w_i)|
    > _EDGE_RTOL * max(w_i, w_{i+1})``).  ``t`` and ``w`` must be finite; an
    edge sum that overflows counts as a break, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        # the gap and the tolerance in place, so two temporaries of the
        # column's length are made whether or not numpy elides temporaries
        gap = t[:-1] + w[:-1]
        np.abs(np.subtract(t[1:], gap, out=gap), out=gap)
        tol = np.maximum(w[1:], w[:-1])
        tol *= _EDGE_RTOL
        broken = gap > tol
    if broken.any():
        bad = int(np.argmax(broken))
        raise StructuralError(f"bins must be contiguous and sorted; break between bins {bad} and {bad + 1}")


def _int64_counts(c: np.ndarray) -> bool:
    """Whether every count is a nonnegative integer below 2^63, exactly: a
    float count must be integral (``3.0000001`` is not) and finite."""
    if c.dtype.kind == "f":
        # 2^63 is exact as a float, and every float below it casts exactly
        return bool(np.all((c >= 0) & (c < 2.0**63) & (c == np.floor(c))))
    if c.dtype.kind == "u":
        return bool(np.all(c <= np.iinfo(np.int64).max))
    return c.dtype.kind in "bi" and bool(np.all(c >= 0))


def _as_readonly(a, dtype):
    """``a`` itself where it is a read-only ``np.ndarray`` of ``dtype`` that
    owns its data, else a read-only copy: no one can change a series through
    a writable array or a view (whose base may be writable)."""
    if type(a) is np.ndarray and a.dtype == dtype and a.base is None and not a.flags.writeable:
        return a
    return _frozen(np.asarray(a, dtype=dtype).copy())


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, which owns its data and is held by no one else, marked
    read-only, so that a series built from it keeps it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CountSeries:
    """Binned counts of one detector channel.

    Bins are finite, contiguous, non-overlapping and sorted; counts are
    nonnegative integers.  ``energy_window`` is metadata only.

    The arrays are read-only.  A read-only ``np.ndarray`` that owns its
    data and has the stored dtype (float64 times and widths, int64 counts)
    is kept as given, so series can share it, as ``simulate_counts``'s two
    share one time axis; anything else (a list, a writable array, a view,
    another dtype) is copied.
    """

    channel: str
    t_start: np.ndarray
    width: np.ndarray
    counts: np.ndarray
    energy_window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.channel not in _CHANNELS:
            raise DomainError(f"channel must be one of {_CHANNELS}, got {self.channel!r}")
        t = _as_readonly(self.t_start, float)
        w = _as_readonly(self.width, float)
        c = np.asarray(self.counts)
        if not (t.ndim == w.ndim == c.ndim == 1 and len(t) == len(w) == len(c)):
            raise StructuralError("t_start, width, counts must be 1-d and equal length")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise StructuralError("t_start and width must be finite")
        if np.any(w <= 0.0):
            raise StructuralError("bin widths must be positive")
        if not _int64_counts(c):
            raise StructuralError("counts must be nonnegative integers that fit in a 64-bit integer")
        _check_contiguous(t, w)
        c = _as_readonly(c, np.int64)
        object.__setattr__(self, "t_start", t)
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "counts", c)

    def __len__(self):
        return len(self.t_start)

    @property
    def edges(self) -> np.ndarray:
        """Bin edges, length len(self) + 1; an empty series has none."""
        if len(self.t_start) == 0:
            return np.zeros(0)
        return np.append(self.t_start, self.t_start[-1] + self.width[-1])

    @property
    def errors(self) -> np.ndarray:
        """Per-bin Poisson sigma, sqrt(counts)."""
        return np.sqrt(self.counts.astype(float))


@dataclass(frozen=True)
class RatioSeries:
    """Per-bin gamma/kalpha ratio with propagated uncertainty.

    ``valid`` marks bins with a nonzero denominator; ``low_count`` marks
    valid bins whose numerator was zero (their sigma comes from a
    one-count floor on the numerator).  Invalid bins carry NaN ratio and
    sigma; bins are finite, contiguous and sorted, as in ``CountSeries``.

    The arrays are read-only, kept or copied as in ``CountSeries`` (float64
    times, widths, ratio and sigma; bool flags): ``normalize`` hands over
    its gamma series' time axis and its own four new arrays, all kept.
    """

    t_start: np.ndarray
    width: np.ndarray
    ratio: np.ndarray
    sigma: np.ndarray
    valid: np.ndarray
    low_count: np.ndarray

    def __post_init__(self):
        t = _as_readonly(self.t_start, float)
        w = _as_readonly(self.width, float)
        r = _as_readonly(self.ratio, float)
        s = _as_readonly(self.sigma, float)
        v = _as_readonly(self.valid, bool)
        lc = _as_readonly(self.low_count, bool)
        ns = {len(a) for a in (t, w, r, s, v, lc)}
        if len(ns) != 1:
            raise StructuralError("all RatioSeries arrays must share one length")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise StructuralError("t_start and width must be finite")
        if np.any(w <= 0.0):
            raise StructuralError("bin widths must be positive")
        _check_contiguous(t, w)
        if np.any(s[v] <= 0.0):
            raise StructuralError("sigma must be positive on valid bins")
        for name, arr in (("t_start", t), ("width", w), ("ratio", r), ("sigma", s), ("valid", v), ("low_count", lc)):
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.t_start)

    @property
    def edges(self) -> np.ndarray:
        if len(self.t_start) == 0:
            return np.zeros(0)
        return np.append(self.t_start, self.t_start[-1] + self.width[-1])


def kalpha_bin_expected(scale: float, tau0: float, t_pump: float, edges) -> np.ndarray:
    """Expected fluorescence counts per bin: exponential accumulation, no beat.

    The instantaneous rate scale * exp(-t/tau0) accumulated over a pump
    window of t_pump and integrated across each bin has the closed form
    scale * tau0^2 (1 - e^(-t_pump/tau0)) (e^(-a/tau0) - e^(-b/tau0)),
    evaluated with ``expm1`` for both differences, so that each factor
    keeps its relative precision however short the window or the bin.
    """
    if not (np.isfinite(scale) and scale >= 0.0):
        raise DomainError(f"scale must be nonnegative, got {scale!r}")
    if not (np.isfinite(tau0) and np.isfinite(t_pump) and tau0 > 0.0 and t_pump > 0.0):
        raise DomainError(f"tau0 and t_pump must be positive and finite, got {tau0!r} and {t_pump!r}")
    edges = _checked_edges(edges)
    a, b = edges[:-1], edges[1:]
    pump = tau0 * -np.expm1(-t_pump / tau0)
    return scale * pump * tau0 * np.exp(-a / tau0) * -np.expm1(-(b - a) / tau0)


def simulate_counts(
    beat: BeatParams,
    kalpha_scale: float,
    width: float,
    horizon: float,
    seed: int = 0,
) -> tuple[CountSeries, CountSeries]:
    """Draw Poisson gamma and kalpha series on a common binning.

    Bins cover [0, horizon] in steps of ``width``; a trailing partial bin
    is dropped with a warning.  Each channel draws all its bins in one
    call from its own stream, keyed by ``(seed, channel)``: child 0
    (gamma) or child 1 (kalpha) of ``SeedSequence(seed).spawn(2)``, fed
    to ``default_rng``.  Results are reproducible for a fixed seed, and
    one channel's counts do not depend on the other channel's model.
    """
    _check_seed(seed)
    if not (np.isfinite(width) and width > 0.0):
        raise DomainError(f"width must be positive and finite, got {width!r}")
    if not (np.isfinite(horizon) and horizon >= width):
        raise DomainError(f"horizon must be finite and cover at least one bin, got {horizon!r}")
    n_bins = np.floor(horizon / width + 1e-12)
    if not n_bins < np.iinfo(np.intp).max // 8:  # inf too: no array of float64 edges is that long
        raise DomainError(f"horizon / width gives {n_bins:g} bins, more than an array can hold")
    n_bins = int(n_bins)
    if abs(n_bins * width - horizon) > 1e-9 * width:
        warnings.warn("horizon is not a multiple of width; dropping the partial bin", stacklevel=2)
    edges = width * np.arange(n_bins + 1)

    mu_gamma = bin_expected_counts(beat, edges)
    mu_kalpha = kalpha_bin_expected(kalpha_scale, beat.tau0, beat.t_pump, edges)

    counts = [
        _frozen(np.random.default_rng(stream).poisson(mu))
        for mu, stream in zip((mu_gamma, mu_kalpha), np.random.SeedSequence(seed).spawn(2))
    ]
    # both series keep one time axis
    t_start, widths = _frozen(edges[:-1].copy()), _frozen(np.full(n_bins, width))
    gamma = CountSeries("gamma", t_start, widths, counts[0], GAMMA_WINDOW_KEV)
    kalpha = CountSeries("kalpha", t_start, widths, counts[1], KALPHA_WINDOW_KEV)
    return gamma, kalpha


def _same_binning(a, b) -> bool:
    if len(a) != len(b):
        return False
    tol = _EDGE_RTOL * np.maximum(a.width, b.width)
    return bool(np.all(np.abs(a.t_start - b.t_start) <= _EDGE_RTOL * np.maximum(np.abs(a.t_start), a.width))
                and np.all(np.abs(a.width - b.width) <= tol))


def normalize(gamma: CountSeries, kalpha: CountSeries) -> RatioSeries:
    """Per-bin ratio gamma/kalpha with first-order error propagation.

    sigma = ratio * sqrt(1/g + 1/k) for g, k > 0.  Bins with k = 0 are
    flagged invalid (NaN ratio and sigma); bins with g = 0 get ratio 0,
    sigma = 1/k from a one-count floor on the numerator, and the
    ``low_count`` flag.

    ``gamma`` must be a gamma-channel series and ``kalpha`` a kalpha-channel
    one, or ``DomainError`` is raised.  Two empty series are let through
    whatever their channels, since a file without data rows reads back as
    an empty gamma series.
    """
    if not _same_binning(gamma, kalpha):
        raise StructuralError("gamma and kalpha series must share the same binning")
    if len(gamma) and (gamma.channel, kalpha.channel) != _CHANNELS:
        raise DomainError(
            f"normalize takes a gamma and a kalpha series, got {gamma.channel!r} and {kalpha.channel!r}")
    g = gamma.counts.astype(float)
    k = kalpha.counts.astype(float)
    valid = k > 0
    low = valid & (g == 0)
    ratio = np.full(len(g), np.nan)
    sigma = np.full(len(g), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[valid] = g[valid] / k[valid]
        sigma[valid] = np.sqrt(np.maximum(g[valid], 1.0) + g[valid] ** 2 / k[valid]) / k[valid]
    # the ratio keeps gamma's time axis
    return RatioSeries(gamma.t_start, gamma.width, *map(_frozen, (ratio, sigma, valid, low)))


def rebin(series: CountSeries, factor: int) -> CountSeries:
    """Merge consecutive bins in groups of ``factor``, summing counts.

    A trailing remainder of fewer than ``factor`` bins is dropped with a
    warning; factor 1 is the identity.
    """
    if not isinstance(factor, (int, np.integer)) or isinstance(factor, bool):
        raise DomainError(f"factor must be a positive integer, got {factor!r}")
    if factor < 1:
        raise DomainError(f"factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return series
    n_groups = len(series) // factor
    if n_groups * factor != len(series):
        warnings.warn(
            f"dropping {len(series) - n_groups * factor} trailing bin(s) not filling a group",
            stacklevel=2,
        )
    take = n_groups * factor
    counts = _frozen(series.counts[:take].reshape(n_groups, factor).sum(axis=1))
    width = _frozen(series.width[:take].reshape(n_groups, factor).sum(axis=1))
    t_start = series.t_start[:take:factor]  # a view: the series copies it
    return CountSeries(series.channel, t_start, width, counts, series.energy_window)
