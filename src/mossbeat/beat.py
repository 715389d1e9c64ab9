"""Dynamic-beat count model for the delayed gamma channel.

The instantaneous rate is an exponential decay times a slowing beat,

    g(t) = n0 exp(-t/tau0) cos^2(sqrt(t/tau_d) + phi0) + background,

with the beat time constant tau_d = tau0 / (f_lm * mu_n * xi) set by the
recoil-free fraction and the resonant thickness.  Detected intensity at
delay t accumulates the rate over one pump period of length t_pump.
Consecutive minima of the modulation sit at t_m = tau_d (pi/2 + m pi -
phi0)^2, so their spacing grows linearly with m.

Every integral of the rate -- the accumulated intensity, the beat curve
and the expected counts per bin -- goes through one engine:
Gauss-Legendre panels in u = sqrt(tau), where the integrand is smooth,
each panel capped at one beat period, at sqrt(tau0) and at the local
decay length tau0 / (2 u), and given the fewest nodes, 4 to 12, that keep
the error bound of a 12-node panel at a full cap.  The binned model
integrates the rate once over the pieces between the union of all bins'
breakpoints and builds every bin from those pieces.  It runs over blocks
of contiguous bins, last block first: each block takes from the edges
alone the breakpoints its bins reach, integrates the pieces it owns and
continues the compensated suffix sums of the bins' plateaus from the carry
that the block after it left.  A call therefore holds its output plus one
block (with the pieces up to one t_pump ahead that the block's bins
reach) at any bin count, and its counts are bit for bit those of one
block over the whole binning.

``bessel_j0`` is a self-contained rational/asymptotic evaluation of the
zeroth Bessel function (classic Cephes coefficient tables), used by the
alternative "j0sq" beat kernel and checked against an integral form in
the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import TAU0_S
from .errors import DomainError

# ---------------------------------------------------------------------------
# Bessel J0: rational approximation on [0, 5], Hankel asymptotics beyond.

_RP = [
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
]
_RQ = [
    # leading coefficient 1 implicit
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
]
_PP = [
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
]
_PQ = [
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
]
_QP = [
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
]
_QQ = [
    # leading coefficient 1 implicit
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
]
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_SQ2OPI = 7.9788456080286535587989e-1
_PIO4 = 0.78539816339744830962


def _polevl(x, coeffs):
    out = np.full_like(x, coeffs[0], dtype=float)
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _p1evl(x, coeffs):
    out = x + coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Accepts a scalar or array; negative arguments use J0(-x) = J0(x).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.abs(np.atleast_1d(x))
    out = np.empty_like(ax)

    tiny = ax < 1e-5
    out[tiny] = 1.0 - ax[tiny] ** 2 / 4.0

    small = (~tiny) & (ax <= 5.0)
    if np.any(small):
        z = ax[small] ** 2
        p = (z - _DR1) * (z - _DR2)
        out[small] = p * _polevl(z, _RP) / _p1evl(z, _RQ)

    large = ax > 5.0
    if np.any(large):
        xl = ax[large]
        w = 5.0 / xl
        z = w * w
        p = _polevl(z, _PP) / _polevl(z, _PQ)
        q = _polevl(z, _QP) / _p1evl(z, _QQ)
        xn = xl - _PIO4
        out[large] = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQ2OPI / np.sqrt(xl)

    return float(out[0]) if scalar else out.reshape(x.shape)


def bessel_j0_asymptotic(x):
    """Large-argument form sqrt(2/(pi x)) cos(x - pi/4); requires x > 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    vals = np.atleast_1d(x)
    if np.any(vals <= 0.0):
        raise DomainError("asymptotic form needs x > 0")
    out = np.sqrt(2.0 / (np.pi * vals)) * np.cos(vals - _PIO4)
    return float(out[0]) if scalar else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Beat model.

_KERNELS = ("cos2", "j0sq")


def tau_d(tau0: float, f_lm: float, mu_n: float, xi: float) -> float:
    """Beat time constant tau0 / (f_lm * mu_n * xi).

    Parameters
    ----------
    tau0 : float
        Decay time constant (s).
    f_lm : float
        Recoil-free fraction, dimensionless.
    mu_n : float
        Resonant attenuation coefficient (1/m).
    xi : float
        Effective thickness (m).
    """
    for name, v in (("tau0", tau0), ("f_lm", f_lm), ("mu_n", mu_n), ("xi", xi)):
        if not (np.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be positive, got {v!r}")
    return tau0 / (f_lm * mu_n * xi)


@dataclass(frozen=True)
class BeatParams:
    """Parameters of the beat count model.

    ``n0`` is the peak rate scale (counts/s), ``t_pump`` the accumulation
    window per delay point (s), ``background`` a flat rate added to g(t).
    """

    n0: float = 1.0
    tau0: float = TAU0_S
    tau_d: float = TAU0_S
    phi0: float = 0.0
    t_pump: float = 3600.0
    background: float = 0.0

    def __post_init__(self):
        for name, v in (("n0", self.n0), ("t_pump", self.t_pump), ("background", self.background)):
            if not (np.isfinite(v) and v >= 0.0):
                raise DomainError(f"{name} must be nonnegative, got {v!r}")
        for name, v in (("tau0", self.tau0), ("tau_d", self.tau_d)):
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive, got {v!r}")
        if not np.isfinite(self.phi0):
            raise DomainError(f"phi0 must be finite, got {self.phi0!r}")


def _check_kernel(kernel: str) -> None:
    if kernel not in _KERNELS:
        raise DomainError(f"unknown kernel {kernel!r}, expected one of {_KERNELS}")


def _beat_factor(x, p: BeatParams, kernel: str):
    """Modulation at beat argument x = sqrt(t / tau_d)."""
    _check_kernel(kernel)
    if kernel == "cos2":
        return np.cos(x + p.phi0) ** 2
    # phi0 has no role in the j0sq kernel; the beat argument starts at 0
    return bessel_j0(x) ** 2


def _modulation(t, p: BeatParams, kernel: str):
    return _beat_factor(np.sqrt(t / p.tau_d), p, kernel)


def count_rate(t, p: BeatParams, kernel: str = "cos2"):
    """Instantaneous rate g(t); t is a scalar or array of times >= 0 (s)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    vals = np.atleast_1d(t)
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise DomainError("times must be finite and nonnegative")
    out = p.n0 * np.exp(-vals / p.tau0) * _modulation(vals, p, kernel) + p.background
    return float(out[0]) if scalar else out.reshape(t.shape)


def accumulated_intensity(t: float, p: BeatParams, kernel: str = "cos2") -> float:
    """Intensity collected over [t, t + t_pump].

    The one-point case of ``beat_curve``: a Gauss-Legendre panel sum in
    u = sqrt(tau), each panel no wider than one beat period, sqrt(tau0)
    and the local decay length tau0 / (2 u), accurate to machine
    precision on the smooth integrand; the flat background contributes
    background * t_pump.
    """
    if not (np.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be nonnegative, got {t!r}")
    return float(beat_curve(p, [t], kernel)[0, 1])


def beat_curve(p: BeatParams, t_grid, kernel: str = "cos2") -> np.ndarray:
    """Accumulated intensity on a time grid; returns an (N, 2) array of (t, I).

    All points are integrated in one vectorized panel pass (see
    ``accumulated_intensity``); each value depends only on its own t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(t_grid)) or np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise DomainError("t_grid must be finite, nonnegative and strictly increasing")
    if not p.t_pump > 0.0:
        raise DomainError("t_pump must be positive to accumulate")
    vals = _decay_beat_integrals(np.sqrt(t_grid), np.sqrt(t_grid + p.t_pump), p, kernel)
    return np.column_stack([t_grid, p.n0 * vals + p.background * p.t_pump])


def beat_minima(p: BeatParams, n: int = 6) -> np.ndarray:
    """Locate the first ``n`` beat minima of the rate numerically.

    The rate is envelope * modulation + background with a strictly
    positive envelope, so its minima coincide exactly with the zeros of
    the modulation; working on the modulation factor keeps the search
    well conditioned at late times where the envelope has decayed below
    the resolution of the background term.  The modulation is even about
    each of its zeros, so the root of a symmetric difference quotient is
    the minimum itself; bisection on the sign of that quotient, run until
    its bracket is two adjacent doubles, locates it to machine precision
    without using the closed-form zero location, leaving the quadratic
    spacing law as an independent check.
    """
    if n < 1:
        raise DomainError("need n >= 1 minima")

    def mod_of_u(u):
        return _modulation(p.tau_d * u * u, p, "cos2")

    out = []
    m = int(np.ceil((p.phi0 - np.pi / 2) / np.pi + 1e-12))
    while len(out) < n:
        u_center = np.pi / 2 + m * np.pi - p.phi0
        m += 1
        if u_center <= 0.0:
            continue
        # quotient offset small enough that u - h stays positive (the sqrt
        # argument folds at zero) and both samples stay on one beat arc
        h = min(0.05, 0.45 * u_center)
        u_lo = max(u_center - 0.4 * np.pi, h)
        u_hi = u_center + 0.4 * np.pi
        u_star = _bisect(lambda u: mod_of_u(u + h) - mod_of_u(u - h), u_lo, u_hi)
        out.append(p.tau_d * u_star**2)
    return np.array(out)


def _bisect(f, lo: float, hi: float) -> float:
    """Zero of f in [lo, hi], where f changes sign, by bisection on the sign
    of f until the bracket is two adjacent doubles; returns the end where
    |f| is smaller."""
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


# ---------------------------------------------------------------------------
# Panel engine shared by the accumulated intensity, the binned model and the
# fit's phase columns.
#
# Swapping the order of the double integral, the expected counts in a bin
# [a, b] are the single integral of g(tau) times the overlap length
# |[a, b] intersect [tau - t_pump, tau]|: a trapezoid in tau that rises from
# 0 at a to lvl = min(b - a, t_pump) at r1, stays there up to r2 and falls
# back to 0 at e = b + t_pump.  Every breakpoint a, r1, r2, e of every bin is
# an edge or an edge plus t_pump, so the binned model cuts the time axis once
# at the union of those points and integrates the rate once per piece
# [X_k, X_k+1], with its moments about both ends:
#
#     M0_k = int g,   L_k = int (tau - X_k) g,   R_k = int (X_k+1 - tau) g.
#
# A bin's rising edge is the sum of L_k + (X_k - a) M0_k over its pieces in
# [a, r1], its falling edge the sum of R_k + (e - X_k+1) M0_k over [r2, e],
# and its plateau lvl times the sum of M0_k over [r1, r2], a difference of
# suffix sums that carry their own rounding error (so the difference keeps
# its relative precision in the decay tail, and however short the plateau
# is against the tail beyond it).  For counts every term is nonnegative.
# The rising ranges of different bins are disjoint, and so are the falling
# ranges, so each edge is one weighted bincount over the pieces.
#
# The integrands are smooth in u = sqrt(tau).  Each piece is split into
# equal Gauss-Legendre panels in u, no wider than one beat period
# pi sqrt(tau_d), than sqrt(tau0) and than the local decay length
# tau0 / (2 u) of exp(-u^2 / tau0), so that no panel spans many decay
# lengths when tau0 << tau_d, early or late.  A panel that spans a share r
# of its cap advances the phase of exp(i w x) by theta = 2 pi r, and the
# n-node remainder for exp(i w x) over it (Abramowitz & Stegun 25.4.29) is
# theta^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) / w.  Each interval gets the
# fewest nodes, from 4 to 12, whose term at its own r is no larger than the
# 12-node term at a full cap, about 8e-19 / w, so what remains of a bin's
# error is rounding (see ``bin_expected_counts``).  The order is chosen per
# interval from that interval alone, never per layout, so each value
# depends only on its own interval.
#
# A layout holds what depends only on the intervals, tau0 and the panel
# count and order of each interval: the nodes and their weights, the decay
# envelope included.  An evaluation multiplies in the modulation at one
# tau_d (and phi0).  Panels are evaluated in blocks of whole intervals of
# one order, about _BLOCK_NODES nodes each, so the temporaries of one pass
# stay bounded however fine the panels get.

_MIN_ORDER, _MAX_ORDER = 4, 12


def _log_remainder(n: int) -> float:
    """log of (n!)^4 / ((2n+1) ((2n)!)^3), the n-node remainder factor."""
    return 4.0 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3.0 * math.lgamma(2 * n + 1)


_LOG_TARGET = (2 * _MAX_ORDER + 1) * math.log(2.0 * math.pi) + _log_remainder(_MAX_ORDER)
# the largest share r of a cap at which n nodes still meet the target, for
# n = _MIN_ORDER .. _MAX_ORDER - 1 (0.0165, 0.048, 0.105, ..., 0.790)
_ORDER_LIMITS = np.array([
    math.exp((_LOG_TARGET - _log_remainder(n)) / (2 * n + 1)) / (2.0 * math.pi)
    for n in range(_MIN_ORDER, _MAX_ORDER)
])
# nodes per block: about one 600-bin model at one 12-node panel per piece
_BLOCK_NODES = 12288
# bins per block of the binned model (see ``_BinModel``)
_BLOCK_BINS = 4096


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-node Gauss-Legendre rule: nodes mapped to [0, 1] and the
    weights on [-1, 1].  Built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights


def _decay_caps(u_hi: np.ndarray, tau0: float) -> np.ndarray:
    """Panel width caps from the decay for intervals ending at u_hi > 0."""
    return np.minimum(np.sqrt(tau0), tau0 / (2.0 * u_hi))


def _panel_counts(gaps: np.ndarray, caps: np.ndarray, tau_d: float) -> np.ndarray:
    """Panels per interval of width ``gaps`` in u, under ``caps`` and one beat
    period pi sqrt(tau_d)."""
    counts = np.ceil(gaps / np.minimum(np.pi * np.sqrt(tau_d), caps))
    if not np.all(counts < 2.0**63):
        raise DomainError(f"tau_d = {tau_d!r} s is too small: an interval needs 2^63 or more panels")
    return np.where(gaps > 0.0, np.maximum(counts.astype(int), 1), 0)


def _panel_orders(gaps: np.ndarray, counts: np.ndarray, caps: np.ndarray, tau_d: float) -> np.ndarray:
    """Gauss-Legendre nodes per panel of each interval: the fewest for which
    the remainder term at the panel's share r of its cap is within the
    12-node term at a full cap (see ``_ORDER_LIMITS``)."""
    r = gaps / (np.maximum(counts, 1) * np.minimum(np.pi * np.sqrt(tau_d), caps))
    return _MIN_ORDER + np.searchsorted(_ORDER_LIMITS, r)


def _square_residual(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x - u^2 for u = sqrt(x) rounded, free of the product's rounding
    (Dekker's split of u into two 26-bit halves, whose products are exact)."""
    s = u * 134217729.0  # 2^27 + 1
    hi = s - (s - u)
    lo = u - hi
    sq = u * u
    return (x - sq) - (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo)


def _sum_residual(p, q, s):
    """(p + q) - s for s = p + q rounded, exactly (Knuth's two-sum)."""
    pv = s - q
    qv = s - pv
    return (p - pv) + (q - qv)


def _suffix_sums(m: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Continue the suffix sums of m (length n) backwards from the carry in
    hi[n] and lo[n] into hi[:n] and lo[:n]: hi is the running sum and lo
    the running sum of the rounding error of each of its additions, so
    hi[i] - hi[j] + (lo[i] - lo[j]) is the sum of m[i:j] to a few eps of
    itself, however large the tail beyond j.  A cumulative sum continued
    from a carry repeats the roundings of one over the whole."""
    r = np.concatenate([hi[-1:], m[::-1]])
    s = np.cumsum(r)
    err = np.concatenate([lo[-1:], _sum_residual(s[:-1], r[1:], s[1:])])
    hi[:] = s[::-1]
    lo[:] = np.cumsum(err)[::-1]


def _blocks(counts: np.ndarray, orders: np.ndarray):
    """(intervals, order) blocks: intervals with panels of one order, about
    _BLOCK_NODES nodes each, cut only between intervals."""
    out = []
    for order in np.unique(orders[counts > 0]):
        idx = np.flatnonzero((orders == order) & (counts > 0))
        block = (np.cumsum(counts[idx]) * order - 1) // _BLOCK_NODES
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [len(idx)]])
        out += [(idx[lo:hi], int(order)) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return out


class _PanelLayout:
    """Panel nodes over u-intervals [u_lo, u_hi], for one tau0 and one set of
    panel counts and orders.

    Each interval yields the integral M0 of the unit-n0 rate over tau in
    [u_lo^2, u_hi^2] and its moments L = int (tau - u_lo^2) g and
    R = int (u_hi^2 - tau) g.  Each evaluation builds the node blocks
    one at a time, which bounds the memory of a single large pass, until
    ``keep`` builds them once for every later evaluation.
    """

    def __init__(self, u_lo, u_hi, counts, orders, tau0: float):
        self.u_lo, self.u_hi, self.counts, self.orders, self.tau0 = u_lo, u_hi, counts, orders, tau0
        self.kept = None

    def keep(self):
        """Build the node blocks now and reuse them in every later evaluation."""
        self.kept = [self._block(*b) for b in _blocks(self.counts, self.orders)]

    def _block(self, idx, order):
        """Intervals ``idx`` (all with panels of ``order`` nodes), their first
        panels, nodes u and weights (m, panels, order)."""
        n = self.counts[idx]
        lo, hi = self.u_lo[idx], self.u_hi[idx]
        local = np.repeat(np.arange(len(idx)), n)
        first = np.cumsum(n) - n
        pos = (np.arange(len(local)) - first[local])[:, None]
        h = ((hi - lo) / n)[local][:, None]
        x, weights = _gauss_legendre(order)
        d_lo = (pos + x) * h  # u - u_lo, free of cancellation
        u = lo[local][:, None] + d_lo
        w = weights * h * u * np.exp(-(u * u) / self.tau0)  # dtau = 2 u du
        d_hi = (n[local][:, None] - pos - x) * h  # u_hi - u
        w = np.stack([w, w * d_lo * (u + lo[local][:, None]), w * d_hi * (hi[local][:, None] + u)])
        return idx, first, u, w

    def integrate(self, modulation, k: int = 1) -> np.ndarray:
        """Sums of shape (k, 3, intervals) of the weighted unit-n0 rate: M0, L
        and R.

        ``modulation(u)`` returns k arrays of modulation factors at the
        nodes u = sqrt(tau), each shaped like ``u``.
        """
        sums = np.zeros((k, 3, len(self.counts)))
        blocks = self.kept if self.kept is not None else (self._block(*b) for b in _blocks(self.counts, self.orders))
        for cols, first, u, w in blocks:
            for row, vals in zip(sums, modulation(u)):
                row[:, cols] = np.add.reduceat(np.einsum("mpn,pn->mp", w, vals), first, axis=-1)
        return sums


def _decay_beat_integrals(u_lo: np.ndarray, u_hi: np.ndarray, p: BeatParams, kernel: str) -> np.ndarray:
    """Integral of the unit-n0 rate over tau in [u_lo^2, u_hi^2], per interval."""
    gaps, caps = u_hi - u_lo, _decay_caps(u_hi, p.tau0)
    counts = _panel_counts(gaps, caps, p.tau_d)
    layout = _PanelLayout(u_lo, u_hi, counts, _panel_orders(gaps, counts, caps, p.tau_d), p.tau0)
    return layout.integrate(lambda u: (_beat_factor(u / np.sqrt(p.tau_d), p, kernel),))[0, 0]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owning bin and slot of every slot in [lo_i, hi_i)."""
    n = hi - lo
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(n.sum()) - (np.cumsum(n) - n)[owner] + lo[owner]


class _Block:
    """The set-up of the bins [j0, j1): the u-intervals of the pieces the
    block owns, and the slots of its window ``x`` where its bins' rising
    edges, plateaus and falling edges lie.  It owns the first ``slots``
    breakpoints; the other ``keep`` begin the window of the block after it."""

    def __init__(self, edges: np.ndarray, j0: int, j1: int, t_pump: float, tau0: float,
                 x: np.ndarray, slots: int):
        x_sq = _square_residual(x, np.sqrt(x))
        a, b = edges[j0:j1], edges[j0 + 1:j1 + 1]
        e = b + t_pump
        short = b - a <= t_pump
        self.lvl = np.where(short, b - a, t_pump)  # plateau height of the overlap trapezoid
        r1 = np.where(short, b, a + t_pump)  # end of the rising edge
        r2 = np.where(short, a + t_pump, b)  # start of the falling edge
        ia, self.i1, self.i2, ie = (np.searchsorted(x, v) for v in (a, r1, r2, e))
        # the pieces are integrated over [u_k^2, u_k+1^2] with u_k = sqrt(X_k)
        # rounded; offsets from the true u_k^2 keep each bin's trapezoid
        # continuous across its pieces, whatever u_k^2 - X_k (~ eps X_k) is,
        # and the falling edges are measured from the exact b + t_pump
        self.rise_bin, self.rise = _ranges(ia, self.i1)
        self.rise_off = (x[self.rise] - a[self.rise_bin]) - x_sq[self.rise]
        self.fall_bin, self.fall = _ranges(self.i2, ie)
        e_res = _sum_residual(b, t_pump, e)[self.fall_bin]
        self.fall_off = ((e[self.fall_bin] - x[self.fall + 1]) + x_sq[self.fall + 1]) + e_res
        self.bins = slice(j0, j1)
        u = np.sqrt(x[:slots + 1])  # each owned breakpoint to the next, the last to the next block's first
        self.u_lo, self.u_hi = u[:-1], u[1:]
        self.gaps, self.caps = np.diff(u), _decay_caps(self.u_hi, tau0)
        self.slots, self.keep = slots, len(x) - slots
        self.layout = None


class _BinModel:
    """Unit-n0 binned model, without background, for fixed edges, tau0 and
    t_pump: ``bin_expected_counts`` is n0 times its ``unit_counts`` plus the
    background term.

    A pass runs over blocks of _BLOCK_BINS contiguous bins, last block
    first, and holds its output and one block.  A block's window is every
    edge and edge + t_pump from its first edge to its last edge + t_pump,
    as far as its plateaus and falling edges reach.  It owns those below
    the next block's first edge (the last block all of them) and
    integrates each piece it owns once.  The rest of its window begins the
    next block's window, whose sums it joins to its own, and it continues
    the plateau's suffix sums from the carry that block left.
    Each piece, sum and bin is the same floating-point operation in the
    same order as in one block over the whole binning, so the counts do
    not depend on the block size.

    A model used once keeps nothing.  From its second pass on it keeps
    every block's set-up and last panel layout, and builds a new layout
    only when a new tau_d changes the block's panel counts or orders.  A
    layout in which every piece has at most one panel, the coarsest these
    edges allow, keeps its nodes from its second pass on; the finer layouts
    that a small tau_d needs are rebuilt on each pass, so the memory a
    model holds stays that of one coarse pass.  The edges must not change
    while the model lives.
    """

    def __init__(self, edges: np.ndarray, tau0: float, t_pump: float):
        self.edges, self.tau0, self.t_pump = edges, tau0, t_pump
        self.n_bins = len(edges) - 1
        # block q: the bins [j0, j1) = bounds[q:q + 2] and the first i with edges[i] + t_pump >= edges[j0],
        # found here so that the search's temporary of the binning's length is gone before a pass starts
        self._bounds = np.append(np.arange(0, self.n_bins, _BLOCK_BINS), self.n_bins)
        self._shifted = np.searchsorted(edges + t_pump, edges[self._bounds[:-1]])
        self._kept, self._passes = None, 0

    def _setups(self):
        """Each block's set-up, last block first."""
        edges, t_pump, n = self.edges, self.t_pump, self.n_bins
        for q in reversed(range(len(self._shifted))):
            (j0, j1), i0 = self._bounds[q:q + 2], self._shifted[q]
            # the window: every edge and edge + t_pump in [edges[j0], edges[j1] + t_pump]
            reach = np.searchsorted(edges, edges[j1] + t_pump, "right")
            x = np.unique(np.concatenate([edges[j0:reach], edges[i0:j1 + 1] + t_pump]))
            # the block owns those below the next block's first edge, the last block all
            slots = len(x) if j1 == n else int(np.searchsorted(x, edges[j1]))
            yield _Block(edges, j0, j1, t_pump, self.tau0, x, slots)

    def _layout(self, block: _Block, tau_d: float) -> _PanelLayout:
        """The block's panel layout at tau_d: its last one while the panel
        counts and orders stay the same."""
        counts = _panel_counts(block.gaps, block.caps, tau_d)
        orders = _panel_orders(block.gaps, counts, block.caps, tau_d)
        layout = block.layout
        if layout is None or not (np.array_equal(counts, layout.counts) and np.array_equal(orders, layout.orders)):
            block.layout = None  # free the old nodes before building new ones
            block.layout = layout = _PanelLayout(block.u_lo, block.u_hi, counts, orders, self.tau0)
        elif layout.kept is None and counts.max() <= 1:  # a coarse layout's second pass
            layout.keep()
        return layout

    def _sums(self, tau_d: float, modulation, k: int = 1) -> np.ndarray:
        """(k, bins) unit-n0 expected counts for k modulation factors."""
        self._passes += 1
        if self._kept is None and self._passes > 1:
            self._kept = list(self._setups())
        out = np.empty((k, self.n_bins))
        buf = np.empty((4, k, 0))  # M0 and R of the window's pieces, and the suffix sums hi and lo
        for block in self._kept if self._kept is not None else self._setups():
            sums = self._layout(block, tau_d).integrate(modulation, k)
            n, nb = sums.shape[-1], len(block.lvl)
            # the last breakpoint, with nothing beyond it, keeps its zeros
            joined = np.zeros((4, k, block.slots + block.keep))
            joined[..., block.slots:] = buf[..., :block.keep]
            buf = joined
            buf[0, :, :n], buf[1, :, :n] = sums[:, 0], sums[:, 2]
            for row, left, m0, right, hi, lo in zip(out[:, block.bins], sums[:, 1], *buf):
                _suffix_sums(m0[:n], hi[:n + 1], lo[:n + 1])
                flat = (hi[block.i1] - hi[block.i2]) + (lo[block.i1] - lo[block.i2])
                rise = np.bincount(block.rise_bin, left[block.rise] + block.rise_off * m0[block.rise], minlength=nb)
                fall = np.bincount(block.fall_bin, right[block.fall] + block.fall_off * m0[block.fall], minlength=nb)
                row[:] = rise + block.lvl * flat + fall
        return out

    def unit_counts(self, p: BeatParams, kernel: str = "cos2") -> np.ndarray:
        """Unit-n0 counts at p's tau_d and phi0 (p.tau0 must be this model's)."""
        return self._sums(p.tau_d, lambda u: (_beat_factor(u / np.sqrt(p.tau_d), p, kernel),))[0]

    def phase_columns(self, tau_d: float, derivs: bool = False) -> tuple[np.ndarray, ...]:
        """Columns (D, S) with unit-n0 cos2 counts K/2 + cos(2 phi0) D - sin(2 phi0) S.

        cos^2(x + phi0) = 1/2 + cos(2 phi0) cos(2x) / 2 - sin(2 phi0) sin(2x) / 2,
        so one panel pass over cos 2x and sin 2x gives the model at every
        phase; K is the unmodulated integral (``kalpha_bin_expected`` at
        unit scale).  With ``derivs`` the same pass also gives their exact
        derivatives (dD/dtau_d, dS/dtau_d): with x = 2 u / sqrt(tau_d),
        dx/dtau_d = -x / (2 tau_d), so they are tau_d^(-3/2) / 2 times the
        integrals of u sin x and -u cos x.
        """

        def modulation(u):
            x = u * (2.0 / np.sqrt(tau_d))
            cos, sin = np.cos(x), np.sin(x, out=x)
            return (cos, sin, u * sin, u * cos) if derivs else (cos, sin)

        sums = 0.5 * self._sums(tau_d, modulation, 4 if derivs else 2)
        if derivs:
            sums[2:] *= tau_d**-1.5
            sums[3] *= -1.0
        return tuple(sums)


def _checked_edges(edges) -> np.ndarray:
    """``edges`` as a float array: 1-d, at least two, finite, nonnegative
    and strictly increasing, or ``DomainError``."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise DomainError("edges must be 1-d with at least two entries")
    # finite first, so that no difference of infinities is taken
    if not (np.isfinite(edges).all() and edges[0] >= 0.0 and (np.diff(edges) > 0.0).all()):
        raise DomainError("edges must be finite, nonnegative and strictly increasing")
    return edges


def bin_expected_counts(p: BeatParams, edges, kernel: str = "cos2") -> np.ndarray:
    """Expected counts in contiguous bins given by ``edges`` (len N+1).

    Equals the exact double integral of the rate over delay and pump
    window per bin (same panel engine as ``beat_curve``).  Vectorized
    over bins for use inside fit objectives.  The quadrature error is
    far below rounding, every term of a bin's sum is nonnegative, and
    the plateau's range sum and the breakpoints b + t_pump carry their
    rounding error, so each bin is exact to a few eps of its unmodulated
    counts (``kalpha_bin_expected`` at scale n0), late in the decay and
    for bins and pump windows far shorter than tau0 included.  Beyond
    that, only the rounding of the beat phase sqrt(t / tau_d) itself
    remains, about eps times the phase.

    The bins are evaluated in blocks of _BLOCK_BINS (see ``_BinModel``),
    so at any bin count a call holds at most its output, one more array of
    that size and one block: 2.4 MB at 1.2-s bins and t_pump 3600 s.
    """
    edges = _checked_edges(edges)
    if not p.t_pump > 0.0:
        raise DomainError("t_pump must be positive")
    counts = _BinModel(edges, p.tau0, p.t_pump).unit_counts(p, kernel)
    counts *= p.n0
    counts += p.background * p.t_pump * np.diff(edges)
    return counts
