"""Dynamic-beat count model for the delayed gamma channel.

The instantaneous rate is an exponential decay times a slowing beat,

    g(t) = n0 exp(-t/tau0) cos^2(sqrt(t/tau_d) + phi0) + background,

with the beat time constant tau_d = tau0 / (f_lm * mu_n * xi) set by the
recoil-free fraction and the resonant thickness.  Detected intensity at
delay t accumulates the rate over one pump period of length t_pump.
Consecutive minima of the modulation sit at t_m = tau_d (pi/2 + m pi -
phi0)^2, so their spacing grows linearly with m.

Every integral of the rate -- the accumulated intensity, the beat curve
and the expected counts per bin -- goes through one engine: fixed-order
Gauss-Legendre panels in u = sqrt(tau), where the integrand is smooth,
each panel capped at a quarter beat period, at sqrt(tau0) and at the
local decay length tau0 / (2 u).

``bessel_j0`` is a self-contained rational/asymptotic evaluation of the
zeroth Bessel function (classic Cephes coefficient tables), used by the
alternative "j0sq" beat kernel and checked against an integral form in
the tests.
"""

from __future__ import annotations

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


def _modulation(t, p: BeatParams, kernel: str):
    if kernel == "cos2":
        return np.cos(np.sqrt(t / p.tau_d) + p.phi0) ** 2
    if kernel == "j0sq":
        # phi0 has no role in this kernel; the beat argument starts at 0
        return bessel_j0(np.sqrt(t / p.tau_d)) ** 2
    raise DomainError(f"unknown kernel {kernel!r}, expected one of {_KERNELS}")


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
    u = sqrt(tau), each panel no wider than a quarter beat period,
    sqrt(tau0) and the local decay length tau0 / (2 u), accurate to
    machine precision on the smooth integrand; the flat background
    contributes background * t_pump.
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
    the minimum itself; bracketing root-finding on that quotient locates
    it to machine precision without using the closed-form zero location,
    leaving the quadratic spacing law as an independent check.
    """
    if n < 1:
        raise DomainError("need n >= 1 minima")
    import scipy.optimize  # here, not at module level, so `import mossbeat` loads no scipy

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
        u_star = scipy.optimize.brentq(
            lambda u: mod_of_u(u + h) - mod_of_u(u - h),
            u_lo,
            u_hi,
            xtol=1e-15,
            rtol=4.0 * np.finfo(float).eps,
        )
        out.append(p.tau_d * u_star**2)
    return np.array(out)


# ---------------------------------------------------------------------------
# Panel engine shared by the accumulated intensity, the binned model and the
# fit's phase columns.
#
# Swapping the order of the double integral, the expected counts in a bin
# [a, b] are the single integral of g(tau) times the overlap length
# |[a, b] intersect [tau - t_pump, tau]| -- a trapezoid in tau.  Every
# piece is a positive integrand, so nothing cancels and the result is
# accurate to machine precision relative to each bin.  The integrands are
# smooth in u = sqrt(tau); fixed-order Gauss-Legendre panels converge far
# below the 1e-10 target once each panel is capped at a quarter beat
# period, at sqrt(tau0) and at the local decay length tau0 / (2 u) of
# exp(-u^2 / tau0), so that no panel spans many decay lengths when
# tau0 << tau_d, early or late.
#
# A layout holds what depends only on the intervals, tau0 and the panel
# count of each interval: nodes, weights, the decay envelope and the
# trapezoid factors.  An evaluation multiplies in the modulation at one
# tau_d (and phi0).  Panels are evaluated in blocks of whole intervals, so
# the temporaries of one pass stay bounded however fine the panels get,
# and every interval's sum is accumulated in the same order as in a single
# pass.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# panels per block: about one group of a 600-bin model at one panel per interval
_BLOCK_PANELS = 1024


def _decay_caps(u_hi: np.ndarray, tau0: float) -> np.ndarray:
    """Panel width caps from the decay for intervals ending at u_hi > 0."""
    return np.minimum(np.sqrt(tau0), tau0 / (2.0 * u_hi))


def _panel_counts(gaps: np.ndarray, caps: np.ndarray, tau_d: float) -> np.ndarray:
    """Panels per interval of width ``gaps``, under ``caps`` and a quarter beat period."""
    h_max = np.minimum(np.pi * np.sqrt(tau_d) / 4.0, caps)
    return np.where(gaps > 0.0, np.maximum(np.ceil(gaps / h_max).astype(int), 1), 0)


def _blocks(counts: np.ndarray):
    """(start, stop) interval ranges of about _BLOCK_PANELS panels, cut only between intervals."""
    block = (np.cumsum(counts) - 1) // _BLOCK_PANELS
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [len(counts)]])
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if counts[lo:hi].any()]


class _PanelLayout:
    """Panel nodes over groups of u-intervals, for one tau0 and one set of
    panel counts.

    Each group is ``(u_lo, u_hi, anchor, sign)``.  Sign 0 integrates the
    rate over each interval; sign +1 weights it by tau - anchor and -1 by
    anchor - tau, the rising and falling sides of a bin's overlap
    trapezoid.  With ``keep`` the node blocks are built once and reused by
    every evaluation; otherwise each evaluation rebuilds them one block at
    a time, which bounds the memory of a single large pass.
    """

    def __init__(self, groups, tau0: float, counts, keep: bool = False):
        self.groups, self.tau0, self.counts = groups, tau0, counts
        self._kept = [list(self._group_blocks(g)) for g in range(len(groups))] if keep else None

    def _group_blocks(self, g):
        u_lo, u_hi, anchor, sign = self.groups[g]
        counts = self.counts[g]
        for start, stop in _blocks(counts):
            n = counts[start:stop]
            local = np.repeat(np.arange(stop - start), n)
            offsets = np.concatenate([[0], np.cumsum(n)])
            pos = np.arange(offsets[-1]) - offsets[local]
            h = ((u_hi - u_lo)[start:stop] / np.maximum(n, 1))[local]
            a = u_lo[start:stop][local] + pos * h
            u = a[:, None] + (_GL_NODES[None, :] + 1.0) * h[:, None] / 2.0
            w = _GL_WEIGHTS[None, :] * h[:, None] / 2.0
            idx = start + local
            tau = u * u
            if sign > 0:
                tri = tau - anchor[idx][:, None]
            elif sign < 0:
                tri = anchor[idx][:, None] - tau
            else:
                tri = None
            yield idx, u, w, tau, np.exp(-tau / self.tau0), tri

    def integrate(self, modulation, k: int = 1) -> list[np.ndarray]:
        """Per-group sums, shape (k, intervals), of the weighted unit-n0 rate.

        ``modulation(tau)`` returns k new arrays of modulation factors at
        the nodes, each shaped like ``tau``; they are overwritten.
        """
        out = []
        for g, (u_lo, *_) in enumerate(self.groups):
            sums = np.zeros((k, len(u_lo)))
            blocks = self._kept[g] if self._kept is not None else self._group_blocks(g)
            for idx, u, w, tau, env, tri in blocks:
                for row_sum, vals in zip(sums, modulation(tau)):
                    # in place on the fresh modulation array, in the order of
                    # w * rate * 2 u (plain) or w * (tri * rate * 2 u)
                    vals *= env
                    if tri is None:
                        vals *= w
                    else:
                        vals *= tri
                    vals *= 2.0
                    vals *= u
                    if tri is not None:
                        vals *= w
                    np.add.at(row_sum, idx, vals.sum(axis=1))
            out.append(sums)
        return out


def _decay_beat_integrals(u_lo: np.ndarray, u_hi: np.ndarray, p: BeatParams, kernel: str) -> np.ndarray:
    """Integral of the unit-n0 rate over tau in [u_lo^2, u_hi^2], per interval."""
    counts = _panel_counts(u_hi - u_lo, _decay_caps(u_hi, p.tau0), p.tau_d)
    layout = _PanelLayout([(u_lo, u_hi, None, 0)], p.tau0, [counts])
    return layout.integrate(lambda tau: (_modulation(tau, p, kernel),))[0][0]


class _BinModel:
    """Unit-n0 binned model, without background, for fixed edges, tau0 and
    t_pump: ``bin_expected_counts`` is n0 times its ``unit_counts`` plus the
    background term.

    With ``reuse`` it keeps one panel layout and rebuilds it only when a
    new tau_d changes the panel counts.  The layout keeps its nodes when
    every interval has at most one panel, the coarsest layout these edges
    allow; the finer ones that a small tau_d needs are rebuilt block by
    block on each pass, so the memory a fit holds stays that of one
    coarse pass.
    """

    def __init__(self, edges: np.ndarray, tau0: float, t_pump: float, reuse: bool = False):
        a, b = edges[:-1], edges[1:]
        lvl = np.minimum(b - a, t_pump)  # plateau height of the overlap trapezoid
        r1 = a + lvl
        r2 = b + t_pump - lvl
        # plateau: lvl times the integral of g over [r1, r2], via one shared
        # cumulative table over the union of breakpoints
        xs = np.unique(np.concatenate([r1, r2]))
        us = np.sqrt(np.concatenate([[0.0], xs]))
        self.lvl, self.i1, self.i2 = lvl, np.searchsorted(xs, r1), np.searchsorted(xs, r2)
        self.groups = [
            (np.sqrt(a), np.sqrt(r1), a, 1),  # rising edge: weight tau - a on [a, r1]
            (np.sqrt(r2), np.sqrt(b + t_pump), b + t_pump, -1),  # falling edge: b + pump - tau
            (us[:-1], us[1:], None, 0),
        ]
        self.widths = [(u_hi - u_lo, _decay_caps(u_hi, tau0)) for u_lo, u_hi, *_ in self.groups]
        self.tau0, self.reuse = tau0, reuse
        self._layout = None

    def _sums(self, tau_d: float, modulation, k: int = 1) -> np.ndarray:
        """(k, bins) unit-n0 expected counts for k modulation factors."""
        counts = [_panel_counts(gaps, caps, tau_d) for gaps, caps in self.widths]
        layout = self._layout
        if layout is None or not all(np.array_equal(c, old) for c, old in zip(counts, layout.counts)):
            self._layout = layout = None  # free the old nodes before building new ones
            keep = self.reuse and all(int(c.sum()) <= len(c) for c in counts)
            layout = _PanelLayout(self.groups, self.tau0, counts, keep)
            if self.reuse:
                self._layout = layout
        rise, fall, table = layout.integrate(modulation, k)
        m0 = np.cumsum(table, axis=-1)
        flat = self.lvl * (m0[:, self.i2] - m0[:, self.i1])
        return rise + flat + fall

    def unit_counts(self, p: BeatParams, kernel: str = "cos2") -> np.ndarray:
        """Unit-n0 counts at p's tau_d and phi0 (p.tau0 must be this model's)."""
        return self._sums(p.tau_d, lambda tau: (_modulation(tau, p, kernel),))[0]

    def phase_columns(self, tau_d: float) -> tuple[np.ndarray, np.ndarray]:
        """Columns (D, S) with unit-n0 cos2 counts K/2 + cos(2 phi0) D - sin(2 phi0) S.

        cos^2(x + phi0) = 1/2 + cos(2 phi0) cos(2x) / 2 - sin(2 phi0) sin(2x) / 2,
        so one panel pass over cos 2x and sin 2x gives the model at every
        phase; K is the unmodulated integral (``kalpha_bin_expected`` at
        unit scale).
        """

        def modulation(tau):
            x = 2.0 * np.sqrt(tau / tau_d)
            return np.cos(x), np.sin(x, out=x)

        d, s = 0.5 * self._sums(tau_d, modulation, 2)
        return d, s


def bin_expected_counts(p: BeatParams, edges, kernel: str = "cos2") -> np.ndarray:
    """Expected counts in contiguous bins given by ``edges`` (len N+1).

    Equals the exact double integral of the rate over delay and pump
    window per bin, to better than 1e-10 relative (same panel engine
    as ``beat_curve``).  Vectorized over bins for use inside fit
    objectives.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise DomainError("edges must be 1-d with at least two entries")
    if np.any(edges < 0.0) or np.any(np.diff(edges) <= 0.0):
        raise DomainError("edges must be nonnegative and strictly increasing")
    if not p.t_pump > 0.0:
        raise DomainError("t_pump must be positive")
    unit = _BinModel(edges, p.tau0, p.t_pump).unit_counts(p, kernel)
    return p.n0 * unit + p.background * p.t_pump * np.diff(edges)
