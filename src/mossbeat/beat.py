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
each panel capped at a quarter beat period and at sqrt(tau0).

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
    u = sqrt(tau), each panel no wider than the smaller of a quarter beat
    period and sqrt(tau0), accurate to machine precision on the smooth
    integrand; the flat background contributes background * t_pump.
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
# Panel engine shared by the accumulated intensity and the binned model.
#
# Swapping the order of the double integral, the expected counts in a bin
# [a, b] are the single integral of g(tau) times the overlap length
# |[a, b] intersect [tau - t_pump, tau]| -- a trapezoid in tau.  Every
# piece is a positive integrand, so nothing cancels and the result is
# accurate to machine precision relative to each bin.  The integrands are
# smooth in u = sqrt(tau); fixed-order Gauss-Legendre panels converge far
# below the 1e-10 target once each panel is capped at a quarter beat
# period and at sqrt(tau0), so that no panel spans many decay lengths
# when tau0 << tau_d.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_width(p: BeatParams) -> float:
    return min(np.pi * np.sqrt(p.tau_d) / 4.0, np.sqrt(p.tau0))


def _panel_nodes(u_lo: np.ndarray, u_hi: np.ndarray, h_max: float):
    """Split intervals into panels; nodes/weights plus owning interval index."""
    gaps = u_hi - u_lo
    n_panels = np.where(gaps > 0.0, np.maximum(np.ceil(gaps / h_max).astype(int), 1), 0)
    total = int(n_panels.sum())
    if total == 0:
        return None
    idx = np.repeat(np.arange(len(gaps)), n_panels)
    offsets = np.concatenate([[0], np.cumsum(n_panels)])
    pos = np.arange(total) - offsets[idx]
    h = (gaps / np.maximum(n_panels, 1))[idx]
    a = u_lo[idx] + pos * h
    u = a[:, None] + (_GL_NODES[None, :] + 1.0) * h[:, None] / 2.0
    w = _GL_WEIGHTS[None, :] * h[:, None] / 2.0
    return idx, u, w


def _sum_by_interval(idx, vals, n_intervals):
    out = np.zeros(n_intervals)
    np.add.at(out, idx, vals)
    return out


def _decay_beat(u, p: BeatParams, kernel: str):
    """Unit-n0 rate without background at tau = u^2."""
    tau = u * u
    return np.exp(-tau / p.tau0) * _modulation(tau, p, kernel)


def _decay_beat_integrals(u_lo: np.ndarray, u_hi: np.ndarray, p: BeatParams, kernel: str) -> np.ndarray:
    """Integral of the unit-n0 rate over tau in [u_lo^2, u_hi^2], per interval."""
    packed = _panel_nodes(u_lo, u_hi, _panel_width(p))
    if packed is None:
        return np.zeros(len(u_lo))
    idx, u, w = packed
    return _sum_by_interval(idx, (w * _decay_beat(u, p, kernel) * 2.0 * u).sum(axis=1), len(u_lo))


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
    a, b = edges[:-1], edges[1:]
    width = b - a
    pump = p.t_pump
    lvl = np.minimum(width, pump)  # plateau height of the overlap trapezoid
    r1 = a + lvl
    r2 = b + pump - lvl
    n_bins = len(a)
    h_max = _panel_width(p)

    # rising edge: weight tau - a on [a, r1]
    rise = np.zeros(n_bins)
    packed = _panel_nodes(np.sqrt(a), np.sqrt(r1), h_max)
    if packed is not None:
        idx, u, w = packed
        f = (u * u - a[idx][:, None]) * _decay_beat(u, p, kernel) * 2.0 * u
        rise = _sum_by_interval(idx, (w * f).sum(axis=1), n_bins)

    # falling edge: weight b + pump - tau on [r2, b + pump]
    fall = np.zeros(n_bins)
    packed = _panel_nodes(np.sqrt(r2), np.sqrt(b + pump), h_max)
    if packed is not None:
        idx, u, w = packed
        f = ((b + pump)[idx][:, None] - u * u) * _decay_beat(u, p, kernel) * 2.0 * u
        fall = _sum_by_interval(idx, (w * f).sum(axis=1), n_bins)

    # plateau: lvl times the integral of g over [r1, r2], via one shared
    # cumulative table over the union of breakpoints
    xs = np.unique(np.concatenate([r1, r2]))
    us = np.sqrt(np.concatenate([[0.0], xs]))
    m0 = np.cumsum(_decay_beat_integrals(us[:-1], us[1:], p, kernel))
    flat = lvl * (m0[np.searchsorted(xs, r2)] - m0[np.searchsorted(xs, r1)])

    return p.n0 * (rise + flat + fall) + p.background * pump * width
