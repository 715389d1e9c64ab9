"""Weighted least-squares recovery of beat parameters from count series.

The objective is chi2 = sum(((observed - model) / sigma)^2) with the
model integrated over each bin, exactly how the simulator generates
expectations.  The scale n0 and the background enter the model
linearly, so the fit uses variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 1973): each evaluation at a candidate (tau_d, phi0)
solves the free linear parameters exactly by bounded weighted least
squares, and Nelder-Mead searches only the free nonlinear ones.

The phase is carried one step further.  cos^2(x + phi0) = 1/2 +
cos(2 phi0) cos(2x) / 2 - sin(2 phi0) sin(2x) / 2, so at a fixed tau_d
the binned model is n0 (K/2 + cos(2 phi0) D - sin(2 phi0) S), and one
panel pass gives the three columns.  From their QR factor the best
phi0, n0 and background cost O(1) per trial phase.  The fit screens
this exact-phase profile chi2(tau_d) on a log-spaced tau_d grid, which
finds the one deep basin of the beat landscape without a multistart,
and polishes the best grid point with Nelder-Mead on the full model.

Accepted series are duck-typed: anything with ``edges`` and ``counts``
arrays fits as a count series (sigma = sqrt(max(counts, 1))), anything
with ``edges``, ``ratio``, ``sigma`` and ``valid`` fits as a ratio series
(the model ratio uses a unit-scale fluorescence denominator, so the
fitted n0 is measured in units of the fluorescence scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .beat import BeatParams, _BinModel, bin_expected_counts
from .errors import DomainError, StructuralError
from .spectra import kalpha_bin_expected

_FREE_CHOICES = ("n0", "tau_d", "phi0", "background")
_LINEAR = ("n0", "background")
_DEFAULT_BOUNDS = {
    "n0": (0.0, 1e12),
    "tau_d": (1e-3, 1e12),
    "phi0": (0.0, np.pi),
    "background": (0.0, 1e9),
}
# screen: tau_d grid points per decade; trial phases per phase range before
# the golden-section refinement.  That refinement stops at _PHASE_XTOL rad,
# far inside the polish's first simplex, while its chi2 comparisons are still
# decided by more than rounding, so that data rescaled by a constant give the
# polish the same start bit for bit.
_GRID_PER_DECADE = 4
_PHASE_TRIALS = 32
_PHASE_XTOL = 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Controls for ``fit_beat``.

    ``base`` supplies every parameter that is not free (tau0 and t_pump
    are never fitted).  Free parameters need no start: tau_d comes from
    a grid over its bounds, phi0, n0 and background are solved at each
    grid point.  ``max_iters`` and ``tolerance`` control the Nelder-Mead
    polish.
    """

    free_params: tuple[str, ...] = ("n0", "tau_d", "phi0")
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    max_iters: int = 2000
    tolerance: float = 1e-9
    base: BeatParams = field(default_factory=BeatParams)

    def __post_init__(self):
        free = tuple(self.free_params)
        if len(free) == 0 or len(set(free)) != len(free):
            raise DomainError("free_params must be a nonempty set of names")
        for name in free:
            if name not in _FREE_CHOICES:
                raise DomainError(f"cannot free {name!r}; choose from {_FREE_CHOICES}")
        merged = dict(_DEFAULT_BOUNDS)
        merged.update(self.bounds)
        for name, (lo, hi) in merged.items():
            if name not in _FREE_CHOICES:
                raise DomainError(f"bounds given for unknown parameter {name!r}")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"bounds for {name} must be finite with lo < hi, got ({lo!r}, {hi!r})")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError("tolerance must be positive")
        object.__setattr__(self, "free_params", free)
        object.__setattr__(self, "bounds", merged)


@dataclass(frozen=True)
class FitStart:
    """The screen's outcome: the best grid tau_d, its exact phi0 and
    profile chi2, the model evaluations the screen took and its status."""

    tau_d: float
    phi0: float
    chi2: float
    evaluations: int
    converged: bool
    message: str


@dataclass(frozen=True)
class FitResult:
    """Outcome of a multistart fit.

    ``covariance`` rows/columns follow ``free_names`` (natural units,
    Gauss-Newton (J^T J)^-1 of the weighted residuals at the optimum).
    ``converged`` is the status of the final polish.  ``message``
    carries bound-contact notes and, if the polish stopped early, its
    status.  ``evaluations`` counts model evaluations (panel passes)
    over the whole fit; ``starts`` holds one ``FitStart`` for the
    tau_d screen (empty when no nonlinear parameter is free).
    """

    params: BeatParams
    chi2: float
    dof: int
    covariance: np.ndarray | None
    converged: bool
    message: str
    free_names: tuple[str, ...]
    evaluations: int = 0
    starts: tuple[FitStart, ...] = ()

    def __post_init__(self):
        if self.chi2 < 0.0:
            raise DomainError("chi2 must be nonnegative")
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            n = len(self.free_names)
            if cov.shape != (n, n):
                raise DomainError("covariance shape must match free parameter count")
            cov = cov.copy()
            cov.setflags(write=False)
            object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "starts", tuple(self.starts))


class _WeightedSeries:
    """The kept bins of a series divided by sigma, and the model columns
    on the same footing; counts model evaluations."""

    def __init__(self, series, tau0: float, t_pump: float):
        edges = np.asarray(series.edges, dtype=float)
        if hasattr(series, "ratio"):
            obs = np.asarray(series.ratio, dtype=float)
            sig = np.asarray(series.sigma, dtype=float)
            keep = np.asarray(series.valid, dtype=bool) & (sig > 0.0)
            if len(obs) == 0 or not np.any(keep):
                raise StructuralError("series has no valid bins with positive sigma")
            # the unit-scale fluorescence denominator depends on no fitted
            # parameter, so it is built once per series
            denom = kalpha_bin_expected(1.0, tau0, t_pump, edges)[keep]
        else:
            obs = np.asarray(series.counts, dtype=float)
            if len(obs) == 0:
                raise StructuralError("series is empty")
            sig = np.sqrt(np.maximum(obs, 1.0))
            keep = np.ones(len(obs), dtype=bool)
            denom = 1.0
        self.edges, self.keep, self.denom = edges, keep, denom
        self.sig = sig[keep]
        self.y = obs[keep] / self.sig
        self.background = t_pump * np.diff(edges)[keep] / denom / self.sig
        self.half_k = 0.5 * kalpha_bin_expected(1.0, tau0, t_pump, edges)[keep] / denom / self.sig
        self.model = _BinModel(edges, tau0, t_pump, reuse=True)
        self.evaluations = 0

    def columns(self, p: BeatParams) -> np.ndarray:
        """(bins, 2) model columns of n0 and background at p's tau_d and phi0."""
        self.evaluations += 1
        unit = self.model.unit_counts(p)[self.keep]
        return np.column_stack([unit / self.denom / self.sig, self.background])

    def phase_columns(self, tau_d: float) -> np.ndarray:
        """(bins, 3) columns K/2, D and S of the unit-n0 model at tau_d."""
        self.evaluations += 1
        d, s = self.model.phase_columns(tau_d)
        return np.column_stack([self.half_k, d[self.keep] / self.denom / self.sig, s[self.keep] / self.denom / self.sig])


def _residual(y: np.ndarray, cols: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Weighted residuals (observed - model) / sigma for linear coefficients coef."""
    return y - cols @ coef


def _bounded_lstsq(a, c, t, lin, coef, lo, hi):
    """argmin over (x0, x1) of |t - x0 a - x1 c|^2 and the minimum,
    elementwise over the leading axes of vectors stored on the last axis.

    The coordinates listed in ``lin`` are free within [lo, hi], the
    others stay at ``coef``.  Clipping is exact for one free coordinate.
    For two, the unconstrained optimum stands when it is inside the box;
    otherwise the optimum of the convex quadratic lies on an edge of the
    box, so each edge is solved as a clipped one-coordinate problem and
    the best one is taken.  Every residual is formed explicitly, so the
    sum of squares keeps its relative precision.
    """
    cols = (a, c)
    shape = np.broadcast_shapes(a.shape, c.shape, t.shape)[:-1]

    def dot(u, v):
        return (u * v).sum(axis=-1)

    def value(x0, x1):
        r = t - x0[..., None] * a - x1[..., None] * c
        return dot(r, r)

    def solve(j, other):
        """Best coordinate j within its bounds, the other one held at ``other``."""
        col, rest = cols[j], t - other[..., None] * cols[1 - j]
        den = dot(col, col)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(den > 0.0, dot(col, rest) / den, 0.0)
        k = lin.index(j)
        return np.clip(x, lo[k], hi[k])

    x = [np.full(shape, coef[0]), np.full(shape, coef[1])]
    if len(lin) < 2:
        if lin:
            x[lin[0]] = solve(lin[0], x[1 - lin[0]])
        return x[0], x[1], value(*x)
    aa, ac, cc, at, ct = dot(a, a), dot(a, c), dot(c, c), dot(a, t), dot(c, t)
    det = aa * cc - ac * ac
    with np.errstate(divide="ignore", invalid="ignore"):
        x0, x1 = (at * cc - ct * ac) / det, (ct * aa - at * ac) / det
    inside = (det > 0.0) & (lo[0] <= x0) & (x0 <= hi[0]) & (lo[1] <= x1) & (x1 <= hi[1])
    x0, x1 = np.where(inside, x0, 0.0), np.where(inside, x1, 0.0)
    best = np.where(inside, value(x0, x1), np.inf)
    edges = [(solve(0, np.full(shape, v)), np.full(shape, v)) for v in (lo[1], hi[1])]
    edges += [(np.full(shape, v), solve(1, np.full(shape, v))) for v in (lo[0], hi[0])]
    for e0, e1 in edges:
        ss = value(e0, e1)
        better = ss < best
        x0, x1, best = np.where(better, e0, x0), np.where(better, e1, x1), np.where(better, ss, best)
    return x0, x1, best


def chi2(series, params: BeatParams) -> float:
    """Weighted residual sum of squares of the bin-integrated model."""
    data = _WeightedSeries(series, params.tau0, params.t_pump)
    r = data.y - bin_expected_counts(params, data.edges)[data.keep] / data.denom / data.sig
    return float(np.dot(r, r))


def _golden_min(f, a, b, xtol):
    """Golden-section minimum of f on [a, b], elementwise over arrays.

    It only compares values of f.  Returns the abscissae and their
    values.
    """
    r = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    width = float(np.max(b - a))
    steps = int(np.ceil(np.log(xtol / width) / np.log(r))) if width > xtol else 0
    for _ in range(steps):
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - r * (b - a), a + r * (b - a))
        fnew = f(new)
        c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                        np.where(left, fnew, fd), np.where(left, fc, fnew))
    left = fc <= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def fit_beat(series, cfg: FitConfig) -> FitResult:
    """Best fit of chi2 over the free parameters.

    Deterministic for fixed inputs.  Free n0 and background are solved
    exactly at every evaluation.  A free tau_d is screened on a grid of
    4 log-spaced points per decade over its bounds, both ends included;
    at each grid point one panel pass gives the columns K/2, D and S,
    and the best phi0 (with n0 and background) follows from their QR
    factor, at O(1) cost per trial phase: 32 trial phases over the
    phase range, then golden section to 1e-6 rad.  Ties within 1e-9
    relative chi2 break toward lower tau_d.  Nelder-Mead then polishes
    (log10 tau_d, phi0) on the full model from the best grid point with
    xatol 1e-8 and fatol ``cfg.tolerance`` relative.  When the phi0 bounds span at least pi,
    the period of the model, the phase is searched unbounded and
    reported in [lo, lo + pi); narrower bounds are enforced.  The
    covariance is Gauss-Newton: exact columns for the linear
    parameters, central differences for tau_d and phi0.
    """
    import scipy.optimize  # here, not at module level, so `import mossbeat` loads no scipy

    free = cfg.free_params
    base = cfg.base
    bounds = cfg.bounds
    data = _WeightedSeries(series, base.tau0, base.t_pump)
    lin = [i for i, name in enumerate(_LINEAR) if name in free]
    lin_lo, lin_hi = np.array([bounds[_LINEAR[i]] for i in lin]).reshape(-1, 2).T
    nonlin = [name for name in ("tau_d", "phi0") if name in free]
    if "tau_d" in free and bounds["tau_d"][0] <= 0.0:
        raise DomainError("tau_d lower bound must be positive")
    phase_lo, phase_hi = bounds["phi0"]
    periodic = phase_hi - phase_lo >= np.pi
    z_bounds = []
    for name in nonlin:
        if name == "tau_d":
            z_bounds.append((np.log10(bounds[name][0]), np.log10(bounds[name][1])))
        else:
            z_bounds.append((-np.inf, np.inf) if periodic else (phase_lo, phase_hi))

    def project(z):
        """Params with the linear ones solved at nonlinear point z; columns; residuals."""
        p = replace(base, **{n: float(10.0**v if n == "tau_d" else v) for n, v in zip(nonlin, z)})
        cols = data.columns(p)
        n0, background, _ = _bounded_lstsq(cols[:, 0], cols[:, 1], data.y, lin, (p.n0, p.background), lin_lo, lin_hi)
        coef = np.array([n0, background])
        return replace(p, n0=float(n0), background=float(background)), cols, _residual(data.y, cols, coef)

    def objective(z) -> float:
        r = project(z)[2]
        return float(np.dot(r, r))

    starts = []
    z = np.empty(0)
    polish = None
    if nonlin:
        # screen: the exact-phase profile chi2(tau_d) on a log grid
        if "tau_d" in free:
            z_lo, z_hi = z_bounds[0]
            z_grid = np.linspace(z_lo, z_hi, int(np.ceil(_GRID_PER_DECADE * (z_hi - z_lo))) + 1)
            taus = 10.0**z_grid
        else:
            taus = np.array([base.tau_d])
        # per grid point, QR of the columns K/2, D, S and background:
        # chi2 = |Q^T y - R x|^2 + |y - Q Q^T y|^2 for any coefficients x.
        # Residuals in this 4-d basis keep chi2's relative precision, which
        # the normal equations lose where the columns are nearly parallel
        # (a slow beat, with D close to K/2).
        r_cols = np.empty((len(taus), 4, 4))
        y_proj = np.empty((len(taus), 4))
        rest = np.empty(len(taus))
        for g, tau in enumerate(taus):
            q, r_cols[g] = np.linalg.qr(np.column_stack([data.phase_columns(float(tau)), data.background]))
            y_proj[g] = q.T @ data.y
            r = data.y - q @ y_proj[g]
            rest[g] = np.dot(r, r)
        coef = (base.n0, base.background)

        def profile(phases):
            """chi2 at each (grid point, phase), linear parameters solved."""
            v = np.stack([np.ones_like(phases), np.cos(2.0 * phases), -np.sin(2.0 * phases)], axis=-1)
            model = np.einsum("gij,gqj->gqi", r_cols[:, :, :3], v)
            ss = _bounded_lstsq(model, r_cols[:, None, :, 3], y_proj[:, None, :], lin, coef, lin_lo, lin_hi)[2]
            return ss + rest[:, None]

        if "phi0" in free:
            if periodic:
                trials = phase_lo + np.pi * np.arange(_PHASE_TRIALS) / _PHASE_TRIALS
            else:
                trials = np.linspace(phase_lo, phase_hi, _PHASE_TRIALS)
            step = trials[1] - trials[0]
            grid_trials = np.broadcast_to(trials, (len(taus), _PHASE_TRIALS))
            start = trials[np.argmin(profile(grid_trials), axis=1)][:, None]
            lo, hi = start - step, start + step
            if not periodic:
                lo, hi = np.maximum(lo, phase_lo), np.minimum(hi, phase_hi)
            phases, chis = _golden_min(profile, lo, hi, _PHASE_XTOL)
            phases, chis = phases[:, 0], chis[:, 0]
        else:
            phases = np.full(len(taus), base.phi0)
            chis = profile(phases[:, None])[:, 0]
        best = int(np.flatnonzero(chis <= chis.min() + 1e-9 * (1.0 + abs(chis.min())))[0])
        phase = float(phases[best])
        if "phi0" in free and periodic:
            phase = phase_lo + (phase - phase_lo) % np.pi
        starts.append(FitStart(float(taus[best]), phase, float(chis[best]), data.evaluations, True,
                               f"best of {len(taus)} tau_d grid points"))
        z0 = np.array(([z_grid[best]] if "tau_d" in free else []) + ([phases[best]] if "phi0" in free else []))
        options = {"maxiter": cfg.max_iters, "maxfev": 4 * cfg.max_iters, "xatol": 1e-8,
                   "fatol": cfg.tolerance * max(float(chis[best]), 1.0), "adaptive": False}
        polish = scipy.optimize.minimize(objective, z0, method="Nelder-Mead", bounds=z_bounds, options=options)
        z = polish.x

    params, cols, r = project(z)
    best_chi2 = float(np.dot(r, r))
    coef = np.array([params.n0, params.background])
    jac = []
    for name in free:
        if name in _LINEAR:
            jac.append(-cols[:, _LINEAR.index(name)])
            continue
        h = 1e-4 * params.tau_d if name == "tau_d" else 1e-4
        up = data.columns(replace(params, **{name: getattr(params, name) + h}))
        down = data.columns(replace(params, **{name: getattr(params, name) - h}))
        jac.append((_residual(data.y, up, coef) - _residual(data.y, down, coef)) / (2.0 * h))
    jac = np.column_stack(jac)
    try:
        # pseudo-inverse on unit-norm columns, so rank is judged free of units
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        js = jac / scale
        cov = np.linalg.pinv(js.T @ js, hermitian=True) / np.outer(scale, scale)
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = None

    if "phi0" in free and periodic:
        params = replace(params, phi0=float(phase_lo + (params.phi0 - phase_lo) % np.pi))

    # bound contact: linear parameters sit exactly on a bound when the
    # solve clips them; nonlinear ones are judged in the search
    # coordinates, where Nelder-Mead saturates (an unbounded phase never does)
    msgs = []
    z_at = dict(zip(nonlin, zip(z, z_bounds)))
    for name in free:
        lo, hi = bounds[name]
        if name in z_at:
            v, (lo_z, hi_z) = z_at[name]
            tol = 1e-6 * max(1.0, abs(v))
            at_lo, at_hi = abs(v - lo_z) <= tol, abs(v - hi_z) <= tol
        else:
            v = getattr(params, name)
            at_lo, at_hi = v == lo, v == hi
        if at_lo:
            msgs.append(f"{name} at lower bound {lo:g}")
        elif at_hi:
            msgs.append(f"{name} at upper bound {hi:g}")
    converged = polish is None or bool(polish.success)
    if not converged:
        msgs.append(f"polish: {polish.message}")
    message = "; ".join(msgs) if msgs else "ok"

    dof = int(np.count_nonzero(data.keep)) - len(free)
    return FitResult(params, best_chi2, dof, cov, converged, message, free, data.evaluations, tuple(starts))
