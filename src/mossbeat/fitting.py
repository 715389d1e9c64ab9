"""Weighted least-squares recovery of beat parameters from count series.

The objective is chi2 = sum(((observed - model) / sigma)^2) with the
model integrated over each bin, exactly how the simulator generates
expectations.  The scale n0 and the background enter the model
linearly, so the fit uses variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 1973): each evaluation at a candidate (tau_d, phi0)
solves the free linear parameters exactly by bounded weighted least
squares, and Nelder-Mead searches only the free nonlinear ones.  The
beat phase makes the landscape multimodal, so every start of a
deterministic phase grid is screened to a coarse tolerance and only the
best one is polished.

Accepted series are duck-typed: anything with ``edges`` and ``counts``
arrays fits as a count series (sigma = sqrt(max(counts, 1))), anything
with ``edges``, ``ratio``, ``sigma`` and ``valid`` fits as a ratio series
(the model ratio uses a unit-scale fluorescence denominator, so the
fitted n0 is measured in units of the fluorescence scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .beat import BeatParams, bin_expected_counts
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
# screening tolerances: enough to rank the phase-grid starts
_SCREEN_XATOL = 1e-3
_SCREEN_RTOL = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Controls for ``fit_beat``.

    ``base`` supplies every parameter that is not free (tau0 and t_pump
    are never fitted) and the starting value of tau_d; phi0 starts from
    a grid of ``phase_grid`` points over its bounds, and free n0 and
    background need no start because they are solved exactly.
    """

    free_params: tuple[str, ...] = ("n0", "tau_d", "phi0")
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    phase_grid: int = 8
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
        if self.phase_grid < 1:
            raise DomainError("phase_grid must be >= 1")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError("tolerance must be positive")
        object.__setattr__(self, "free_params", free)
        object.__setattr__(self, "bounds", merged)


@dataclass(frozen=True)
class FitStart:
    """One screened start: its phase, the chi2 it reached, the model
    evaluations it took and the optimizer's status."""

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
    carries bound-contact notes and, when no screened start converged,
    their diagnostics.  ``evaluations`` counts model evaluations over
    the whole fit; ``starts`` holds one ``FitStart`` per phase-grid
    start (empty when no nonlinear parameter is free).
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
        self.evaluations = 0

    def columns(self, p: BeatParams) -> np.ndarray:
        """(bins, 2) model columns of n0 and background at p's tau_d and phi0."""
        self.evaluations += 1
        unit = bin_expected_counts(replace(p, n0=1.0, background=0.0), self.edges)[self.keep]
        return np.column_stack([unit / self.denom / self.sig, self.background])


def _residual(y: np.ndarray, cols: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Weighted residuals (observed - model) / sigma for linear coefficients coef."""
    return y - cols @ coef


def _scalar_lstsq(a: np.ndarray, t: np.ndarray, lo: float, hi: float) -> float:
    """argmin |t - a x| over lo <= x <= hi for one column a."""
    den = float(np.dot(a, a))
    return float(np.clip(np.dot(a, t) / den if den > 0.0 else 0.0, lo, hi))


def _bounded_lstsq(a: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """argmin |t - a x| over lo <= x <= hi, for a with one or two columns.

    Clipping is exact for one column.  For two, the unconstrained
    solution stands when it is inside the box; otherwise the optimum of
    the convex quadratic lies on an edge of the box, so each edge is
    solved as a clipped one-column problem and the best one is taken.
    """
    if a.shape[1] == 1:
        return np.array([_scalar_lstsq(a[:, 0], t, lo[0], hi[0])])
    x = np.linalg.lstsq(a, t, rcond=None)[0]
    if np.all((lo <= x) & (x <= hi)):
        return x
    best, best_ss = x, np.inf
    for j in (0, 1):
        k = 1 - j
        for v in (lo[j], hi[j]):
            cand = np.empty(2)
            cand[j] = v
            cand[k] = _scalar_lstsq(a[:, k], t - a[:, j] * v, lo[k], hi[k])
            r = _residual(t, a, cand)
            ss = float(np.dot(r, r))
            if ss < best_ss:
                best, best_ss = cand, ss
    return best


def chi2(series, params: BeatParams) -> float:
    """Weighted residual sum of squares of the bin-integrated model."""
    data = _WeightedSeries(series, params.tau0, params.t_pump)
    r = _residual(data.y, data.columns(params), np.array([params.n0, params.background]))
    return float(np.dot(r, r))


def fit_beat(series, cfg: FitConfig) -> FitResult:
    """Best multistart optimum of chi2 over the free parameters.

    Deterministic for fixed inputs.  Free n0 and background are solved
    exactly at every evaluation; bounded Nelder-Mead searches free tau_d
    (in log10) and phi0.  Each phase-grid start is screened with xatol
    1e-3 and fatol 1e-3 relative to its starting chi2, ties within 1e-9
    relative chi2 break toward lower tau_d, and the best start is
    polished with xatol 1e-8 and fatol ``cfg.tolerance`` relative.  The
    covariance is Gauss-Newton: exact columns for the linear parameters,
    central differences for tau_d and phi0.
    """
    import scipy.optimize  # here, not at module level, so `import mossbeat` loads no scipy

    free = cfg.free_params
    base = cfg.base
    bounds = cfg.bounds
    data = _WeightedSeries(series, base.tau0, base.t_pump)
    lin = [i for i, name in enumerate(_LINEAR) if name in free]
    fixed = [i for i, name in enumerate(_LINEAR) if name not in free]
    lin_lo, lin_hi = np.array([bounds[_LINEAR[i]] for i in lin]).reshape(-1, 2).T
    nonlin = [name for name in ("tau_d", "phi0") if name in free]
    if "tau_d" in free and bounds["tau_d"][0] <= 0.0:
        raise DomainError("tau_d lower bound must be positive")
    z_bounds = [(np.log10(bounds[n][0]), np.log10(bounds[n][1])) if n == "tau_d" else bounds[n] for n in nonlin]

    def project(z):
        """Params with the linear ones solved at nonlinear point z; columns; residuals."""
        p = replace(base, **{n: float(10.0**v if n == "tau_d" else v) for n, v in zip(nonlin, z)})
        cols = data.columns(p)
        coef = np.array([p.n0, p.background])
        if lin:
            target = _residual(data.y, cols[:, fixed], coef[fixed])
            coef[lin] = _bounded_lstsq(cols[:, lin], target, lin_lo, lin_hi)
        return replace(p, n0=float(coef[0]), background=float(coef[1])), cols, _residual(data.y, cols, coef)

    def objective(z) -> float:
        r = project(z)[2]
        return float(np.dot(r, r))

    def search(z0, xatol, rtol, f0):
        options = {"maxiter": cfg.max_iters, "maxfev": 4 * cfg.max_iters, "xatol": xatol,
                   "fatol": rtol * max(f0, 1.0), "adaptive": False}
        return scipy.optimize.minimize(objective, z0, method="Nelder-Mead", bounds=z_bounds, options=options)

    starts = []
    z = np.empty(0)
    polish = None
    if nonlin:
        phases = [base.phi0]
        if "phi0" in free:
            lo, hi = bounds["phi0"]
            phases = lo + (hi - lo) * np.arange(cfg.phase_grid) / cfg.phase_grid
        tau_start = [np.log10(np.clip(base.tau_d, *bounds["tau_d"]))] if "tau_d" in free else []
        best = best_tau = None
        for phase in phases:
            before = data.evaluations
            z0 = np.array(tau_start + ([phase] if "phi0" in free else []))
            res = search(z0, _SCREEN_XATOL, _SCREEN_RTOL, objective(z0))
            starts.append(FitStart(float(phase), float(res.fun), data.evaluations - before, bool(res.success), res.message))
            tau = 10.0 ** res.x[0] if "tau_d" in free else base.tau_d
            if best is None:
                best, best_tau = res, tau
                continue
            tie = 1e-9 * (1.0 + best.fun)
            if res.fun < best.fun - tie or (abs(res.fun - best.fun) <= tie and tau < best_tau):
                best, best_tau = res, tau
        polish = search(best.x, 1e-8, cfg.tolerance, best.fun)
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

    if "phi0" in free:
        params = replace(params, phi0=float(params.phi0 % np.pi))

    # bound contact: linear parameters sit exactly on a bound when the
    # solve clips them; nonlinear ones are judged in the search
    # coordinates, where Nelder-Mead saturates
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
    if starts and not any(s.converged for s in starts):
        notes = (f"start {i} (phi0 = {s.phi0:.4f}): {s.message}" for i, s in enumerate(starts))
        msgs.append("no start converged: " + "; ".join(notes))
    converged = polish is None or bool(polish.success)
    if not converged:
        msgs.append(f"polish: {polish.message}")
    message = "; ".join(msgs) if msgs else "ok"

    dof = int(np.count_nonzero(data.keep)) - len(free)
    return FitResult(params, best_chi2, dof, cov, converged, message, free, data.evaluations, tuple(starts))
