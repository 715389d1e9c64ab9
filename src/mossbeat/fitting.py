"""Weighted least-squares recovery of beat parameters from count series.

The objective is chi2 = sum(((observed - model) / sigma)^2) with the
model integrated over each bin, exactly how the simulator generates
expectations.  cos^2(x + phi0) = 1/2 + cos(2 phi0) cos(2x) / 2 -
sin(2 phi0) sin(2x) / 2, so at a fixed tau_d the binned model is
n0 (K/2 + cos(2 phi0) D - sin(2 phi0) S) + background B, and one panel
pass gives the columns.  Everything but tau_d is solved at each tau_d
by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
1973): from the QR factor of the columns, the best n0 and background
(bounded weighted least squares) cost O(1) per trial phase, and phi0
is solved in closed form (``_best_phase``): the stationary points of
the profile in phi0, the real roots of one quartic per active set of
those bounds (``_phase_roots``), are snapped to a lattice of spacing
pi / 2^31 (about 1.5e-9 rad) and compared, with their lattice
neighbours, by their chi2.  The fit screens this exact-phase profile
chi2(tau_d) on a log-spaced tau_d grid, which finds the one deep basin
of the beat landscape without a multistart.  A grid point's profile
chi2 is rest + ss, with rest the squared residual outside the span of
its four columns and ss >= 0, so it is never below rest, in floating
point too.  The phase is therefore searched first at the point of least
rest, and then only at points whose rest is not above that chi2 by more
than the tie margin; the others can neither win nor tie.  With a
measured beat only that first point is searched; where the data carry
no beat (n0 = 0) nothing is skipped, nor is anything where a rest is
NaN.  The screen weights and factors its points in stacks of about 4096
rows (6 points at 600 bins).  LAPACK factors each point on its own and
every later step is per point, so a point's numbers do not depend on the
points stacked or searched with it, and the result is bit for bit that
of a search at every point, one at a time.

The fit then polishes the best grid point by at most 8 safeguarded
Gauss-Newton steps in z = log10 tau_d (Kaufman, BIT 15, 1975), inside
the bracket of its neighbours: slope 2 m.r and curvature 2 |m|^2 for
the residuals r and m = -dmodel/dz, with the free inner parameters off
their bounds projected out.  The exact derivative columns come from the
same panel pass as the model's.  A step that leaves the bracket, meets
zero curvature (n0 = 0, say) or does not lower chi2 gives way to
bisection, as does a target that rounds to a point already tried; one
that rounds to the current point ends the steps.  A rejected step moves
only the bracket, so the slope and curvature are kept.  Every step
lands on a lattice of spacing 2^-28 in z, and the final tau_d is the
lattice point of least chi2 found by comparison within 2 lattice steps
of the best one the steps reached.

What depends only on the bin edges, tau0 and t_pump, the binning, has one
owner, a ``_Binning``: the binned model, which keeps each block's set-up
and panel layout from its second pass on (0.19 MB at 600 bins, 17.6 MB
at 60 000 of 1.2 s, after a screen), the screen's unit-n0 columns for its tau_d
grid (2 x grid x bins doubles: 0.6 MB for 61 grid points and 600 bins,
59 MB at 60 000) and the derivative pass at the last best grid point (4 x
bins doubles: 19 KB at 600 bins, 1.9 MB at 60 000).  The process keeps the
binning of the last fit (``_binning``), so a further fit on it builds no
model and, with tau_d free, screens without a panel pass.  A fit takes its
binning once, at its start, and holds it to the end, so fits running
concurrently in threads give the results of serial fits.

Accepted series are duck-typed: anything with ``edges`` and ``counts``
arrays fits as a count series (sigma = sqrt(max(counts, 1)), Neyman's
chi2, which is biased at low counts; see README), anything
with ``edges``, ``ratio``, ``sigma`` and ``valid`` fits as a ratio series
(the model ratio uses a unit-scale fluorescence denominator, so the
fitted n0 is measured in units of the fluorescence scale).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

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
# screen: tau_d grid points per decade.  Polish: the lattice spacing in
# log10 tau_d, the most Newton steps and the half-width, in lattice steps,
# of the final comparison.  Phase: the lattice spacing in phi0, about
# 1.5e-9 rad, and the lattice neighbours compared around each candidate,
# in the order that breaks ties.  The chi2 comparisons that pick tau_d and
# phi0 are decided by more than rounding on noiseless data, so that data
# rescaled by a constant give the same tau_d and phi0 bit for bit.  Stacks: the rows (points x kept bins) the screen
# weights and factors at once; a stack's columns then take about 100 KB,
# which stays in cache (all 61 points at once, 1.2 MB at 600 bins, ran slower).
_GRID_PER_DECADE = 4
_Z_STEP = 2.0**-28
_NEWTON_STEPS = 8
_WINDOW = 2
_PHASE_STEP = np.pi / 2.0**31
_PHASE_OFFSETS = (0.0, -1.0, 1.0, -2.0, 2.0)
_STACK_ROWS = 4096


@dataclass(frozen=True)
class FitConfig:
    """Controls for ``fit_beat``.

    ``base`` supplies every parameter that is not free (tau0 and t_pump
    are never fitted).  Free parameters need no start: tau_d comes from
    a grid over its bounds, phi0, n0 and background are solved at each
    tau_d the fit evaluates.  Each lower bound lies in its parameter's
    domain, whether the parameter is free or not: at least 0 for n0 and
    background, above 0 for tau_d.
    """

    free_params: tuple[str, ...] = ("n0", "tau_d", "phi0")
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
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
        for name, bound in merged.items():
            if name not in _FREE_CHOICES:
                raise DomainError(f"bounds given for unknown parameter {name!r}")
            try:
                lo, hi = bound
            except (TypeError, ValueError):
                raise DomainError(f"bounds for {name} must be a pair (lo, hi), got {bound!r}") from None
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (lo, hi)):
                raise DomainError(f"bounds for {name} must be real numbers, got {bound!r}")
            merged[name] = lo, hi
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"bounds for {name} must be finite with lo < hi, got ({lo!r}, {hi!r})")
            if name == "tau_d" and not lo > 0.0:
                raise DomainError(f"lower bound for tau_d must be positive, got {lo!r}")
            if name in _LINEAR and lo < 0.0:
                raise DomainError(f"lower bound for {name} must be nonnegative, got {lo!r}")
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
    """Outcome of ``fit_beat``.

    ``covariance`` rows/columns follow ``free_names`` (natural units,
    Gauss-Newton (J^T J)^-1 of the weighted residuals at the optimum,
    with exact Jacobian columns for every parameter).
    ``converged`` says that ``chi2`` is finite.  ``message`` carries
    bound-contact notes, or "ok".  ``evaluations`` counts model
    evaluations (panel passes) over the whole fit, each screen point as
    one whether its columns were computed or taken from the screen's
    cache; ``starts`` holds one ``FitStart`` for the tau_d screen (empty
    when neither tau_d nor phi0 is free).
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
    """The kept bins of a series divided by sigma, and the model's phase
    columns on the same footing; counts model evaluations."""

    def __init__(self, series, tau0: float, t_pump: float):
        edges = np.asarray(series.edges, dtype=float)
        ratio = hasattr(series, "ratio")
        if ratio:
            obs = np.asarray(series.ratio, dtype=float)
            sig = np.asarray(series.sigma, dtype=float)
            keep = np.asarray(series.valid, dtype=bool) & (sig > 0.0)
            if len(obs) == 0 or not np.any(keep):
                raise StructuralError("series has no valid bins with positive sigma")
        else:
            obs = np.asarray(series.counts, dtype=float)
            if len(obs) == 0:
                raise StructuralError("series is empty")
            sig = np.sqrt(np.maximum(obs, 1.0))
            keep = slice(None)
        # K, the unit-scale fluorescence counts, depends on no fitted
        # parameter; it is also a ratio series' model denominator
        k = kalpha_bin_expected(1.0, tau0, t_pump, edges)[keep]
        denom = k if ratio else 1.0
        self.edges, self.keep, self.denom = edges, keep, denom
        self.sig = sig[keep]
        self.y = obs[keep] / self.sig
        self.background = t_pump * np.diff(edges)[keep] / denom / self.sig
        self.half_k = 0.5 * k / denom / self.sig
        self.evaluations = 0

    def columns(self, phase) -> np.ndarray:
        """The model columns at each of a stack of tau_d, shape (points, bins,
        4): K/2, D and S of the unit-n0 model and the unit background, from
        the unweighted (D, S) of each point over all bins, shape (points, 2,
        all bins).  Given (points, 4, all bins), with dD/dtau_d and
        dS/dtau_d, those follow as columns 5 and 6.  Each point counts as one
        evaluation."""
        self.evaluations += len(phase)
        cols = np.empty((len(phase), 2 + phase.shape[1], len(self.y)))
        cols[:, 0], cols[:, 3] = self.half_k, self.background
        for weighted, unweighted in ((cols[:, 1:3], phase[:, :2]), (cols[:, 4:], phase[:, 2:])):
            weighted[:] = unweighted[:, :, self.keep]
            weighted /= self.denom
            weighted /= self.sig
        return np.swapaxes(cols, 1, 2)


class _Binning:
    """What a fit computes from one binning alone, kept for the next fit on it.

    ``model`` is the ``_BinModel`` with its kept panel layout.  ``screen``
    and ``derivative_pass`` keep their last result as one (argument, value)
    pair, read and replaced in one step, so a fit never pairs one tau_d with
    another's columns.  Nothing derived from the data (kept bins, sigma,
    denominator) goes in.
    """

    def __init__(self, edges: np.ndarray, tau0: float, t_pump: float):
        self.model = _BinModel(edges, tau0, t_pump)
        self._screen = self._deriv = (None, None)

    def screen(self, taus: np.ndarray) -> np.ndarray:
        """The read-only unit-n0 (D, S) at each of ``taus`` over all bins,
        shape (grid, 2, bins): kept, or one panel pass per tau_d, made with
        the old grid's columns freed."""
        grid, kept = taus.tobytes(), self._screen
        if kept[0] != grid:
            self._screen = kept = (None, None)  # free the old grid's columns first
            cols = np.empty((len(taus), 2, self.model.n_bins))
            for row, tau in zip(cols, taus):
                row[:] = self.model.phase_columns(float(tau))
            cols.setflags(write=False)
            self._screen = kept = grid, cols
        return kept[1]

    def derivative_pass(self, tau: float) -> np.ndarray:
        """The read-only ``model.phase_columns(tau, True)``, shape (4, bins):
        kept, or made now and kept in place of the one before."""
        kept = self._deriv
        if kept[0] != tau:
            cols = np.array(self.model.phase_columns(tau, True))
            cols.setflags(write=False)
            self._deriv = kept = tau, cols
        return kept[1]


@lru_cache(maxsize=1)
def _binning(edges: bytes, tau0: float, t_pump: float) -> _Binning:
    """The binning of the float64 ``edges``, tau0 and t_pump; the process
    keeps the last one asked for.  The model reads a read-only view of the
    key's bytes, so its edges cannot change while it lives.  A new binning
    evicts the old one before its first pass."""
    return _Binning(np.frombuffer(edges), tau0, t_pump)


def _tau_grid(bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The screen's grid over the tau_d ``bounds``: 4 points per decade,
    evenly spaced in z = log10 tau_d with both ends included; returns the
    z values and the tau_d values, whose ends are the bounds exactly."""
    z_lo, z_hi = np.log10(bounds)
    z_grid = np.linspace(z_lo, z_hi, int(np.ceil(_GRID_PER_DECADE * (z_hi - z_lo))) + 1)
    taus = 10.0**z_grid
    taus[[0, -1]] = bounds
    return z_grid, taus


@dataclass(frozen=True)
class _Point:
    """A profile point: tau_d, its profile chi2, the best phase, n0 and
    background there, the pass's columns and the unit-n0 model column."""

    tau: float
    chi: float
    phase: float
    n0: float
    background: float
    cols: np.ndarray
    unit: np.ndarray


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


def _qr_pieces(cols, y):
    """QR pieces (R, Q^T y, rest) of the profile at each of a stack of tau_d,
    from its model columns, shape (points, bins, >= 4): chi2 = |Q^T y - R x|^2
    + rest for any coefficients x of the first four columns, where
    rest = |y - Q Q^T y|^2 is the part of the data outside their span.
    Residuals in this 4-d basis keep chi2's relative precision, which the
    normal equations lose where the columns are nearly parallel (a slow
    beat, with D close to K/2).  LAPACK factors each point on its own, and
    the products are per point too, so a point's pieces do not depend on
    the points stacked with it; the (1, n) by (n, 1) product is the dot
    product's sum, bit for bit, which einsum's is not."""
    q, r_cols = np.linalg.qr(cols[..., :4])
    y_proj = np.swapaxes(q, -1, -2) @ y
    rest = y - (q @ y_proj[..., None])[..., 0]
    return r_cols, y_proj, (rest[..., None, :] @ rest[..., :, None])[..., 0, 0]


def _phase_profile(pieces, lin, coef, lo, hi):
    """profile(phases): the chi2 at each of a (rows, trials) array of phases,
    one row per tau_d of the stacked QR ``pieces``, with n0 and background
    solved by ``_bounded_lstsq`` (free where listed in ``lin``, within
    [lo, hi]).  Each row is computed on its own, so a row's values do not
    depend on which rows are stacked with it."""
    r_cols, y_proj, rest = pieces
    t, c, rest = y_proj[:, None, :], r_cols[:, None, :, 3], rest[:, None]

    def profile(phases):
        v = np.stack([np.ones_like(phases), np.cos(2.0 * phases), -np.sin(2.0 * phases)], axis=-1)
        a = np.einsum("gij,gqj->gqi", r_cols[:, :, :3], v)
        return _bounded_lstsq(a, c, t, lin, coef, lo, hi)[2] + rest

    return profile


@lru_cache(maxsize=1)
def _quartic_maps():
    """(e_0, e_1, e_2) = A to_e, and the t^0..t^4 coefficients of the
    quartics of ``_phase_roots`` as linear maps of the terms nu_i gram_lm
    (n0 free; the quintic terms cancel) and of gram_lm and nu_i (n0 held:
    n0 times the first map plus the second); made on first use, so that
    importing the module builds no arrays."""
    to_e = np.array([[1, 0, 1], [1, 0, -1], [0, -2, 0]], dtype=float)
    free = np.array([[(2 * i - l - m) * (i + l + m - 1 == k) for k in range(5)]
                     for i in range(3) for l in range(3) for m in range(3)], dtype=float)
    held_gram = np.array([[(l + m) * (l + m - 1 == k) + (l + m - 4) * (l + m + 1 == k) for k in range(5)]
                          for l in range(3) for m in range(3)], dtype=float)
    held_nu = np.array([[-2 * (i * (i - 1 == k) + (2 * i - 2) * (i + 1 == k) + (i - 2) * (i + 3 == k))
                         for k in range(5)] for i in range(3)], dtype=float)
    return to_e, free, held_gram, held_nu


def _phase_roots(pieces, lin, coef, lo, hi):
    """Candidate phases, shape (rows, 4 x pieces): the stationary points of
    every piece of the profile at each row of the stacked QR ``pieces``.

    With theta = 2 phi0, the unit-n0 model is a = A (1, cos theta, -sin
    theta) in the QR basis, A the first three columns of R, and the
    background column is c.  Each active set of the bounded least squares
    is one piece: the background at a bound (u = Q^T y - bg c) or free (u
    and A with c projected out), and n0 held (chi2 = |u|^2 - 2 n0 u.a +
    n0^2 |a|^2) or free (chi2 = |u|^2 - (u.a)^2 / |a|^2).  The profile's
    minimum is a stationary point of the piece whose active set holds there
    (Danskin).  With t = tan(phi0), (1 + t^2) a = e(t) = e_0 + e_1 t +
    e_2 t^2 for e_0 = A_0 + A_1, e_1 = -2 A_2 and e_2 = A_0 - A_1, so each
    piece is stationary at the real roots of a quartic in t (the quintic
    terms cancel), the eigenvalues of its companion matrix (Boyd, J. Eng.
    Math. 56 (2006) 203), whose coefficients are linear in the terms of
    u.e(t) = sum nu_i t^i and |e(t)|^2 = sum gram_lm t^(l + m).  A slow
    beat makes a nearly vanish close to theta = pi, in a basin of the
    profile about 1e-5 rad wide; e_2 = a(pi) keeps that small vector as it
    is, where the Fourier coefficients of |a|^2 would cancel on it.  A
    piece with n0 held at 0 is flat and gives none.
    """
    to_e, free_map, held_gram, held_nu = _quartic_maps()
    r_cols, t = pieces[0], pieces[1]
    a, c = r_cols[:, :, :3], r_cols[:, :, 3]
    held = np.array([v for v in ([lo[0], hi[0]] if 0 in lin else [coef[0]]) if v])
    if 0 not in lin and not len(held):
        return np.zeros((len(t), 0))
    # the background cases on a leading axis: held at each value, then free
    held_bg = np.array([lo[-1], hi[-1]] if 1 in lin else [coef[1]])
    pa, u = a[None], t - held_bg[:, None, None] * c
    if 1 in lin:  # background free: c projected out of A and u
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = c / np.sqrt((c * c).sum(axis=1))[:, None]
        unit[~np.isfinite(unit)] = 0.0
        pa = np.stack([a, a, a - unit[:, :, None] * (unit[:, :, None] * a).sum(axis=1)[:, None, :]])
        u = np.concatenate([u, (t - unit * (unit * t).sum(axis=1)[:, None])[None]])
    e = np.concatenate([pa @ to_e, u[..., None]], axis=-1)
    gram = np.swapaxes(e, -1, -2) @ e
    nu, gram = gram[..., 3, :3], gram[..., :3, :3].reshape(u.shape[:2] + (9,))
    h = (held[:, None, None, None] * (gram[..., None] * held_gram).sum(axis=-2)
         + (nu[..., None] * held_nu).sum(axis=-2))
    if 0 in lin:
        terms = (nu[..., :, None] * gram[..., None, :]).reshape(u.shape[:2] + (27,))
        h = np.concatenate([(terms[..., None] * free_map).sum(axis=-2)[None], h])
    # the monic companion's first row; a leading coefficient that is zero
    # (a root at t = infinity) is made tiny, so the root is large and finite
    scale = np.abs(h).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = h[..., 3::-1] / -np.where(np.abs(h[..., 4]) > 1e-30 * scale, h[..., 4], 1e-30 * scale)[..., None]
    top[~np.isfinite(top)] = 0.0
    companion = np.zeros(top.shape[:-1] + (4, 4))
    companion[..., 0, :] = top
    companion[..., 1:, :3] = np.eye(3)
    return np.arctan(np.linalg.eigvals(companion).real).transpose(2, 0, 1, 3).reshape(len(t), -1)


def _best_phase(pieces, lin, coef, lo, hi, phase_lo, phase_hi, periodic):
    """The best phase and its profile chi2 at each row of the stacked QR
    ``pieces``, n0 and background solved as in ``_phase_profile``.

    The candidates are the stationary points of ``_phase_roots``, and both
    ends of the phase window unless ``periodic`` (the phase is then
    unbounded).  Each is snapped to the lattice phase_lo + k pi / 2^31,
    wrapped into one period when periodic, else clipped to the window with
    phase_hi itself in place of the lattice points above it.  The profile
    is evaluated, in one call, at every snapped candidate and its 2 lattice
    neighbours on either side, and the least value wins; of equal values,
    a window end, then a snapped candidate, then the nearest neighbour, so
    a neighbour replaces a candidate only when lower.  Each row is solved
    on its own.
    """
    rows = len(pieces[2])
    k = np.round(((np.sort(_phase_roots(pieces, lin, coef, lo, hi), axis=1) - phase_lo) % np.pi) / _PHASE_STEP)
    if not periodic:  # the ends first: 0 and the first index to reach phase_hi
        ends = [0.0, np.ceil((phase_hi - phase_lo) / _PHASE_STEP)]
        k = np.concatenate([np.broadcast_to(ends, (rows, 2)), k], axis=1)
    elif k.shape[1] == 0:
        k = np.zeros((rows, 1))
    k = (k[:, None, :] + np.array(_PHASE_OFFSETS)[:, None]).reshape(rows, -1)
    if periodic:
        trials = phase_lo + _PHASE_STEP * (k % 2.0**31)
    else:
        trials = np.minimum(phase_lo + _PHASE_STEP * np.maximum(k, 0.0), phase_hi)
    values = _phase_profile(pieces, lin, coef, lo, hi)(trials)
    pick = np.arange(rows), np.argmin(values, axis=1)
    return trials[pick], values[pick]


def _tie_limit(chi: float) -> float:
    """The largest chi2 that ties with ``chi``: 1e-9 relative, 1e-9 absolute
    near 0.  Increasing in ``chi``, so a value above the limit of an upper
    bound on the least chi2 is above the limit of the least chi2 too."""
    return chi + 1e-9 * (1.0 + abs(chi))


def _wrap(phase: float, lo: float, periodic: bool) -> float:
    """phase reduced to [lo, lo + pi) when periodic."""
    return float(lo + (phase - lo) % np.pi) if periodic else phase


def fit_beat(series, cfg: FitConfig) -> FitResult:
    """Best fit of chi2 over the free parameters of ``cfg``.

    ``series`` is a count or ratio series (see the module docstring); the
    parameters that are not free keep their values in ``cfg.base``.  The
    result is deterministic for fixed inputs, and data rescaled by a
    constant give the same tau_d and phi0 bit for bit.  A free tau_d is
    screened on a grid of 4 log-spaced points per decade over its bounds,
    both ends included; ties within 1e-9 relative chi2 break toward the
    lower tau_d.  The polish then ends on a lattice of spacing 2^-28 in
    log10 tau_d, and keeps the best grid point unless it finds a lower
    chi2.  Every parameter stays within its bounds; one that ends on a
    bound returns it exactly and is named in ``message``.  When the phi0
    bounds span at least pi, the period of the model, phi0 is unbounded
    and reported in [lo, lo + pi); narrower bounds are enforced.  At each
    tau_d it solves, phi0 is the stationary point of the profile chi2, or
    end of its bounds, of least chi2, compared on the lattice lo + k pi /
    2^31 (with hi itself in place of the lattice points above it) within
    2 lattice steps of each.  The covariance is Gauss-Newton, with exact
    Jacobian columns for every free parameter.

    ``evaluations`` counts model evaluations, one panel pass at one tau_d
    each, kept passes included: 61 for the screen with default bounds and
    at most 14 more, or 1 with tau_d fixed.  ``starts`` holds one
    ``FitStart``, the screen's best grid point (with tau_d fixed, its one
    point), when tau_d or phi0 is free.

    A series with fewer kept bins than free parameters raises
    ``StructuralError``.

    A fit holds the kept work of its binning (its edges, tau0 and t_pump)
    from start to end, so fits running concurrently in threads return what
    serial fits return.  The process keeps the binning of the last fit.  A
    further fit on it builds no model and makes no screen pass, nor a pass
    at its best grid point when that is the previous fit's; its result is
    bit for bit that of a fit on a binning kept by none.
    """
    free = cfg.free_params
    base = cfg.base
    bounds = cfg.bounds
    data = _WeightedSeries(series, base.tau0, base.t_pump)
    if len(data.y) < len(free):
        raise StructuralError(f"series has {len(data.y)} kept bins, fewer than its {len(free)} free parameters")
    lin = [i for i, name in enumerate(_LINEAR) if name in free]
    lin_lo, lin_hi = np.array([bounds[_LINEAR[i]] for i in lin]).reshape(-1, 2).T
    coef = (base.n0, base.background)
    phase_lo, phase_hi = bounds["phi0"]
    periodic = "phi0" in free and phase_hi - phase_lo >= np.pi

    def solve(pieces):
        """Best phase and its profile chi2 at each tau_d of the stacked QR pieces."""
        if "phi0" not in free:
            rows = len(pieces[2])
            profile = _phase_profile(pieces, lin, coef, lin_lo, lin_hi)
            return np.full(rows, base.phi0), profile(np.full((rows, 1), base.phi0))[:, 0]
        return _best_phase(pieces, lin, coef, lin_lo, lin_hi, phase_lo, phase_hi, periodic)

    def fit_at(tau, derivs=False, unweighted=None, known=None):
        """One panel pass at tau_d and the best phase, n0 and background there.
        ``unweighted`` is the pass's columns when they are kept (the binning's
        derivative pass), ``known`` the (phase, chi2) the screen found at this
        tau_d from the same columns, which is then not searched again."""
        if unweighted is None:
            unweighted = np.array(binning.model.phase_columns(float(tau), derivs))
        cols = data.columns(unweighted[None])
        if known is None:
            known = [v[0] for v in solve(_qr_pieces(cols, data.y))]
        cols = cols[0]
        phase, chi = float(known[0]), float(known[1])
        c, s = np.cos(2.0 * phase), np.sin(2.0 * phase)
        unit = cols[:, 0] + c * cols[:, 1] - s * cols[:, 2]
        n0, background, _ = _bounded_lstsq(unit, cols[:, 3], data.y, lin, coef, lin_lo, lin_hi)
        return _Point(float(tau), chi, phase, float(n0), float(background), cols, unit)

    def residuals(pt):
        return data.y - pt.n0 * pt.unit - pt.background * pt.cols[:, 3]

    def jacobian(pt):
        """Columns of the weighted residuals' Jacobian by parameter; tau_d's
        comes from the exact derivative columns, when the pass made them."""
        c, s = np.cos(2.0 * pt.phase), np.sin(2.0 * pt.phase)
        jac = {"n0": -pt.unit, "background": -pt.cols[:, 3],
               "phi0": 2.0 * pt.n0 * (s * pt.cols[:, 1] + c * pt.cols[:, 2])}
        if pt.cols.shape[1] > 4:
            jac["tau_d"] = -pt.n0 * (c * pt.cols[:, 4] - s * pt.cols[:, 5])
        return jac

    def newton(pt):
        """Gauss-Newton slope and curvature of the profile chi2 in log10 tau_d.

        The inner parameters that are free and off their bounds are
        projected out of the tau_d column, which also corrects the slope
        for the phase's quantization to first order (Golub & Pereyra 1973;
        Kaufman, BIT 15 (1975) 49)."""
        jac = jacobian(pt)
        m = np.log(10.0) * pt.tau * jac["tau_d"]
        values = {"n0": pt.n0, "background": pt.background, "phi0": pt.phase}
        inner = [jac[name] for name in free if name != "tau_d"
                 and (name == "phi0" and periodic or values[name] not in bounds[name])]
        if inner:
            a = np.column_stack(inner)
            m = m - a @ np.linalg.lstsq(a, m, rcond=None)[0]
        return 2.0 * np.dot(m, residuals(pt)), 2.0 * np.dot(m, m)

    tau, starts = float(base.tau_d), []
    # this fit's binning throughout, whatever binning a later fit keeps
    binning = _binning(data.edges.tobytes(), float(base.tau0), float(base.t_pump))
    if "tau_d" not in free:  # one pass
        final = fit_at(tau)
        if "phi0" in free:
            starts.append(FitStart(tau, _wrap(final.phase, phase_lo, periodic), final.chi,
                                   data.evaluations, True, "best of 1 tau_d grid points"))
    else:
        # screen: the exact-phase profile chi2(tau_d) on a log grid
        z_grid, taus = _tau_grid(bounds["tau_d"])
        phase = binning.screen(taus)
        step = max(1, _STACK_ROWS // len(data.y))  # points per stack
        stacks = [_qr_pieces(data.columns(phase[i:i + step]), data.y) for i in range(0, len(taus), step)]
        pieces = [np.concatenate(p) for p in zip(*stacks)]
        # a point's chi2 is never below its rest: search the phase at the
        # least rest first, then only where rest is not above the tie
        # limit of that chi2; a skipped point can neither win nor tie
        rest = pieces[2]
        first = int(np.argmin(rest))
        phases, chis = np.full(len(taus), np.nan), np.full(len(taus), np.inf)
        phases[[first]], chis[[first]] = solve([p[[first]] for p in pieces])
        search = ~(rest > _tie_limit(chis[first]))
        search[first] = False
        if search.any():
            idx = np.flatnonzero(search)
            phases[idx], chis[idx] = solve([p[idx] for p in pieces])
        best = int(np.flatnonzero(chis <= _tie_limit(chis.min()))[0])
        tau = float(taus[best])
        starts.append(FitStart(tau, _wrap(float(phases[best]), phase_lo, periodic), float(chis[best]),
                               data.evaluations, True, f"best of {len(taus)} tau_d grid points"))
        # polish: safeguarded Newton from the best grid point, inside the
        # bracket of its neighbours, on lattice points of log10 tau_d
        lo, hi = z_grid[max(best - 1, 0)], z_grid[min(best + 1, len(taus) - 1)]
        k_lo, k_hi = int(np.ceil(lo / _Z_STEP)), int(np.floor(hi / _Z_STEP))
        # the pass's D and S are the screen's bit for bit, so its phase
        # stands; the pass itself is the binning's, kept for the next fit
        # whose best grid point is this one
        final = pt = fit_at(tau, True, binning.derivative_pass(tau), (phases[best], chis[best]))
        z, tried, slope_at = z_grid[best], {}, None

        def lattice(k, derivs=False):
            if k not in tried:
                tried[k] = fit_at(np.clip(10.0 ** (k * _Z_STEP), *bounds["tau_d"]), derivs)
            return tried[k]

        for _ in range(_NEWTON_STEPS if k_lo <= k_hi else 0):
            if slope_at is not pt:  # a rejected step moves only the bracket
                slope_at, (slope, curv) = pt, newton(pt)
            if slope > 0.0:
                hi = min(hi, z)
            elif slope < 0.0:
                lo = max(lo, z)
            target = z - slope / curv if curv > 0.0 else np.nan
            if not lo < target < hi:  # also when nan: bisect the bracket
                target = 0.5 * (lo + hi)
            k = min(max(round(target / _Z_STEP), k_lo), k_hi)
            if k in tried and tried[k] is not pt:  # a point already tried: bisect
                k = min(max(round(0.5 * (lo + hi) / _Z_STEP), k_lo), k_hi)
            if k in tried:  # converged on the current point, or nothing left to try
                break
            if lattice(k, True).chi < pt.chi:
                z, pt = k * _Z_STEP, tried[k]
            elif k * _Z_STEP > z:
                hi = k * _Z_STEP
            else:
                lo = k * _Z_STEP
        # the final point is chosen by comparing chi2 on the lattice only,
        # so data rescaled by a constant give the same tau_d bit for bit
        if tried:
            k0 = k = min(tried, key=lambda j: (tried[j].chi, j))
            for step in (-1, 1):
                while abs(k + step - k0) <= _WINDOW and k_lo <= k + step <= k_hi:
                    if not lattice(k + step).chi < tried[k].chi:
                        break
                    k += step
            if tried[k].chi < chis[best]:
                final = tried[k]
                tau = final.tau

        if final.cols.shape[1] < 6:  # the final pass made no derivative columns
            final = fit_at(tau, True)

    r = residuals(final)
    best_chi2 = float(np.dot(r, r))
    params = replace(base, n0=final.n0, tau_d=tau, phi0=_wrap(final.phase, phase_lo, periodic),
                     background=final.background)

    # Gauss-Newton covariance from the exact Jacobian columns
    jac = jacobian(final)
    jac = np.column_stack([jac[name] for name in free])
    try:
        # pseudo-inverse on unit-norm columns, so rank is judged free of units
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        js = jac / scale
        cov = np.linalg.pinv(js.T @ js, hermitian=True) / np.outer(scale, scale)
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = None

    # bound contact: every search here returns a bound exactly when it
    # ends there; an unbounded phase has none
    msgs = []
    for name in free:
        if name == "phi0" and periodic:
            continue
        lo, hi = bounds[name]
        v = getattr(params, name)
        if v == lo:
            msgs.append(f"{name} at lower bound {lo:g}")
        elif v == hi:
            msgs.append(f"{name} at upper bound {hi:g}")
    message = "; ".join(msgs) if msgs else "ok"

    dof = len(data.y) - len(free)
    return FitResult(params, best_chi2, dof, cov, bool(np.isfinite(best_chi2)), message, free,
                     data.evaluations, tuple(starts))
