from dataclasses import replace
from types import SimpleNamespace
import sys
import threading
import warnings

import numpy as np
import pytest

from mossbeat import (
    BeatParams,
    CountSeries,
    DomainError,
    FitConfig,
    RatioSeries,
    StructuralError,
    bin_expected_counts,
    chi2,
    fit_beat,
    normalize,
    simulate_counts,
)
from mossbeat import fitting
from mossbeat.beat import _BinModel

TRUE = BeatParams(n0=60.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0, background=0.0)


def _noiseless_series(params, edges):
    """Duck-typed count series carrying exact (float) expectations."""
    return SimpleNamespace(edges=np.asarray(edges, dtype=float), counts=bin_expected_counts(params, edges))


@pytest.fixture(scope="module")
def sim_series():
    gamma, _ = simulate_counts(TRUE, 5.0, 24.0, 14400.0, seed=101)
    return gamma


def test_chi2_hand_loop():
    s = CountSeries(
        channel="gamma",
        t_start=[0.0, 100.0, 200.0],
        width=[100.0, 100.0, 100.0],
        counts=[1200, 900, 850],
    )
    p = BeatParams(n0=3.0, tau_d=485.7, phi0=0.2)
    mu = bin_expected_counts(p, s.edges)
    expected = sum(
        (c - m) ** 2 / max(c, 1.0) for c, m in zip([1200.0, 900.0, 850.0], mu)
    )
    assert chi2(s, p) == pytest.approx(expected, rel=1e-12)


def test_chi2_rejects_empty():
    empty = SimpleNamespace(edges=np.array([0.0]), counts=np.array([]))
    with pytest.raises(StructuralError):
        chi2(empty, BeatParams())


_SHORT = CountSeries("gamma", [0.0, 24.0], [24.0, 24.0], [5, 7])


@pytest.mark.parametrize("series, free, message", [
    (_SHORT, ("n0", "tau_d", "phi0"), "series has 2 kept bins, fewer than its 3 free parameters"),
    (_SHORT, ("n0", "tau_d", "phi0", "background"), "series has 2 kept bins, fewer than its 4 free parameters"),
    (RatioSeries([0.0, 1.0, 2.0, 3.0], [1.0] * 4, [0.5, np.nan, 0.4, np.nan], [0.1, np.nan, 0.1, np.nan],
                 [True, False, True, False], [False] * 4),
     ("n0", "tau_d", "phi0"), "series has 2 kept bins, fewer than its 3 free parameters"),
    (RatioSeries([0.0, 1.0], [1.0, 1.0], [np.nan] * 2, [np.nan] * 2, [False] * 2, [False] * 2),
     ("n0", "tau_d", "phi0"), "series has no valid bins with positive sigma"),
], ids=["counts", "counts-background-free", "ratio-invalid-bins", "ratio-none-valid"])
def test_fit_rejects_fewer_kept_bins_than_free_parameters(series, free, message):
    # two bins and three free parameters used to return dof -1, converged
    # and a finite covariance; chi2 alone stays legal on a short series
    with pytest.raises(StructuralError, match=f"^{message}$"):
        fit_beat(series, FitConfig(free_params=free))
    if isinstance(series, CountSeries):
        assert chi2(series, BeatParams()) >= 0.0


@pytest.mark.filterwarnings("error")
def test_fit_rejects_bins_before_the_pump():
    # a first bin starting at -360 s gave two RuntimeWarnings and then a
    # message blaming tau_d = 0.001 s
    series = CountSeries("gamma", [-360.0, 0.0, 360.0], [360.0] * 3, [50, 40, 30])
    with pytest.raises(DomainError, match="^edges must be finite, nonnegative and strictly increasing$"):
        fit_beat(series, FitConfig())


def test_fit_noiseless_recovers_exactly():
    edges = np.linspace(0.0, 14400.0, 301)
    series = _noiseless_series(TRUE, edges)
    cfg = FitConfig(base=replace(TRUE, n0=10.0, tau_d=1000.0, phi0=0.0))
    out = fit_beat(series, cfg)
    assert out.converged
    assert out.chi2 <= 1e-8
    assert out.params.tau_d == pytest.approx(TRUE.tau_d, rel=1e-5)
    assert out.params.phi0 == pytest.approx(TRUE.phi0, abs=1e-4)
    assert out.params.n0 == pytest.approx(TRUE.n0, rel=1e-6)
    assert out.dof == 300 - 3


def test_fit_n0_only_matches_linear_solve():
    edges = np.linspace(0.0, 7200.0, 61)
    rng = np.random.default_rng(21)
    counts = rng.poisson(bin_expected_counts(TRUE, edges))
    series = SimpleNamespace(edges=edges, counts=counts.astype(float))
    cfg = FitConfig(free_params=("n0",), base=replace(TRUE, n0=1.0))
    out = fit_beat(series, cfg)
    # weighted linear least squares for the scale, done by hand
    unit = bin_expected_counts(replace(TRUE, n0=1.0), edges)
    w = 1.0 / np.maximum(counts, 1.0)
    expected = float((w * unit * counts).sum() / (w * unit * unit).sum())
    assert out.converged
    assert out.params.n0 == pytest.approx(expected, rel=1e-12)


def test_fit_scale_equivariance():
    edges = np.linspace(0.0, 14400.0, 301)
    series1 = _noiseless_series(TRUE, edges)
    series3 = SimpleNamespace(edges=edges, counts=3.0 * series1.counts)
    cfg = FitConfig(base=replace(TRUE, n0=5.0, tau_d=900.0, phi0=0.0))
    out1 = fit_beat(series1, cfg)
    out3 = fit_beat(series3, cfg)
    assert out3.params.tau_d == out1.params.tau_d
    assert out3.params.phi0 == out1.params.phi0
    assert out3.params.n0 == pytest.approx(3.0 * out1.params.n0, rel=1e-12)


def test_fit_recovers_from_poisson_data(sim_series):
    cfg = FitConfig(base=replace(TRUE, n0=10.0, tau_d=2000.0, phi0=0.0))
    out = fit_beat(sim_series, cfg)
    assert out.converged
    assert out.params.tau_d == pytest.approx(TRUE.tau_d, rel=0.05)
    delta_phi = abs(out.params.phi0 - TRUE.phi0) % np.pi
    assert min(delta_phi, np.pi - delta_phi) <= 0.1
    assert out.dof == len(sim_series) - 3
    # covariance sane: right shape, symmetric, nonnegative variances
    assert out.covariance is not None
    assert out.covariance.shape == (3, 3)
    assert np.allclose(out.covariance, out.covariance.T, atol=1e-20)
    assert np.all(np.diag(out.covariance) >= 0.0)


def test_fit_deterministic(sim_series):
    cfg = FitConfig(base=replace(TRUE, n0=10.0, tau_d=2000.0, phi0=0.0))
    a = fit_beat(sim_series, cfg)
    b = fit_beat(sim_series, cfg)
    assert a.params == b.params
    assert a.chi2 == b.chi2


def test_fit_ratio_series():
    gamma, kalpha = simulate_counts(TRUE, 2000.0, 24.0, 14400.0, seed=77)
    ratio = normalize(gamma, kalpha)
    cfg = FitConfig(base=replace(TRUE, n0=1.0, tau_d=800.0, phi0=0.0))
    out = fit_beat(ratio, cfg)
    assert out.converged
    assert out.params.tau_d == pytest.approx(TRUE.tau_d, rel=0.05)


def test_fit_beatless_data_reports_bound_contact():
    # pure exponential data cannot pin the beat: a fast beat averages to a
    # flat 1/2 and a slow one to 1, so tau_d drifts to a bound, which the
    # result message must disclose
    edges = np.linspace(0.0, 14400.0, 301)
    widths = np.diff(edges)
    flat = SimpleNamespace(
        edges=edges,
        counts=1.0e4 * np.exp(-edges[:-1] / TRUE.tau0) * widths / widths[0],
    )
    cfg = FitConfig(
        free_params=("n0", "tau_d"),
        bounds={"tau_d": (10.0, 1.0e7)},
        base=replace(TRUE, phi0=0.0),
    )
    out = fit_beat(flat, cfg)
    assert out.params.tau_d in (10.0, 1.0e7)
    assert "tau_d at lower bound" in out.message or "tau_d at upper bound" in out.message


def test_fit_respects_bounds(sim_series):
    lo, hi = 600.0, 700.0  # excludes the true 485.7
    cfg = FitConfig(
        bounds={"tau_d": (lo, hi)},
        base=replace(TRUE, n0=10.0, tau_d=650.0, phi0=0.0),
    )
    out = fit_beat(sim_series, cfg)
    assert lo - 1e-9 <= out.params.tau_d <= hi + 1e-9


def test_fit_config_validation():
    with pytest.raises(DomainError):
        FitConfig(free_params=())
    with pytest.raises(DomainError):
        FitConfig(free_params=("n0", "n0"))
    with pytest.raises(DomainError):
        FitConfig(free_params=("tau0",))
    with pytest.raises(DomainError):
        FitConfig(bounds={"tau_d": (5.0, 5.0)})
    with pytest.raises(DomainError):
        FitConfig(bounds={"mystery": (0.0, 1.0)})
    with pytest.raises(TypeError):
        FitConfig(phase_grid=8)
    with pytest.raises(TypeError):
        FitConfig(tolerance=0.0)


@pytest.mark.parametrize("bound, what", [
    ((1.0,), "a pair"), (5, "a pair"), ((1.0, 2.0, 3.0), "a pair"), (None, "a pair"),
    (("1", "9"), "real numbers"), ((False, True), "real numbers"), ((1.0, 2j), "real numbers"),
])
def test_fit_config_rejects_a_bound_that_is_not_a_real_pair(bound, what):
    # (1.0,) and 5 used to raise ValueError and TypeError while unpacking
    with pytest.raises(DomainError, match=f"^bounds for n0 must be {what}"):
        FitConfig(bounds={"n0": bound})
    assert FitConfig(bounds={"n0": [np.int64(1), np.float64(9.0)]}).bounds["n0"] == (1, 9.0)


@pytest.mark.parametrize("name, lo, free, domain", [
    ("n0", -5.0, ("n0", "tau_d", "phi0", "background"), "nonnegative"),
    ("background", -0.1, ("n0", "tau_d", "phi0", "background"), "nonnegative"),
    ("tau_d", 0.0, ("n0", "phi0"), "positive"),
])
def test_fit_config_rejects_lower_bound_outside_domain(name, lo, free, domain):
    # checked up front: a negative n0 or background bound used to pass and
    # fail only after the whole fit, when the result's BeatParams was built,
    # and a tau_d bound of 0 is rejected even with tau_d fixed
    with pytest.raises(DomainError, match=f"lower bound for {name} must be {domain}, got "):
        FitConfig(free_params=free, bounds={name: (lo, 10.0)})


def test_fit_free_background():
    p = replace(TRUE, background=0.02)
    gamma, _ = simulate_counts(p, 5.0, 24.0, 14400.0, seed=31)
    cfg = FitConfig(
        free_params=("n0", "tau_d", "phi0", "background"),
        base=replace(p, n0=10.0, tau_d=2000.0, phi0=0.0, background=0.0),
    )
    out = fit_beat(gamma, cfg)
    assert out.converged
    assert out.params.background == pytest.approx(0.02, rel=0.3)
    assert out.params.tau_d == pytest.approx(TRUE.tau_d, rel=0.05)
    assert out.dof == len(gamma) - 4


def test_fit_result_phi0_reported_mod_pi(sim_series):
    cfg = FitConfig(base=replace(TRUE, n0=10.0, tau_d=2000.0, phi0=0.0))
    out = fit_beat(sim_series, cfg)
    assert 0.0 <= out.params.phi0 < np.pi


def test_fit_covariance_matches_finite_difference_hessian():
    # on exact data the Gauss-Newton covariance equals 2 H^-1 of chi2
    edges = np.linspace(0.0, 14400.0, 301)
    series = _noiseless_series(TRUE, edges)
    out = fit_beat(series, FitConfig(base=replace(TRUE, n0=10.0, tau_d=1000.0, phi0=0.0)))
    names = out.free_names
    center = np.array([getattr(out.params, name) for name in names])
    steps = np.array([1e-4 if name == "phi0" else 1e-4 * v for name, v in zip(names, center)])

    def f(vec):
        return chi2(series, replace(out.params, **dict(zip(names, vec))))

    n = len(names)
    hess = np.empty((n, n))
    eye = np.diag(steps)
    for i in range(n):
        hess[i, i] = (f(center + eye[i]) - 2.0 * f(center) + f(center - eye[i])) / steps[i] ** 2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                f(center + eye[i] + eye[j]) + f(center - eye[i] - eye[j])
                - f(center + eye[i] - eye[j]) - f(center - eye[i] + eye[j])
            ) / (4.0 * steps[i] * steps[j])
    expected = np.sqrt(np.diag(2.0 * np.linalg.inv(hess)))
    assert np.sqrt(np.diag(out.covariance)) == pytest.approx(expected, rel=1e-5)


def test_fit_background_clipped_at_lower_bound():
    # counts a background rate of -0.002 /s would give: the unconstrained
    # best background is negative by construction, not by a lucky draw
    edges = np.linspace(0.0, 14400.0, 601)
    shifted = np.round(bin_expected_counts(TRUE, edges) - 0.002 * TRUE.t_pump * 24.0)
    series = CountSeries("gamma", edges[:-1], np.diff(edges), shifted)
    cfg = FitConfig(
        free_params=("n0", "tau_d", "phi0", "background"),
        base=replace(TRUE, n0=10.0, tau_d=2000.0, phi0=0.0),
    )
    out = fit_beat(series, cfg)
    assert out.params.background == 0.0
    assert "background at lower bound" in out.message
    # with the background pinned, n0 is the one-column weighted solve
    counts = np.asarray(series.counts, dtype=float)
    unit = bin_expected_counts(replace(out.params, n0=1.0), series.edges)
    w = 1.0 / np.maximum(counts, 1.0)
    expected = float((w * unit * counts).sum() / (w * unit * unit).sum())
    assert out.params.n0 == pytest.approx(expected, rel=1e-12)


def test_fit_records_evaluations_and_starts():
    true = replace(TRUE, n0=4.0)
    gamma, _ = simulate_counts(true, 1.0, 24.0, 14400.0, seed=1000)
    out = fit_beat(gamma, FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0)))
    assert out.converged
    assert out.evaluations <= 1000
    (screen,) = out.starts
    assert screen.evaluations == 61  # 4 grid points per decade over (1e-3, 1e12)
    assert screen.chi2 >= out.chi2
    assert abs(np.log10(screen.tau_d / out.params.tau_d)) <= 0.25
    assert all(s.converged for s in out.starts)
    # the polish and the covariance take evaluations beyond the screen
    assert sum(s.evaluations for s in out.starts) < out.evaluations


def test_fit_ratio_series_free_background():
    gamma, kalpha = simulate_counts(TRUE, 2000.0, 24.0, 14400.0, seed=77)
    cfg = FitConfig(
        free_params=("n0", "tau_d", "phi0", "background"),
        base=replace(TRUE, n0=1.0, tau_d=800.0, phi0=0.0),
    )
    out = fit_beat(normalize(gamma, kalpha), cfg)
    assert out.converged
    assert out.params.tau_d == pytest.approx(TRUE.tau_d, rel=0.05)


def test_fit_evaluation_budget():
    # criterion 11's seed 1000: the tau_d screen takes 61 panel passes,
    # the polish and the covariance the rest
    true = replace(TRUE, n0=4.0)
    gamma, kalpha = simulate_counts(true, 1.0, 24.0, 14400.0, seed=1000)
    cfg = FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    for series in (gamma, normalize(gamma, kalpha)):
        out = fit_beat(series, cfg)
        assert out.converged
        assert out.evaluations <= 300


def test_fit_pass_budget():
    # criterion 11's seed 1000: 61 screen passes, then at most 14 for the
    # Newton polish, the lattice comparison and the final point
    true = replace(TRUE, n0=4.0)
    gamma, kalpha = simulate_counts(true, 1.0, 24.0, 14400.0, seed=1000)
    cfg = FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    for series in (gamma, normalize(gamma, kalpha)):
        out = fit_beat(series, cfg)
        assert out.starts[0].evaluations == 61
        assert out.evaluations <= 75


@pytest.mark.parametrize("n0", [0.0, 0.01])
@pytest.mark.parametrize("free_background", [True, False])
def test_fit_weak_or_absent_beat_warns_nothing(n0, free_background):
    # n0 at or near 0 gives the polish zero or vanishing curvature in tau_d
    true = replace(TRUE, n0=n0, background=0.02)
    gamma, _ = simulate_counts(true, 1.0, 24.0, 14400.0, seed=41)
    free = ("n0", "tau_d", "phi0") + (("background",) if free_background else ())
    cfg = FitConfig(free_params=free, base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fit_beat(gamma, cfg)
    assert out.converged
    assert np.all(np.isfinite(out.covariance))


@pytest.mark.parametrize("true_tau_d", [60.0, 10000.0])
def test_fit_recovers_fast_and_slow_beats(true_tau_d):
    # criterion 11's settings away from its tau_d: a phase clamped at a
    # bound of (0, pi) used to stop the polish short of the basin
    true = replace(TRUE, n0=4.0, tau_d=true_tau_d)
    gamma, kalpha = simulate_counts(true, 1.0, 24.0, 14400.0, seed=1000)
    cfg = FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    for series in (gamma, normalize(gamma, kalpha)):
        out = fit_beat(series, cfg)
        assert out.converged
        assert out.params.tau_d == pytest.approx(true_tau_d, rel=0.05)
        delta_phi = abs(out.params.phi0 - true.phi0) % np.pi
        assert min(delta_phi, np.pi - delta_phi) <= 0.1


def _result_fields(out):
    """Every field of a FitResult, the covariance as its bytes."""
    cov = None if out.covariance is None else out.covariance.tobytes()
    return (out.params, out.chi2, out.dof, cov, out.converged, out.message, out.free_names,
            out.evaluations, out.starts)


@pytest.fixture
def cold_screen(monkeypatch):
    """Drops the kept binning for the test; returns a function that drops
    it again."""
    def clear():
        fitting._binning.cache_clear()

    clear()
    return clear


def _kept(series, base):
    """The kept binning when it is that of ``series`` and ``base``, else None
    (and that binning is kept from then on)."""
    hits = fitting._binning.cache_info().hits
    binning = fitting._binning(np.asarray(series.edges, dtype=float).tobytes(), base.tau0, base.t_pump)
    return binning if fitting._binning.cache_info().hits > hits else None


@pytest.fixture
def pass_counter(monkeypatch):
    """Counts panel passes made for phase columns (screen and polish)."""
    calls = [0]
    original = _BinModel.phase_columns

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_BinModel, "phase_columns", counted)
    return calls


def _criterion11_seed1000(kalpha_scale=1.0):
    true = replace(TRUE, n0=4.0)
    gamma, kalpha = simulate_counts(true, kalpha_scale, 24.0, 14400.0, seed=1000)
    return gamma, normalize(gamma, kalpha), FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))


def test_screen_cache_cold_warm_interleaved_identical(cold_screen):
    gamma, ratio, cfg = _criterion11_seed1000()
    other, _ = simulate_counts(replace(TRUE, n0=4.0), 1.0, 48.0, 14400.0, seed=1001)
    cold = {}
    for name, series in (("a", gamma), ("b", other), ("ratio", ratio)):
        cold_screen()
        cold[name] = _result_fields(fit_beat(series, cfg))
    cold_screen()
    # binning A cold, A warm, then B, A and A's ratio after the switch back
    for name in ("a", "a", "b", "a", "ratio"):
        series = {"a": gamma, "b": other, "ratio": ratio}[name]
        assert _result_fields(fit_beat(series, cfg)) == cold[name]


@pytest.mark.parametrize("change", [
    {"tau0": 4000.0},
    {"t_pump": 1800.0},
    {"bounds": {"tau_d": (1e-2, 1e12)}},
    {"bounds": {"tau_d": (1e-3, 1e11)}},
])
def test_screen_cache_misses_on_other_model_inputs(cold_screen, pass_counter, change):
    gamma, _, cfg = _criterion11_seed1000()
    fit_beat(gamma, cfg)
    base = replace(cfg.base, **{k: v for k, v in change.items() if k != "bounds"})
    other = FitConfig(bounds=change.get("bounds", {}), base=base)
    pass_counter[0] = 0
    warm_after_other = fit_beat(gamma, other)
    screen = warm_after_other.starts[0].evaluations
    assert pass_counter[0] >= screen  # every grid point took a panel pass
    cold_screen()
    assert _result_fields(warm_after_other) == _result_fields(fit_beat(gamma, other))


def test_screen_cache_is_read_only(cold_screen):
    gamma, _, cfg = _criterion11_seed1000()
    fit_beat(gamma, cfg)
    cols = _kept(gamma, cfg.base).screen(fitting._tau_grid(cfg.bounds["tau_d"])[1])
    assert cols.shape == (61, 2, len(gamma))
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0, 0] = 0.0


def test_screen_cache_ratio_with_invalid_bins_matches_cold_fit(cold_screen):
    gamma, ratio, cfg = _criterion11_seed1000(kalpha_scale=1e-4)
    assert 0 < np.count_nonzero(~ratio.valid) < len(ratio)  # premise: some bins invalid
    cold = _result_fields(fit_beat(ratio, cfg))
    cold_screen()
    fit_beat(gamma, cfg)  # fills the cache on the same edges with every bin kept
    assert _result_fields(fit_beat(ratio, cfg)) == cold
    assert cold[2] == np.count_nonzero(ratio.valid & (ratio.sigma > 0.0)) - 3  # dof over the kept bins


def test_screen_cache_pass_count(cold_screen, pass_counter):
    # criterion 11's seed 1000: the count fit screens cold, the ratio fit on
    # the same edges reuses the screen and makes only its polish passes
    gamma, ratio, cfg = _criterion11_seed1000()
    fit_beat(gamma, cfg)
    assert pass_counter[0] >= 61
    pass_counter[0] = 0
    out = fit_beat(ratio, cfg)
    assert pass_counter[0] <= 14
    assert out.starts[0].evaluations == 61  # cached screen points still count


def test_screen_cache_kept_across_phi0_only_fit(cold_screen, pass_counter):
    # a fit with tau_d fixed takes one pass and leaves the full screen's
    # binning kept for the next full fit on it
    gamma, _, cfg = _criterion11_seed1000()
    phi0_only = FitConfig(free_params=("n0", "phi0"), base=cfg.base)
    cold = {}
    for name, c in (("full", cfg), ("phi0", phi0_only)):
        cold_screen()
        cold[name] = _result_fields(fit_beat(gamma, c))
    cold_screen()
    passes = []
    for name in ("full", "full", "phi0", "full"):
        pass_counter[0] = 0
        out = fit_beat(gamma, cfg if name == "full" else phi0_only)
        passes.append(pass_counter[0])
        assert _result_fields(out) == cold[name]
    assert passes[2] == 1  # the one point, screened and final
    assert passes[3] <= 14


@pytest.fixture
def derivative_passes(monkeypatch):
    """The tau_d of each panel pass made with derivative columns, in order."""
    taus = []
    original = _BinModel.phase_columns

    def counted(self, tau_d, derivs=False):
        if derivs:
            taus.append(tau_d)
        return original(self, tau_d, derivs)

    monkeypatch.setattr(_BinModel, "phase_columns", counted)
    return taus


@pytest.fixture
def models_built(monkeypatch):
    """Counts the binned models the fit builds."""
    built = [0]

    class Counted(_BinModel):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fitting, "_BinModel", Counted)
    return built


def test_slot_keeps_the_binning_of_the_last_fit(cold_screen, models_built):
    # every fit, with tau_d free or fixed (n0 and phi0, or phi0 alone),
    # leaves its binning kept, and only a fit on a binning other than the
    # kept one builds a model
    gamma, _, cfg = _criterion11_seed1000()
    other, _ = simulate_counts(replace(TRUE, n0=4.0), 1.0, 48.0, 14400.0, seed=1001)
    fixed = FitConfig(free_params=("n0", "phi0"), base=cfg.base)
    phi0_only = FitConfig(free_params=("phi0",), base=replace(cfg.base, n0=4.0))
    runs = [(gamma, cfg), (other, fixed), (gamma, phi0_only), (other, cfg), (other, cfg), (gamma, fixed),
            (gamma, phi0_only)]
    built = []
    for series, c in runs:
        models_built[0] = 0
        fit_beat(series, c)
        built.append(models_built[0])
        assert _kept(series, c.base) is not None
    assert built == [1, 1, 1, 1, 0, 1, 0]


def test_slot_second_fit_makes_one_derivative_pass_fewer(cold_screen, derivative_passes, models_built):
    gamma, ratio, cfg = _criterion11_seed1000()
    for series in (gamma, ratio):
        cold_screen()
        derivative_passes.clear()
        cold = fit_beat(series, cfg)
        cold_passes = list(derivative_passes)
        derivative_passes.clear()
        models_built[0] = 0
        warm = fit_beat(series, cfg)
        assert _result_fields(warm) == _result_fields(cold)
        # the pass at the best grid tau_d is the kept binning's
        assert cold_passes[0] == warm.starts[0].tau_d
        assert derivative_passes == cold_passes[1:]
        assert models_built[0] == 0
        assert warm.evaluations == cold.evaluations  # a kept pass still counts


def test_slot_holds_one_derivative_pass(cold_screen):
    # data whose best grid tau_d differ, on one binning: each fit's pass
    # replaces the one before, and every fit equals its cold fit
    cfg = _criterion11_seed1000()[2]
    series = [simulate_counts(replace(TRUE, n0=4.0, tau_d=tau_d), 1.0, 24.0, 14400.0, seed=1000)[0]
              for tau_d in (485.7, 30.0, 485.7)]
    cold = []
    for gamma in series:
        cold_screen()
        cold.append(_result_fields(fit_beat(gamma, cfg)))
    grid_points = []
    for gamma, ref in zip(series, cold):
        out = fit_beat(gamma, cfg)
        assert _result_fields(out) == ref
        grid_points.append(out.starts[0].tau_d)
        tau, deriv = _kept(gamma, cfg.base)._deriv
        assert tau == grid_points[-1]
        assert deriv.shape == (4, len(gamma)) and not deriv.flags.writeable
    assert grid_points[0] != grid_points[1]  # premise: the pass was replaced


def test_fit_keeps_its_binning_when_another_fit_runs_mid_fit(cold_screen, monkeypatch):
    # a full fit on another binning (t_pump 1800 s) runs between this fit's
    # screen and its polish and replaces the kept binning; this fit must
    # still polish on its own binning's derivative pass.  Taking the other
    # binning's pass stopped it on its grid point with chi2 1335.5, not 609.1
    true = replace(TRUE, n0=4.0, tau_d=1e6)
    gamma, _ = simulate_counts(true, 1.0, 24.0, 14400.0, seed=105)
    cfg = FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    other_true = replace(TRUE, n0=4.0, t_pump=1800.0)
    other, _ = simulate_counts(other_true, 1.0, 24.0, 14400.0, seed=1001)
    other_cfg = FitConfig(base=replace(other_true, n0=1.0, tau_d=2000.0, phi0=0.0))
    clean = _result_fields(fit_beat(gamma, cfg))
    cold_screen()
    original, calls = fitting._qr_pieces, [0]

    def interrupted(cols, y):
        calls[0] += 1
        if calls[0] == 1:
            fit_beat(other, other_cfg)
        return original(cols, y)

    monkeypatch.setattr(fitting, "_qr_pieces", interrupted)
    assert _result_fields(fit_beat(gamma, cfg)) == clean
    assert _kept(other, other_cfg.base) is not None  # premise: the other fit replaced the kept binning


def test_fits_in_threads_equal_serial_fits(cold_screen):
    # three threads, each fitting on its own binning, replace the kept
    # binning under one another; every fit must still equal its serial fit
    cases = []
    for t_pump, width in ((3600.0, 24.0), (1800.0, 24.0), (3600.0, 48.0)):
        true = replace(TRUE, n0=4.0, t_pump=t_pump)
        gamma, kalpha = simulate_counts(true, 1.0, width, 14400.0, seed=1000)
        cfg = FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
        cases.append([(series, cfg) for series in (gamma, normalize(gamma, kalpha))])
    serial = [[_result_fields(fit_beat(*fit)) for fit in case] for case in cases]
    results = [[] for _ in cases]

    def run(i):
        for _ in range(2):
            results[i] += [_result_fields(fit_beat(*fit)) for fit in cases[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [ref * 2 for ref in serial]


def test_stacked_columns_equal_columns_one_point_at_a_time():
    # the screen weights its points in stacks; each point's columns are the
    # ones a stack of that point alone gives, and the definition's, bit for
    # bit: with the derivative columns and invalid ratio bins too
    gamma, ratio, _ = _criterion11_seed1000(kalpha_scale=1e-4)
    assert not ratio.valid.all()  # premise: some bins are dropped
    taus = fitting._tau_grid((10.0, 1e4))[1]
    for series in (gamma, ratio):
        for derivs in (False, True):
            data = fitting._WeightedSeries(series, TRUE.tau0, TRUE.t_pump)
            model = _BinModel(data.edges, TRUE.tau0, TRUE.t_pump)
            phase = np.array([model.phase_columns(float(t), derivs) for t in taus])
            stacked = data.columns(phase)
            assert stacked.shape == (len(taus), len(data.y), 6 if derivs else 4)
            for i, cols in enumerate(stacked):
                weighted = [c[data.keep] / data.denom / data.sig for c in phase[i]]
                ref = np.column_stack([data.half_k, *weighted[:2], data.background, *weighted[2:]])
                assert np.array_equal(cols, ref)
                assert np.array_equal(cols, data.columns(phase[i:i + 1])[0])
            assert data.evaluations == 2 * len(taus)


def test_criterion11_seed1000_evaluations_cold_and_warm(cold_screen):
    gamma, _, cfg = _criterion11_seed1000()
    for _ in range(2):
        assert fit_beat(gamma, cfg).evaluations == 67


def test_polish_bisects_when_a_step_returns_to_a_rejected_point():
    # criterion 11's ratio data of seed 100, fitted with n0 held at 1: the
    # first Newton step from the grid point tau_d = 1000 s is rejected, and
    # the next target rounds to that rejected point again.  The polish must
    # bisect the bracket then, not stop on the grid point; tau_d = 1113.6 s
    # lies inside the bracket and fits better.
    true = replace(TRUE, n0=4.0)
    gamma, kalpha = simulate_counts(true, 1.0, 24.0, 14400.0, seed=100)
    ratio = normalize(gamma, kalpha)
    base = replace(true, n0=1.0, tau_d=2000.0, phi0=0.0)
    out = fit_beat(ratio, FitConfig(free_params=("tau_d", "phi0", "background"), base=base))
    inside = fit_beat(ratio, FitConfig(free_params=("phi0", "background"), base=replace(base, tau_d=1113.6)))
    assert out.starts[0].tau_d == 1000.0
    assert out.params.tau_d != 1000.0
    assert out.chi2 <= inside.chi2 < out.starts[0].chi2
    assert out.evaluations <= 75


def test_polish_keeps_the_slope_across_a_rejected_step(monkeypatch):
    # the case above: a rejected Newton step moves only the bracket, so the
    # polish takes the slope and curvature at the point it stays on again
    # rather than projecting its tau_d column anew (one least-squares call
    # per point it moves to)
    true = replace(TRUE, n0=4.0)
    gamma, kalpha = simulate_counts(true, 1.0, 24.0, 14400.0, seed=100)
    cfg = FitConfig(free_params=("tau_d", "phi0", "background"),
                    base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    calls = [0]
    original = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    out = fit_beat(normalize(gamma, kalpha), cfg)
    assert out.params.tau_d != 1000.0  # premise: the polish moved off the grid point
    assert calls[0] == 4


def _beatless_free_background():
    true = replace(TRUE, n0=0.0, background=0.02)
    gamma, _ = simulate_counts(true, 1.0, 24.0, 14400.0, seed=41)
    cfg = FitConfig(free_params=("n0", "tau_d", "phi0", "background"),
                    base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0))
    return gamma, cfg


def _screen_oracle_cases():
    gamma, ratio, cfg = _criterion11_seed1000()
    beatless, beatless_cfg = _beatless_free_background()
    narrow = FitConfig(bounds={"phi0": (0.1, 1.0)}, base=cfg.base)
    return {"counts": (gamma, cfg), "ratio": (ratio, cfg), "beatless": (beatless, beatless_cfg),
            "narrow_phi0": (gamma, narrow)}


@pytest.mark.parametrize("case", ["counts", "ratio", "beatless", "narrow_phi0"])
def test_screen_skip_matches_per_point_oracle(case):
    # every grid tau_d fitted on its own, with tau_d fixed, gives its exact
    # profile chi2; the screen, which skips points by their rest, must pick
    # the first grid tau_d within the tie rule of the least of them
    series, cfg = _screen_oracle_cases()[case]
    _, taus = fitting._tau_grid(cfg.bounds["tau_d"])
    fixed = tuple(name for name in cfg.free_params if name != "tau_d")
    chis = np.array([
        fit_beat(series, FitConfig(free_params=fixed, bounds=cfg.bounds,
                                   base=replace(cfg.base, tau_d=float(tau)))).starts[0].chi2
        for tau in taus
    ])
    best = int(np.flatnonzero(chis <= chis.min() + 1e-9 * (1.0 + abs(chis.min())))[0])
    (screen,) = fit_beat(series, cfg).starts
    assert screen.tau_d == taus[best]
    assert screen.chi2 == chis[best]


@pytest.fixture
def phase_rows(monkeypatch):
    """Rows (tau_d points) given to each ``_best_phase`` call, in order."""
    rows = []
    original = fitting._best_phase

    def counted(pieces, *args):
        rows.append(len(pieces[2]))
        return original(pieces, *args)

    monkeypatch.setattr(fitting, "_best_phase", counted)
    return rows


def test_screen_phase_search_budget(phase_rows):
    # criterion 11's seed 1000: the least-rest point bounds the screen, so
    # only it is phase-searched there; the polish searches its own points
    gamma, _, cfg = _criterion11_seed1000()
    fit_beat(gamma, cfg)
    assert phase_rows[:2] == [1, 1]
    assert sum(phase_rows) <= 20
    # beatless data bound nothing: the least-rest point, then the other 60
    phase_rows.clear()
    fit_beat(*_beatless_free_background())
    assert phase_rows[:2] == [1, 60]


def test_best_phase_rows_independent_of_stacking():
    # the premise of a bit-identical skip: each row of one stacked
    # _qr_pieces call (R, Q^T y, rest) is that row's pieces computed alone,
    # and a phase search over the stacked rows gives each row what a search
    # over it alone gives
    gamma, _, cfg = _criterion11_seed1000()
    data = fitting._WeightedSeries(gamma, cfg.base.tau0, cfg.base.t_pump)
    model = _BinModel(data.edges, cfg.base.tau0, cfg.base.t_pump)
    cols = data.columns(np.array([model.phase_columns(tau, True) for tau in (30.0, 485.7, 1e6)]))
    pieces = fitting._qr_pieces(cols, data.y)
    alone = [fitting._qr_pieces(cols[i:i + 1], data.y) for i in range(len(cols))]
    for i, one in enumerate(alone):
        for stacked, row, plain in zip(pieces, one, fitting._qr_pieces(cols[i], data.y)):
            assert np.array_equal(stacked[i], row[0])
            assert np.array_equal(stacked[i], plain)
    coef = (3.7, 0.3)
    for lin in ([], [0], [1], [0, 1]):
        lo, hi = np.array([[0.0, 0.0], [1e12, 1e9]])[:, lin]
        for bounds in ((0.0, np.pi, True), (0.1, 1.0, False)):
            phases, values = fitting._best_phase(pieces, lin, coef, lo, hi, *bounds)
            for i, one in enumerate(alone):
                row = fitting._best_phase(one, lin, coef, lo, hi, *bounds)
                assert (row[0][0], row[1][0]) == (phases[i], values[i])


@pytest.mark.parametrize("case", ["counts", "beatless", "narrow_phi0", "bounds_active"])
def test_best_phase_not_beaten_by_a_dense_scan(case):
    # at every screen grid point, a scan of the exact profile every 1e-4 rad
    # over the phase window finds no chi2 below the closed-form phase's by
    # more than the tie margin.  The slow-beat points (tau_d of 5e9 s and
    # more) have basins about 1e-5 rad wide; roots from the phase's Fourier
    # coefficients, which are not small where the model column is, missed
    # them by up to 10 % in chi2.  "bounds_active" holds n0 in [1, 2] and
    # the background in [0.01, 0.015] on beatless data with background 0.02,
    # so that the held pieces of the profile hold
    cases = _screen_oracle_cases()
    series, cfg = cases["beatless" if case == "bounds_active" else case]
    if case == "bounds_active":
        cfg = replace(cfg, bounds={"n0": (1.0, 2.0), "background": (0.01, 0.015)})
    data = fitting._WeightedSeries(series, cfg.base.tau0, cfg.base.t_pump)
    model = _BinModel(data.edges, cfg.base.tau0, cfg.base.t_pump)
    _, taus = fitting._tau_grid(cfg.bounds["tau_d"])
    pieces = fitting._qr_pieces(data.columns(np.array([model.phase_columns(float(tau)) for tau in taus])), data.y)
    lin = [i for i, name in enumerate(fitting._LINEAR) if name in cfg.free_params]
    lo, hi = np.array([cfg.bounds[fitting._LINEAR[i]] for i in lin]).reshape(-1, 2).T
    coef = (cfg.base.n0, cfg.base.background)
    phase_lo, phase_hi = cfg.bounds["phi0"]
    periodic = phase_hi - phase_lo >= np.pi
    _, chis = fitting._best_phase(pieces, lin, coef, lo, hi, phase_lo, phase_hi, periodic)
    scan = phase_lo + 1e-4 * np.arange(int((np.pi if periodic else phase_hi - phase_lo) / 1e-4) + 1)
    profile = fitting._phase_profile(pieces, lin, coef, lo, hi)
    least = np.min([profile(np.broadcast_to(part, (len(taus), len(part)))).min(axis=1)
                    for part in np.array_split(scan, len(scan) // 2000)], axis=0)
    assert np.all(chis - least <= 1e-9 * (1.0 + np.abs(chis)))


def test_beatless_fit_reaches_the_narrow_basin():
    # the earlier search compared 64 phases 0.049 rad apart first and missed
    # a slow-beat basin about 1e-5 rad wide: it returned chi2 580.6219465 at
    # tau_d 1.86e6 s, where a fixed-phi0 fit at 5.62e7 s gives 580.6203237
    out = fit_beat(*_beatless_free_background())
    assert out.chi2 <= 580.62033


def test_screen_skip_keeps_a_point_within_the_bound(monkeypatch):
    # the screen skips a point only when its rest is above the tie limit of
    # the first searched chi2 (100 here); a point whose rest, and chi2, is
    # 5e-5 below that chi2 must still be searched, and it wins.  The QR
    # pieces and the phase profile are stood in for: the stacked pieces of a
    # point carry its chi2 (in Q^T y) and its rest, in grid order, and the
    # polish's points all lose.
    gamma, _, cfg = _criterion11_seed1000()
    _, taus = fitting._tau_grid(cfg.bounds["tau_d"])
    first, other = 10, 40
    chis, rests = np.full(len(taus), 200.0), np.full(len(taus), 200.0)
    chis[first], rests[first] = 100.0, 50.0
    chis[other] = rests[other] = 100.0 - 5e-5
    chis, rests = np.append(chis, 1e9), np.append(rests, 1e9)
    points = [0]

    def fake_pieces(cols, y):
        i = np.minimum(points[0] + np.arange(len(cols)), len(taus))
        points[0] += len(cols)
        return np.zeros((len(cols), 4, 4)), np.repeat(chis[i, None], 4, axis=1), rests[i]

    def fake_profile(pieces, lin, coef, lo, hi):
        scores = pieces[1][:, 0]
        return lambda phases: scores[:, None] + 0.0 * phases

    monkeypatch.setattr(fitting, "_qr_pieces", fake_pieces)
    monkeypatch.setattr(fitting, "_phase_profile", fake_profile)
    (screen,) = fit_beat(gamma, cfg).starts
    assert (screen.tau_d, screen.chi2) == (taus[other], chis[other])


@pytest.mark.parametrize("lin", [[], [0], [1], [0, 1]], ids=["none", "n0", "background", "both"])
@pytest.mark.parametrize("background", [0.0, 0.3])
def test_phase_profile_matches_bounded_lstsq(lin, background):
    # the profile solves n0 and background in the 4-d basis of the QR
    # pieces; it must give the chi2 of _bounded_lstsq's solve over every
    # bin of the model columns, stacked rows and a slow beat included
    gamma, _, cfg = _criterion11_seed1000()
    data = fitting._WeightedSeries(gamma, cfg.base.tau0, cfg.base.t_pump)
    model = _BinModel(data.edges, cfg.base.tau0, cfg.base.t_pump)
    cols = data.columns(np.array([model.phase_columns(tau) for tau in (30.0, 485.7, 1e6)]))
    coef = (3.7, background)
    lo, hi = np.array([[0.0, 0.0], [1e12, 1e9]])[:, lin]
    phases = np.linspace(0.0, np.pi, 64) + np.array([[0.0], [0.01], [0.02]])
    c, s = np.cos(2.0 * phases)[..., None], np.sin(2.0 * phases)[..., None]
    unit = cols[:, None, :, 0] + c * cols[:, None, :, 1] - s * cols[:, None, :, 2]
    ref = fitting._bounded_lstsq(unit, cols[:, None, :, 3], data.y, lin, coef, lo, hi)[2]
    got = fitting._phase_profile(fitting._qr_pieces(cols, data.y), lin, coef, lo, hi)(phases)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def _synthetic_polish(chi, newton, k_start, half_width):
    """Runs the polish on ``chi(k)`` from lattice point ``k_start`` inside
    the bracket k_start +- half_width; returns its result and every k it
    probed, in order."""
    probed = []

    def probe(k, derivs):
        probed.append(k)
        return SimpleNamespace(k=k, chi=chi(k))

    z = k_start * fitting._Z_STEP
    start = SimpleNamespace(k=k_start, chi=chi(k_start))
    step = half_width * fitting._Z_STEP
    return fitting._polish(probe, newton, start, z, z - step, z + step), probed


def test_polish_reaches_the_lattice_minimum_inside_its_bracket():
    # chi = u^2 + u^4 for u = (z - z_min) / w with z_min 0.3 lattice steps
    # above k_min, so k_min is the lattice minimum; with exact derivatives
    # the steps end on it, probe each k once and stay in the bracket
    zs, w, k_min = fitting._Z_STEP, 1e-3, 3 * 2**28 + 12345
    z_min = (k_min + 0.3) * zs

    def u(z):
        return (z - z_min) / w

    def chi(k):
        return u(k * zs) ** 2 + u(k * zs) ** 4

    def newton(pt):
        x = u(pt.k * zs)
        return (2.0 * x + 4.0 * x**3) / w, (2.0 + 12.0 * x**2) / w**2

    assert chi(k_min) < min(chi(k_min - 1), chi(k_min + 1))  # premise
    start = k_min + round(0.8 * w / zs)
    best, probed = _synthetic_polish(chi, newton, start, 2**20)
    assert best.k == k_min
    assert len(set(probed)) == len(probed)
    assert all(abs(k - start) <= 2**20 for k in probed)
    # the minimum beyond the bracket: the polish stays inside it, and with
    # 8 steps to the edge it ends there
    for half_width in (2**10, 8):
        best, probed = _synthetic_polish(chi, newton, start, half_width)
        assert probed and all(abs(k - start) <= half_width for k in probed)
        assert len(set(probed)) == len(probed)
        assert best.chi == min(chi(k) for k in [start, *probed])
    assert best.k == start - 8


def test_polish_breaks_a_tie_toward_the_lower_k():
    # two lattice points of equal chi2: the steps reach k = 10 first and
    # then try k = 6, which does not lower chi2; the polish returns k = 6
    zs = fitting._Z_STEP

    def chi(k):
        return {20: 5.0, 6: 0.0, 10: 0.0}.get(k, 1.0)

    def newton(pt):
        return {20: 10.0 * zs, 10: 4.0 * zs}[pt.k], 1.0

    best, probed = _synthetic_polish(chi, newton, 20, 20)
    assert probed[:2] == [10, 6]
    assert best.k == 6


@pytest.mark.parametrize("free_params, bounds", [
    (("n0", "tau_d", "phi0"), {}),
    (("tau_d", "phi0", "background"), {"phi0": (0.1, 1.0)}),
    (("n0", "tau_d", "background"), {}),
], ids=["default", "background-narrow-phi0", "phi0-held"])
@pytest.mark.parametrize("kind", ["counts", "ratio"])
def test_profile_step_on_a_stack_equals_each_point_alone(free_params, bounds, kind):
    # the profile step solves each point of a stack on its own: a point's
    # chi2, phase, n0, background and columns are bit for bit those of a
    # stack of that point alone, also with the phase given
    gamma, ratio, cfg = _criterion11_seed1000()
    cfg = FitConfig(free_params=free_params, bounds=bounds, base=replace(cfg.base, background=0.3))
    series = gamma if kind == "counts" else ratio
    data = fitting._WeightedSeries(series, cfg.base.tau0, cfg.base.t_pump)
    model = _BinModel(data.edges, cfg.base.tau0, cfg.base.t_pump)
    taus = [30.0, 485.7, 1e6]
    unweighted = np.array([model.phase_columns(tau, True) for tau in taus])
    inner = fitting._Inner(cfg)
    stacked = fitting._profile(data, unweighted, taus, inner)
    known = np.array([pt.phase for pt in stacked]), np.array([pt.chi for pt in stacked])
    given = fitting._profile(data, unweighted, taus, inner, known)
    for i, tau in enumerate(taus):
        (alone,) = fitting._profile(data, unweighted[i:i + 1], [tau], inner)
        for pt in (stacked[i], given[i]):
            assert (pt.tau, pt.chi, pt.phase, pt.n0, pt.background) == \
                (alone.tau, alone.chi, alone.phase, alone.n0, alone.background)
            assert np.array_equal(pt.cols, alone.cols) and np.array_equal(pt.unit, alone.unit)
