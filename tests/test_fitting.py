from dataclasses import replace
from types import SimpleNamespace
import warnings

import numpy as np
import pytest

from mossbeat import (
    BeatParams,
    CountSeries,
    DomainError,
    FitConfig,
    StructuralError,
    bin_expected_counts,
    chi2,
    fit_beat,
    normalize,
    simulate_counts,
)

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
