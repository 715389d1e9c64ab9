import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from mossbeat import (
    BeatParams,
    DisplacementEnsemble,
    DomainError,
    accumulated_intensity,
    beat_curve,
    beat_minima,
    bessel_j0,
    bessel_j0_asymptotic,
    bin_expected_counts,
    count_rate,
    flm_coherent_mc,
    flm_incoherent_mc,
    kalpha_bin_expected,
    normalize,
    read_ratio_series,
    simulate_counts,
    tau_d,
    write_ratio_series,
)
from mossbeat import beat, csvio
from mossbeat.beat import (
    _MIN_ORDER,
    _ORDER_LIMITS,
    _BinModel,
    _decay_caps,
    _gauss_legendre,
    _panel_counts,
    _panel_orders,
)


def j0_integral_oracle(x):
    """(1/pi) * integral of cos(x sin(phi)) over [0, pi], Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    phi = 0.5 * np.pi * (nodes + 1.0)
    w = 0.5 * np.pi * weights
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return (np.cos(np.outer(x, np.sin(phi))) @ w) / np.pi


# ---------------------------------------------------------------- bessel


def test_j0_against_integral_oracle():
    x = np.linspace(0.0, 50.0, 1201)
    got = np.array([bessel_j0(v) for v in x])
    assert np.max(np.abs(got - j0_integral_oracle(x))) <= 1e-10


def test_j0_known_values():
    assert bessel_j0(0.0) == 1.0
    # first zero of J0, truncated from tables
    assert bessel_j0(2.404825557695773) == pytest.approx(0.0, abs=1e-14)
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, rel=1e-13)


def test_j0_even_and_branch_continuity():
    assert bessel_j0(-3.7) == bessel_j0(3.7)
    # rational and asymptotic branches meet at x = 5
    below = bessel_j0(5.0 - 1e-12)
    above = bessel_j0(5.0 + 1e-12)
    assert abs(below - above) <= 1e-10


def test_j0_accepts_arrays():
    x = np.array([0.1, 1.0, 10.0])
    got = bessel_j0(x)
    assert got.shape == (3,)
    assert np.allclose(got, [bessel_j0(v) for v in x], rtol=1e-15)


def test_j0_asymptotic_accuracy():
    ref5 = j0_integral_oracle(5.0)[0]
    rel5 = abs(bessel_j0_asymptotic(5.0) - ref5) / abs(ref5)
    assert rel5 < 0.05
    # beyond x = 20, better than 1% wherever J0 is not near a zero
    x = np.linspace(20.0, 50.0, 601)
    ref = j0_integral_oracle(x)
    envelope = np.sqrt(2.0 / (np.pi * x))
    mask = np.abs(ref) >= 0.6 * envelope
    assert mask.sum() > 100
    got = np.array([bessel_j0_asymptotic(v) for v in x])
    assert np.max(np.abs(got[mask] - ref[mask]) / np.abs(ref[mask])) < 0.01


def test_j0_asymptotic_domain():
    with pytest.raises(DomainError):
        bessel_j0_asymptotic(0.0)
    with pytest.raises(DomainError):
        bessel_j0_asymptotic(-2.0)


# ---------------------------------------------------------------- params


def test_tau_d_value():
    # tau0 / (f_lm * mu_n * xi) with the thickness figures spelled out
    got = tau_d(4857.0, 0.5, 1.0 / 22e-6, 50e-6)
    assert got == pytest.approx(4857.0 * 22.0 / 25.0, rel=1e-12)
    assert got / 4857.0 == pytest.approx(0.88, rel=1e-12)


def test_tau_d_rejects_nonpositive():
    for args in ((0.0, 0.5, 1.0, 1.0), (1.0, -0.5, 1.0, 1.0), (1.0, 0.5, 0.0, 1.0)):
        with pytest.raises(DomainError):
            tau_d(*args)


def test_beat_params_validation():
    with pytest.raises(DomainError):
        BeatParams(tau0=-1.0)
    with pytest.raises(DomainError):
        BeatParams(tau_d=0.0)
    with pytest.raises(DomainError):
        BeatParams(n0=-1.0)
    with pytest.raises(DomainError):
        BeatParams(background=-0.1)
    with pytest.raises(DomainError):
        BeatParams(phi0=np.inf)
    BeatParams(n0=0.0, background=0.0)  # zero amplitude is expressible


# ------------------------------------------------------------- count_rate


def test_count_rate_formula():
    p = BeatParams(n0=2.5, tau0=4857.0, tau_d=485.7, phi0=0.3, background=0.01)
    for t in (0.0, 17.0, 900.0, 12345.6):
        expected = 2.5 * math.exp(-t / 4857.0) * math.cos(math.sqrt(t / 485.7) + 0.3) ** 2 + 0.01
        assert count_rate(t, p) == pytest.approx(expected, rel=1e-14)


def test_count_rate_j0sq_kernel():
    p = BeatParams(n0=1.5, tau0=4857.0, tau_d=485.7, background=0.0)
    for t in (0.0, 50.0, 2000.0):
        expected = 1.5 * math.exp(-t / 4857.0) * j0_integral_oracle(math.sqrt(t / 485.7))[0] ** 2
        assert count_rate(t, p, kernel="j0sq") == pytest.approx(expected, rel=1e-9)


def test_count_rate_input_checks():
    p = BeatParams()
    with pytest.raises(DomainError):
        count_rate(-1.0, p)
    with pytest.raises(DomainError):
        count_rate(np.nan, p)
    with pytest.raises(DomainError):
        count_rate(1.0, p, kernel="sinc")
    arr = count_rate(np.array([0.0, 1.0, 2.0]), p)
    assert arr.shape == (3,)


# ---------------------------------------------------- accumulated_intensity


def _rate_oracle(tau, p, kernel="cos2"):
    """Rate written out independently, vectorized."""
    if kernel == "cos2":
        mod = np.cos(np.sqrt(tau / p.tau_d) + p.phi0) ** 2
    else:
        mod = j0_integral_oracle(np.sqrt(tau / p.tau_d)) ** 2
    return p.n0 * np.exp(-tau / p.tau0) * mod + p.background


def _midpoint_accumulated(p, t, n=200000, kernel="cos2"):
    h = p.t_pump / n
    tau = t + (np.arange(n) + 0.5) * h
    return float(_rate_oracle(tau, p, kernel).sum() * h)


def test_accumulated_intensity_against_midpoint():
    p = BeatParams(n0=3.0, tau0=4857.0, tau_d=500.0, phi0=0.4, t_pump=3600.0, background=0.002)
    for t in (0.0, 250.0, 4000.0, 20000.0):
        got = accumulated_intensity(t, p)
        assert got == pytest.approx(_midpoint_accumulated(p, t), rel=2e-8)


def test_accumulated_intensity_j0sq_against_midpoint():
    p = BeatParams(n0=1.0, tau0=4857.0, tau_d=500.0, t_pump=1800.0)
    got = accumulated_intensity(700.0, p, kernel="j0sq")
    assert got == pytest.approx(_midpoint_accumulated(p, 700.0, kernel="j0sq"), rel=1e-7)


def test_accumulated_intensity_background_only():
    p = BeatParams(n0=0.0, background=0.25, t_pump=100.0)
    assert accumulated_intensity(5.0, p) == pytest.approx(25.0, rel=1e-12)


def test_accumulated_intensity_input_checks():
    p = BeatParams()
    with pytest.raises(DomainError):
        accumulated_intensity(-1.0, p)


@pytest.mark.parametrize("tau_d", [1e-300, 1e-40])
def test_tiny_tau_d_raises_rather_than_overflowing_the_panel_count(tau_d):
    # a panel count of 2^63 or more does not fit an integer: the cast used
    # to overflow with only a RuntimeWarning and integrate with one panel
    # (899.3 at tau_d = 1e-300 against the fast-beat limit 1034.7)
    p = BeatParams(n0=1.0, tau_d=tau_d)
    with pytest.raises(DomainError, match="tau_d"):
        accumulated_intensity(1000.0, p)
    with pytest.raises(DomainError, match="tau_d"):
        bin_expected_counts(p, [0.0, 24.0, 48.0])


def test_accumulated_intensity_decay_cap_late_times():
    # tau0 << tau_d long after t = 0: the decay length in u = sqrt(tau)
    # shrinks as tau0 / (2u), so a fixed cap of sqrt(tau0) lets one panel
    # span many decay lengths.  The oracle is quad split every tau0 / 4 over
    # the first 100 tau0 of the window; the rest weighs below e^-100.
    p = BeatParams(n0=1.0, tau0=10.0, tau_d=1e8, phi0=0.3, t_pump=3600.0)
    for t in (3000.0, 6000.0):
        knots = np.linspace(t, t + 100.0 * p.tau0, 401)
        ref = sum(
            scipy.integrate.quad(lambda tau: _rate_oracle(tau, p), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
            for lo, hi in zip(knots[:-1], knots[1:])
        )
        assert accumulated_intensity(t, p) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_accumulated_intensity_short_lifetime_long_beat():
    # tau0 << tau_d: the whole signal sits in the first few tau0, so a
    # panel capped only at a quarter beat period would span all of it
    # (oracle error 1.4e-7)
    p = BeatParams(n0=1.0, tau0=10.0, tau_d=1e8, phi0=0.3, t_pump=3600.0)
    got = accumulated_intensity(0.0, p)
    assert got == pytest.approx(_midpoint_accumulated(p, 0.0), rel=1e-6)


# --------------------------------------------------------------- beat_curve


def test_beat_curve_matches_pointwise():
    p = BeatParams(n0=2.0, tau_d=400.0, phi0=0.2)
    grid = np.array([0.0, 500.0, 2500.0])
    curve = beat_curve(p, grid)
    assert curve.shape == (3, 2)
    assert np.array_equal(curve[:, 0], grid)
    for t, val in curve:
        assert val == accumulated_intensity(t, p)


def test_beat_curve_j0sq_against_midpoint():
    p = BeatParams(n0=1.0, tau0=4857.0, tau_d=500.0, t_pump=1800.0, background=0.001)
    grid = np.array([0.0, 350.0, 1400.0, 5000.0, 12000.0])
    curve = beat_curve(p, grid, kernel="j0sq")
    for t, val in curve:
        # 20 000 midpoints keep the oracle within 2e-9 here
        ref = _midpoint_accumulated(p, t, n=20000, kernel="j0sq")
        assert val == pytest.approx(ref, rel=1e-7)


def test_zero_t_pump_is_a_domain_error():
    # BeatParams accepts t_pump = 0; the models that accumulate over it do not
    p = BeatParams(t_pump=0.0)
    with pytest.raises(DomainError, match="^t_pump must be positive to accumulate$"):
        beat_curve(p, [0.0, 1.0])
    with pytest.raises(DomainError, match="^t_pump must be positive$"):
        bin_expected_counts(p, [0.0, 1.0, 2.0])


def test_beat_curve_grid_checks():
    p = BeatParams()
    with pytest.raises(DomainError):
        beat_curve(p, [])
    with pytest.raises(DomainError):
        beat_curve(p, [0.0, 0.0])
    with pytest.raises(DomainError):
        beat_curve(p, [-1.0, 1.0])


@pytest.mark.parametrize("kernel", ["cos2", "j0sq"])
@pytest.mark.parametrize("seed", [0, 2, 6])
def test_beat_curve_mixed_orders_match_pointwise(seed, kernel):
    # random grids from t = 0 to 1e6 s give intervals from many caps wide
    # to a tiny share of one, so several panel orders occur in one curve;
    # each point's order comes from its own interval, so every point equals
    # its one-point integral bit for bit
    rng = np.random.default_rng(seed)
    p = BeatParams(n0=1.0, tau0=10 ** rng.uniform(1.0, 4.5), tau_d=10 ** rng.uniform(-2.0, 5.0),
                   phi0=rng.uniform(0.0, np.pi), t_pump=10 ** rng.uniform(0.0, 3.5))
    grid = np.unique(np.concatenate([[0.0], 10 ** rng.uniform(-3.0, 6.0, 40)]))
    u_lo, u_hi = np.sqrt(grid), np.sqrt(grid + p.t_pump)
    gaps, caps = u_hi - u_lo, _decay_caps(u_hi, p.tau0)
    orders = _panel_orders(gaps, _panel_counts(gaps, caps, p.tau_d), caps, p.tau_d)
    assert len(np.unique(orders)) >= 3  # premise: the orders mix
    for t, val in beat_curve(p, grid, kernel):
        assert val == accumulated_intensity(t, p, kernel)


# -------------------------------------------------------------- beat_minima


def _minima_law(p, n):
    out = []
    m = 0
    while len(out) < n:
        u = np.pi / 2 + m * np.pi - p.phi0
        m += 1
        if u > 0.0:
            out.append(p.tau_d * u * u)
    return np.array(out)


def test_beat_minima_quadratic_law():
    p = BeatParams(n0=4.0, tau_d=485.7, phi0=0.3)
    got = beat_minima(p, n=6)
    expected = _minima_law(p, 6)
    assert np.max(np.abs(got - expected) / expected) <= 1e-9


def test_beat_minima_skips_negative_branch():
    # phases past pi/2 push the first minimum to the next branch
    p = BeatParams(tau_d=100.0, phi0=2.0)
    got = beat_minima(p, n=3)
    expected = _minima_law(p, 3)
    assert np.max(np.abs(got - expected) / expected) <= 1e-9


@given(
    st.floats(0.0, np.pi, allow_nan=False),
    st.floats(50.0, 50000.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_beat_minima_law_property(phi0, td):
    p = BeatParams(tau_d=td, phi0=phi0)
    got = beat_minima(p, n=4)
    expected = _minima_law(p, 4)
    assert got.shape == (4,)
    assert np.all(np.diff(got) > 0.0)
    assert np.max(np.abs(got - expected) / expected) <= 1e-9


def test_beat_minima_are_rate_minima():
    p = BeatParams(n0=1.0, tau_d=485.7, phi0=0.3)
    for t_min in beat_minima(p, n=3):
        here = count_rate(t_min, p)
        assert here <= count_rate(t_min * (1.0 - 1e-4), p)
        assert here <= count_rate(t_min * (1.0 + 1e-4), p)


# ------------------------------------------------------ bin_expected_counts


def _midpoint_bin_oracle(p, a, b, n=400000, kernel="cos2"):
    """Double integral of the rate over delay bin and pump window.

    Swaps to a single integral of rate times the window-overlap length,
    evaluated by brute midpoint sums; independent of the implementation.
    """
    tp = p.t_pump
    lo, hi = a, b + tp
    h = (hi - lo) / n
    tau = lo + (np.arange(n) + 0.5) * h
    mod = np.cos(np.sqrt(tau / p.tau_d) + p.phi0) ** 2
    if kernel == "j0sq":
        mod = j0_integral_oracle(np.sqrt(tau / p.tau_d)) ** 2
    g = p.n0 * np.exp(-tau / p.tau0) * mod
    overlap = np.clip(np.minimum(b, tau) - np.maximum(a, tau - tp), 0.0, None)
    return float((g * overlap).sum() * h) + p.background * tp * (b - a)


def test_bin_expected_counts_against_double_integral():
    p = BeatParams(n0=5.0, tau0=4857.0, tau_d=485.7, phi0=0.35, t_pump=3600.0, background=0.004)
    edges = np.array([0.0, 24.0, 480.0, 481.0, 5000.0, 9000.0])
    got = bin_expected_counts(p, edges)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        ref = _midpoint_bin_oracle(p, float(a), float(b))
        assert got[i] == pytest.approx(ref, rel=5e-7)


def test_bin_expected_counts_j0sq_kernel():
    p = BeatParams(n0=2.0, tau0=4857.0, tau_d=485.7, t_pump=600.0)
    edges = np.array([0.0, 300.0, 1500.0])
    got = bin_expected_counts(p, edges, kernel="j0sq")
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        ref = _midpoint_bin_oracle(p, float(a), float(b), kernel="j0sq")
        assert got[i] == pytest.approx(ref, rel=1e-6)


def test_bin_expected_counts_vs_quadrature_of_accumulated():
    # consistency between the two integration paths inside the package
    p = BeatParams(n0=1.0, tau_d=485.7, phi0=0.1, t_pump=900.0)
    edges = np.array([100.0, 400.0])
    got = bin_expected_counts(p, edges)[0]
    ref, err = scipy.integrate.quad(
        lambda t: accumulated_intensity(t, p), 100.0, 400.0, epsrel=1e-11, limit=200
    )
    assert got == pytest.approx(ref, rel=1e-9)


def test_bin_expected_counts_short_lifetime_long_beat():
    # tau0 << tau_d: a panel capped only at the beat period would span
    # hundreds of decay lengths (oracle error 7.6e-8 with a quarter-period cap)
    p = BeatParams(n0=1.0, tau0=10.0, tau_d=1e6, phi0=0.3, t_pump=3600.0)
    got = bin_expected_counts(p, [0.0, 1800.0])[0]
    assert got == pytest.approx(_midpoint_bin_oracle(p, 0.0, 1800.0), rel=1e-6)


def test_phase_columns_reproduce_bin_expected_counts():
    # cos^2(x + phi0) = 1/2 + cos(2 phi0) cos(2x) / 2 - sin(2 phi0) sin(2x) / 2:
    # the fit's one-pass columns give the binned model at every phase.  The
    # sum cancels where a bin sits near a beat zero, so its error is bounded
    # relative to the unmodulated K everywhere, and relative to the bin
    # itself where no bin falls below a tenth of K.
    edges = np.linspace(0.0, 14400.0, 601)
    k = kalpha_bin_expected(1.0, 4857.0, 3600.0, edges)
    for td in (0.5, 3.0, 30.0, 100.0, 485.7, 1e4, 1e6):
        d, s = _BinModel(edges, 4857.0, 3600.0).phase_columns(td)
        for phi0 in (0.0, 0.3, 1.2, 2.9):
            ref = bin_expected_counts(BeatParams(n0=1.0, tau0=4857.0, tau_d=td, phi0=phi0, t_pump=3600.0), edges)
            got = k / 2.0 + np.cos(2.0 * phi0) * d - np.sin(2.0 * phi0) * s
            assert np.max(np.abs(got - ref) / k) <= 1e-12
            if np.min(ref / k) >= 0.1:
                assert np.max(np.abs(got - ref) / ref) <= 1e-12


@pytest.mark.parametrize("td", [0.01, 485.7, 1e4])
def test_phase_column_derivatives_match_richardson_difference(td):
    # the exact d/dtau_d columns against a Richardson-extrapolated central
    # difference of (D, S); at tau_d = 0.01 the beat period caps the panels,
    # so the layout has more than one panel per piece
    edges = np.linspace(0.0, 14400.0, 601)
    model = _BinModel(edges, 4857.0, 3600.0)
    d, s, dd, ds = model.phase_columns(td, derivs=True)
    assert np.array_equal(np.stack([d, s]), np.stack(model.phase_columns(td)))
    if td == 0.01:
        assert max(_panel_counts(block.gaps, block.caps, td).max() for block in model._setups()) > 1

    def central(h):
        up, down = np.stack(model.phase_columns(td + h)), np.stack(model.phase_columns(td - h))
        return (up - down) / (2.0 * h)

    h = 1e-5 * td
    ref = (4.0 * central(h / 2.0) - central(h)) / 3.0
    for got, want in zip((dd, ds), ref):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def _direct_bin_counts(p, edges, kernel="cos2"):
    """Unit-n0 counts bin by bin, each bin's overlap trapezoid integrated on
    its own (rising edge, plateau, falling edge) with 20-point
    Gauss-Legendre panels in u no wider than a sixteenth of a beat period,
    a quarter of sqrt(tau0) and a quarter of the local decay length."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        lvl, e = min(b - a, p.t_pump), b + p.t_pump
        total = 0.0
        for lo, hi, weight in (
            (a, a + lvl, lambda t: t - a),
            (a + lvl, e - lvl, lambda t: np.full_like(t, lvl)),
            (e - lvl, e, lambda t: e - t),
        ):
            if hi <= lo:
                continue
            u_lo, u_hi = math.sqrt(lo), math.sqrt(hi)
            h_max = min(math.pi * math.sqrt(p.tau_d) / 16, math.sqrt(p.tau0) / 4, p.tau0 / (8 * u_hi))
            n = math.ceil((u_hi - u_lo) / h_max)
            h = (u_hi - u_lo) / n
            u = u_lo + h * (np.arange(n)[:, None] + (nodes + 1.0) / 2.0)
            x = u / math.sqrt(p.tau_d)
            mod = np.cos(x + p.phi0) ** 2 if kernel == "cos2" else bessel_j0(x) ** 2
            t = u * u
            total += float(np.sum(weights * h / 2.0 * weight(t) * np.exp(-t / p.tau0) * mod * 2.0 * u))
        out.append(total)
    return np.array(out)


_IRREGULAR = np.concatenate([[300.0], 300.0 + np.cumsum(np.random.default_rng(3).uniform(2.0, 90.0, 60))])


@pytest.mark.parametrize(
    "tau0, td, phi0, t_pump, edges, kernel",
    [
        # t_pump a multiple of the width: criterion 11's bins
        (4857.0, 485.7, 0.3, 3600.0, np.linspace(0.0, 14400.0, 601), "cos2"),
        # a fast beat: many panels per piece
        (4857.0, 1e-3, 1.1, 3600.0, 7000.0 + 24.0 * np.arange(21), "cos2"),
        # t_pump not a multiple of the width
        (300.0, 40.0, 2.0, 100.0, 7.0 * np.arange(81), "cos2"),
        # width longer than t_pump
        (1000.0, 5e4, 0.7, 12.0, 50.0 * np.arange(61), "cos2"),
        # irregular edges, both kernels
        (2000.0, 250.0, 0.4, 500.0, _IRREGULAR, "cos2"),
        (2000.0, 250.0, 0.0, 500.0, _IRREGULAR, "j0sq"),
        # tau0 << tau_d: the decay caps bind
        (10.0, 1e6, 0.3, 3600.0, 60.0 * np.arange(101), "cos2"),
    ],
)
def test_bin_model_matches_bin_by_bin_quadrature(tau0, td, phi0, t_pump, edges, kernel):
    # the model integrates each piece between the union of all bins'
    # breakpoints once and builds every bin from the pieces; this
    # reference integrates every bin on its own
    p = BeatParams(n0=1.0, tau0=tau0, tau_d=td, phi0=phi0, t_pump=t_pump)
    got = _BinModel(edges, tau0, t_pump).unit_counts(p, kernel)
    ref = _direct_bin_counts(p, edges, kernel)
    k = kalpha_bin_expected(1.0, tau0, t_pump, edges)
    live = k >= 1e-3 * k.max()
    assert np.max(np.abs(got - ref)[live] / k[live]) <= 1e-12


_BLOCK_CASES = {
    # name: (edges, params, a tau_d for the phase columns)
    "longrun-like": (1.2 * np.arange(6001), BeatParams(n0=5.0, tau0=4857.0, tau_d=4274.0, phi0=0.3), 4274.0),
    "criterion11": (np.linspace(0.0, 14400.0, 601), BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3), 485.7),
    "longer-than-t_pump": (np.concatenate([[0.0], np.cumsum(np.random.default_rng(4).uniform(50.0, 400.0, 300))]),
                           BeatParams(n0=3.0, tau0=4857.0, tau_d=700.0, phi0=1.1, t_pump=100.0), 700.0),
    "irregular-background": (300.0 + np.concatenate([[0.0], np.cumsum(np.random.default_rng(5).uniform(0.05, 5.0, 2000))]),
                             BeatParams(n0=2.0, tau0=2000.0, tau_d=250.0, phi0=0.4, t_pump=500.0, background=0.03),
                             250.0),
    "several-panels": (24.0 * np.arange(301), BeatParams(n0=4.0, tau0=4857.0, tau_d=0.01, phi0=0.3), 0.01),
}


def _block_outputs(edges, p, td):
    model = _BinModel(edges, p.tau0, p.t_pump)
    return [bin_expected_counts(p, edges, "cos2"), bin_expected_counts(p, edges, "j0sq"),
            *model.phase_columns(td), *model.phase_columns(td, True)]


def _simulated_counts():
    return [s.counts for width, n0 in ((1.2, 5.0), (24.0, 4.0))
            for s in simulate_counts(BeatParams(n0=n0, tau_d=485.7, phi0=0.3), 10.0, width, 7200.0, seed=5)]


def test_bin_model_does_not_depend_on_block_size(monkeypatch):
    # every piece, suffix-sum step and bin is the same floating-point
    # operation in the same order at any block size; in blocks of 7 bins
    # each plateau and falling edge reaches across many blocks, and the
    # derivative pass runs on the blocks the model keeps from its second
    # pass on
    edges, p, td = _BLOCK_CASES["several-panels"]
    assert max(_panel_counts(block.gaps, block.caps, td).max()
               for block in _BinModel(edges, p.tau0, p.t_pump)._setups()) > 1
    default = {name: _block_outputs(*case) for name, case in _BLOCK_CASES.items()}
    sims = _simulated_counts()
    monkeypatch.setattr(beat, "_BLOCK_BINS", 7)
    beat._unit_counts.cache_clear()  # no two calls below share a key, so none is served from it
    for name, case in _BLOCK_CASES.items():
        assert all(np.array_equal(a, b) for a, b in zip(_block_outputs(*case), default[name])), name
    assert all(np.array_equal(a, b) for a, b in zip(_simulated_counts(), sims))


def test_bin_model_memory_is_bounded():
    # a cold call holds its output, one more array of that size, one block
    # and the kept edges and counts: a traced peak of 3.4 MB for 60 000 bins
    # of 1.2 s, where a model over the whole binning at once peaked at 12.7 MB
    edges = np.arange(60001) * 1.2
    bin_expected_counts(BeatParams(), edges[:100])  # the lazily built rules and tables
    beat._unit_counts.cache_clear()
    tracemalloc.start()
    try:
        bin_expected_counts(BeatParams(), edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


# ------------------------------------------------- kept unit counts


_KEPT_EDGES = np.linspace(0.0, 14400.0, 601)
_KEPT_TRUTH = BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0, background=0.02)


@pytest.fixture
def model_passes(monkeypatch):
    """Counts the binned model's passes; starts with nothing kept."""
    passes = []
    original = _BinModel._sums

    def counted(self, *args, **kwargs):
        passes.append(self.n_bins)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_BinModel, "_sums", counted)
    beat._unit_counts.cache_clear()
    yield passes
    beat._unit_counts.cache_clear()


def _fresh_counts(p, edges, kernel):
    """``bin_expected_counts`` as it was before it kept anything: a new model, then n0 and background."""
    edges = np.asarray(edges, dtype=float)
    counts = _BinModel(edges, p.tau0, p.t_pump).unit_counts(p, kernel)
    counts *= p.n0
    counts += p.background * p.t_pump * np.diff(edges)
    return counts


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", ["cos2", "j0sq"])
def test_kept_counts_match_a_fresh_model_bit_for_bit(model_passes, kernel):
    fresh = _fresh_counts(_KEPT_TRUTH, _KEPT_EDGES, kernel)
    cold = bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES, kernel)
    warm = bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES, kernel)
    assert _same_bits(cold, fresh) and _same_bits(warm, fresh)


@pytest.mark.parametrize("field, value", [
    ("edges", np.linspace(0.0, 14400.0, 601) * (1.0 + 1e-15)),
    ("tau0", 4857.000000000001),
    ("tau_d", 485.70000000000005),
    ("phi0", 0.30000000000000004),
    ("t_pump", 3600.0000000000005),
    ("kernel", "j0sq"),
])
def test_kept_counts_recompute_on_any_key_field(model_passes, field, value):
    bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)
    p, edges, kernel = _KEPT_TRUTH, _KEPT_EDGES, "cos2"
    if field == "edges":
        edges = value
        assert not np.array_equal(edges, _KEPT_EDGES)
    elif field == "kernel":
        kernel = value
    else:
        p = replace(p, **{field: value})
        assert getattr(p, field) != getattr(_KEPT_TRUTH, field)
    got = bin_expected_counts(p, edges, kernel)
    assert model_passes == [600, 600]
    assert _same_bits(got, _fresh_counts(p, edges, kernel))


def test_kept_counts_serve_any_n0_and_background(model_passes):
    bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)
    # n0 = -0.0 equals n0 = 0.0, but each gives the bits of a fresh model
    params = [replace(_KEPT_TRUTH, n0=n0, background=background)
              for n0, background in [(1.0, 0.0), (250.0, 0.02), (0.0, 0.5), (-0.0, 0.0), (-0.0, 0.5)]]
    got = [bin_expected_counts(p, _KEPT_EDGES) for p in params]
    assert model_passes == [600]
    assert all(_same_bits(g, _fresh_counts(p, _KEPT_EDGES, "cos2")) for g, p in zip(got, params))


def test_kept_counts_are_copied_for_each_call(model_passes):
    first = bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)
    expected = first.copy()
    first[:] = -1.0
    second = bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)
    assert second.flags.writeable and second.flags.owndata
    assert _same_bits(second, expected)
    second *= 2.0
    assert _same_bits(bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES), expected)
    assert model_passes == [600]


def test_repeated_call_makes_no_panel_pass(model_passes, monkeypatch):
    bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)
    bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES.tolist())  # the same float64 edges as a list
    simulate_counts(_KEPT_TRUTH, 1.0, 24.0, 14400.0, seed=3)  # the same truth and binning
    assert model_passes == [600]

    def no_pass(*args, **kwargs):
        raise AssertionError("a panel pass ran")

    monkeypatch.setattr(beat._PanelLayout, "integrate", no_pass)
    bin_expected_counts(_KEPT_TRUTH, _KEPT_EDGES)


def test_flm_mc_memory_is_bounded(bragg_geom):
    # the Monte Carlo holds one vector of a batch's mode sums (16 bytes per
    # sample over 32) and one chunk of draws and phases.  Warm, at 1e6
    # samples (numpy 2.4) the traced peak is 1.04 MB coherent and 1.32 MB
    # incoherent, and doubling the samples adds 0.50 and 0.72 MB; with a
    # sample-sized index array and whole-batch temporaries it was 8.02 MB,
    # and doubling added 8.0 MB
    vector_growth = 16 * 1_000_000 / 32
    for est, model in ((flm_coherent_mc, "longitudinal-gaussian"), (flm_incoherent_mc, "isotropic-gaussian")):
        est(bragg_geom, DisplacementEnsemble(model=model, sigma=5e-12, n_samples=64))
        peaks = []
        for n in (1_000_000, 2_000_000):
            ens = DisplacementEnsemble(model=model, sigma=5e-12, n_samples=n)
            tracemalloc.start()
            try:
                est(bragg_geom, ens)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2e6  # 50 % above the incoherent 1.32 MB
        assert peaks[1] - peaks[0] < 2 * vector_growth


def _transient_bytes(call, *args):
    """The traced peak of a warm ``call(*args)`` less the memory it still
    holds after, its result included: what the call takes only while it runs."""
    call(*args)
    tracemalloc.start()
    try:
        out = call(*args)  # held, so that it counts as live
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


def test_csv_round_trip_memory_is_bounded(tmp_path):
    # the writer formats blocks of rows and the reader's numpy pass scans the
    # file in chunks, so neither holds a copy of the 2.5 MB ratio file.  On 60
    # 000 rows of 1.2 s (numpy 2.4) the write takes 1.5 MB, the read 3.1 MB
    # (mostly RatioSeries copying and checking its columns) and its numpy pass
    # 0.1 MB beyond the table; with whole-file text they took 5.8, 3.4 and 3.5
    ratio = normalize(*simulate_counts(BeatParams(), 10.0, 1.2, 72000.0, seed=3))
    path = tmp_path / "ratio.csv"
    assert _transient_bytes(write_ratio_series, ratio, path) < 2.5e6
    assert _transient_bytes(read_ratio_series, path) < 4e6
    assert _transient_bytes(csvio._load_table, path, csvio.RATIO_HEADER, csvio._RATIO_DTYPE) < 1e6


@pytest.mark.parametrize(
    "tau0, t_pump, width, t_first, n_bins",
    [
        # out to 60 tau0: a forward cumulative sum of the plateau loses
        # e^(t/tau0) of its relative precision (0.95 at t = 50 tau0 here)
        (100.0, 3600.0, 10.0, 0.0, 600),
        (4857.0, 3600.0, 24.0, 0.0, 12143),
        # short bins late in the decay: a piece's offsets taken from X_k
        # instead of the rounded sqrt(X_k)^2 it is integrated from (1e-12)
        (100.0, 2.0, 0.1, 5000.0, 2000),
        # b + t_pump not representable: falling edges measured from the
        # rounded sum (8e-13)
        (1.29e4, 2.187, 0.0552, 18000.0, 2000),
        # a plateau far shorter than the tail beyond it: suffix sums
        # without their rounding error (6e-14)
        (4857.0, 10.0, 1.0, 0.0, 2000),
    ],
)
def test_bin_expected_counts_decay_tail_matches_closed_form(tau0, t_pump, width, t_first, n_bins):
    # at tau_d = 1e300 and phi0 = 0, cos^2 is exactly 1 and the binned model
    # is the closed form of kalpha_bin_expected (itself good to about 4e-15
    # here, from rounding exp's argument)
    edges = t_first + width * np.arange(n_bins + 1)
    p = BeatParams(n0=1.0, tau0=tau0, tau_d=1e300, phi0=0.0, t_pump=t_pump)
    got = bin_expected_counts(p, edges)
    ref = kalpha_bin_expected(1.0, tau0, t_pump, edges)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


def test_bin_expected_counts_phase_periodicity():
    # the rate is exactly pi-periodic in phi0; the binned model must not
    # lose that to roundoff
    p1 = BeatParams(n0=40.0, tau_d=485.7, phi0=0.3, t_pump=3600.0, background=0.01)
    p2 = BeatParams(n0=40.0, tau_d=485.7, phi0=0.3 + np.pi, t_pump=3600.0, background=0.01)
    edges = np.linspace(0.0, 14400.0, 601)
    c1 = bin_expected_counts(p1, edges)
    c2 = bin_expected_counts(p2, edges)
    assert np.max(np.abs(c1 - c2) / c1) <= 1e-12


def test_bin_expected_counts_linearity_and_background():
    p = BeatParams(n0=2.0, tau_d=485.7, phi0=0.2, t_pump=1800.0, background=0.0)
    edges = np.array([0.0, 600.0, 1200.0])
    base = bin_expected_counts(p, edges)
    doubled = bin_expected_counts(BeatParams(n0=4.0, tau_d=485.7, phi0=0.2, t_pump=1800.0), edges)
    assert np.allclose(doubled, 2.0 * base, rtol=1e-14)
    with_bg = bin_expected_counts(
        BeatParams(n0=2.0, tau_d=485.7, phi0=0.2, t_pump=1800.0, background=0.5), edges
    )
    assert np.allclose(with_bg - base, 0.5 * 1800.0 * 600.0, rtol=1e-12)


def test_bin_expected_counts_edge_validation():
    p = BeatParams()
    with pytest.raises(DomainError):
        bin_expected_counts(p, [1.0])
    with pytest.raises(DomainError):
        bin_expected_counts(p, [[0.0, 1.0]])
    with pytest.raises(DomainError):
        bin_expected_counts(p, [-1.0, 1.0])
    with pytest.raises(DomainError):
        bin_expected_counts(p, [0.0, 1.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edges", [[0.0, np.inf], [0.0, np.nan], [np.nan, 1.0], [np.inf, np.inf]])
def test_bin_expected_counts_rejects_nonfinite_edges(edges):
    # an infinite edge gave a RuntimeWarning, a NaN one a message blaming tau_d
    with pytest.raises(DomainError, match="^edges must be finite, nonnegative and strictly increasing$"):
        bin_expected_counts(BeatParams(), edges)


@pytest.mark.parametrize("order", range(_MIN_ORDER, 12))
def test_panel_order_limits_integrate_exp_within_full_cap_error(order):
    # one panel of each order at its limit share r of a cap (one period of
    # exp(i x), w = 1) against the closed form; its remainder term there is
    # the 12-node term at a full cap, about 8e-19, so what is left is the
    # panel's own rounding, within the 12-node error over a full period.
    # A limit twice too wide leaves 9 to 2300 eps of the panel's width.
    eps = np.finfo(float).eps
    limit = _ORDER_LIMITS[order - _MIN_ORDER]

    def error(n, h, a):
        x, w = _gauss_legendre(n)
        nodes = a + h * x
        got_cos, got_sin = h / 2 * np.dot(w, np.cos(nodes)), h / 2 * np.dot(w, np.sin(nodes))
        half = 2.0 * math.sin(h / 2)
        return math.hypot(got_cos - half * math.cos(a + h / 2), got_sin - half * math.sin(a + h / 2))

    for a in (0.0, 0.37, 2.0):
        full = error(12, 2.0 * math.pi, a)
        h = 2.0 * math.pi * limit
        assert error(order, h, a) <= min(full, 4.0 * eps * h)
    # the engine gives a panel at its limit this order, and one just past it one more
    period = math.pi * math.sqrt(485.7)
    shares = np.array([limit * (1.0 - 1e-9), limit * (1.0 + 1e-9)])
    got = _panel_orders(shares * period, np.ones(2, dtype=int), np.full(2, np.inf), 485.7)
    assert got.tolist() == [order, order + 1]
