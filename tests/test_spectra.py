from decimal import Decimal, localcontext
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mossbeat import spectra
from mossbeat import (
    BeatParams,
    CountSeries,
    DomainError,
    RatioSeries,
    StructuralError,
    bin_expected_counts,
    kalpha_bin_expected,
    normalize,
    rebin,
    simulate_counts,
)


def _series(counts, width=10.0, channel="gamma"):
    counts = np.asarray(counts)
    n = len(counts)
    return CountSeries(
        channel=channel,
        t_start=np.arange(n) * width,
        width=np.full(n, width),
        counts=counts,
    )


# ------------------------------------------------------------- CountSeries


def test_count_series_basics():
    s = _series([3, 0, 7])
    assert len(s) == 3
    assert np.array_equal(s.edges, [0.0, 10.0, 20.0, 30.0])
    assert np.allclose(s.errors, np.sqrt([3.0, 0.0, 7.0]))
    with pytest.raises(ValueError):
        s.counts[0] = 5


def test_count_series_validation():
    with pytest.raises(DomainError):
        _series([1, 2], channel="visible")
    with pytest.raises(StructuralError):
        CountSeries(channel="gamma", t_start=[0.0], width=[1.0, 1.0], counts=[1, 2])
    with pytest.raises(StructuralError):
        CountSeries(channel="gamma", t_start=[0.0], width=[0.0], counts=[1])
    with pytest.raises(StructuralError):
        CountSeries(channel="gamma", t_start=[0.0], width=[1.0], counts=[-1])
    with pytest.raises(StructuralError):
        CountSeries(channel="gamma", t_start=[0.0], width=[1.0], counts=[1.5])


@pytest.mark.parametrize("count", [3.0000001, 1e19])
def test_count_series_rejects_inexact_float_counts(count):
    # neither may be stored: 3.0000001 is no integer, and 1e19 would wrap
    # to a negative int64 with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError):
            CountSeries(channel="gamma", t_start=[0.0], width=[1.0], counts=[count])


def test_count_series_contiguity():
    with pytest.raises(StructuralError) as err:
        CountSeries(
            channel="gamma",
            t_start=[0.0, 10.0, 25.0],
            width=[10.0, 10.0, 10.0],
            counts=[1, 1, 1],
        )
    assert "2" in str(err.value)  # break position is named


# ------------------------------------------------------------- RatioSeries


def test_ratio_series_validation():
    RatioSeries(
        t_start=[0.0],
        width=[1.0],
        ratio=[0.5],
        sigma=[0.1],
        valid=[True],
        low_count=[False],
    )
    with pytest.raises(StructuralError):
        RatioSeries(
            t_start=[0.0],
            width=[1.0],
            ratio=[0.5],
            sigma=[0.0],  # must be positive where valid
            valid=[True],
            low_count=[False],
        )
    # invalid bins may carry NaN
    r = RatioSeries(
        t_start=[0.0, 1.0],
        width=[1.0, 1.0],
        ratio=[np.nan, 1.0],
        sigma=[np.nan, 0.5],
        valid=[False, True],
        low_count=[False, False],
    )
    assert np.array_equal(r.edges, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("t_start", [[0.0, 100.0], [0.0, 5.0]], ids=["gap", "overlap"])
def test_ratio_series_contiguity(t_start):
    # edges would misstate such bins: a gap after bin 0 would make it 100 s wide
    with pytest.raises(StructuralError, match="break between bins 0 and 1"):
        RatioSeries(t_start, [10.0, 10.0], [1.0, 1.0], [0.1, 0.1], [True, True], [False, False])


def test_contiguity_verdicts_match_the_one_line_test():
    # the gap and tolerance are formed in place with the same elementwise
    # operations as |t[1:] - (t[:-1] + w[:-1])| > rtol max(w[1:], w[:-1]),
    # so the first break found is that test's, at the tolerance's edge too
    rng = np.random.default_rng(11)
    width = rng.uniform(0.5, 2.0, 2000)
    start = np.concatenate([[0.0], np.cumsum(width[:-1])])
    tol = spectra._EDGE_RTOL * np.maximum(width[1:], width[:-1])
    for k, shift in [(17, 1.0), (900, -0.999), (1500, 1.001), (1999, 5.0)]:
        t = start.copy()
        t[k] += shift * tol[k - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            broken = np.abs(t[1:] - (t[:-1] + width[:-1])) > spectra._EDGE_RTOL * np.maximum(width[1:], width[:-1])
        if broken.any():
            with pytest.raises(StructuralError, match=f"break between bins {int(np.argmax(broken))} and"):
                spectra._check_contiguous(t, width)
        else:
            spectra._check_contiguous(t, width)
    # an edge sum that overflows counts as a break, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="break between bins 0 and 1"):
            spectra._check_contiguous(np.array([1.7e308, 1.7e308]), np.array([1.7e308, 1.0]))


def test_contiguity_check_memory_is_bounded():
    # 60 000 bins of 1.2 s: the check makes the gap and the tolerance in
    # place, two temporaries of the 0.48 MB column, and a boolean mask
    t, w = 1.2 * np.arange(60000), np.full(60000, 1.2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectra._check_contiguous(t, w)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * t[1:].nbytes


def test_series_keep_only_read_only_arrays_that_own_their_data():
    t, w, c = np.arange(3.0), np.ones(3), np.array([3, 0, 7])
    # writable arrays are copied: changing them leaves the series as it was
    s = CountSeries("gamma", t, w, c)
    t[0], c[0] = -5.0, 9
    assert s.t_start[0] == 0.0 and s.counts[0] == 3
    assert not np.shares_memory(s.t_start, t) and not np.shares_memory(s.counts, c)
    # a read-only view of a writable base is copied
    base = np.arange(4.0)
    view = base[:3]
    view.setflags(write=False)
    s = CountSeries("gamma", view, w, [3, 0, 7])
    base[0] = -5.0
    assert s.t_start[0] == 0.0 and not np.shares_memory(s.t_start, base)
    # read-only arrays that own their data are kept; another dtype is copied
    t, w32 = np.arange(3.0), np.ones(3, dtype=np.float32)
    for a in (t, w, c, w32):
        a.setflags(write=False)
    s = CountSeries("gamma", t, w, c)
    assert np.shares_memory(s.t_start, t) and np.shares_memory(s.width, w) and np.shares_memory(s.counts, c)
    s = CountSeries("gamma", t, w32, c)
    assert s.width.dtype == np.float64 and not np.shares_memory(s.width, w32)
    flags = np.array([True, False, True])
    flags.setflags(write=False)
    r = RatioSeries(t, w, [1.0, np.nan, 0.0], [0.5, np.nan, 1.0], flags, [False, False, True])
    assert np.shares_memory(r.valid, flags) and np.shares_memory(r.t_start, t)
    assert not any(getattr(r, name).flags.writeable for name in ("ratio", "sigma", "valid", "low_count"))


def test_one_product_holds_one_time_axis():
    gamma, kalpha = simulate_counts(BeatParams(), 10.0, 24.0, 14400.0, seed=7)
    ratio = normalize(gamma, kalpha)
    for series in (kalpha, ratio):
        assert series.t_start is gamma.t_start and series.width is gamma.width
    for a in (gamma.t_start, gamma.width, gamma.counts, kalpha.counts,
              ratio.ratio, ratio.sigma, ratio.valid, ratio.low_count):
        assert a.base is None and not a.flags.writeable
    coarse = rebin(gamma, 4)
    assert coarse.counts.base is None and coarse.width.base is None
    assert not np.shares_memory(coarse.t_start, gamma.t_start)


@pytest.mark.parametrize("t_start, width", [
    ([0.0, np.inf], [np.inf, 1.0]),  # the gap test cannot see inf - inf
    ([0.0, np.nan], [1.0, 1.0]),
    ([0.0, 1.0], [1.0, np.nan]),
])
def test_series_reject_nonfinite_times(t_start, width):
    with pytest.raises(StructuralError, match="finite"):
        CountSeries("gamma", t_start, width, [3, 4])
    with pytest.raises(StructuralError, match="finite"):
        RatioSeries(t_start, width, [1.0, np.nan], [0.5, np.nan], [True, False], [False, False])


# --------------------------------------------------- kalpha_bin_expected


def test_kalpha_bin_expected_against_double_integral():
    tau0, tp, scale = 4857.0, 3600.0, 7.5
    edges = np.array([0.0, 360.0, 3600.0, 14400.0])
    got = kalpha_bin_expected(scale, tau0, tp, edges)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        n = 400000
        h = (b + tp - a) / n
        tau = a + (np.arange(n) + 0.5) * h
        overlap = np.clip(np.minimum(b, tau) - np.maximum(a, tau - tp), 0.0, None)
        ref = float((scale * np.exp(-tau / tau0) * overlap).sum() * h)
        assert got[i] == pytest.approx(ref, rel=1e-7)


def _decimal_kalpha(tau0, t_pump, a, b):
    """The closed form in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        t0 = Decimal(tau0)

        def decay(t):
            return (-Decimal(t) / t0).exp()

        return float(t0 * (1 - decay(t_pump)) * t0 * (decay(a) - decay(b)))


@pytest.mark.parametrize("width, horizon", [(1.2, 72000.0), (24.0, 14400.0)])
def test_kalpha_bin_expected_against_decimal(width, horizon):
    # both differences in expm1 form: 1 - e^(-x) and e^(-a/tau0) - e^(-b/tau0)
    # written directly lose up to 7e-12 on 1.2-s bins
    edges = width * np.arange(int(round(horizon / width)) + 1)
    got = kalpha_bin_expected(1.0, 4857.0, 3600.0, edges)
    idx = np.arange(0, len(got), max(1, len(got) // 600))
    ref = np.array([_decimal_kalpha(4857.0, 3600.0, edges[i], edges[i + 1]) for i in idx])
    assert np.max(np.abs(got[idx] / ref - 1.0)) <= 4e-15


def test_kalpha_bin_expected_validation():
    with pytest.raises(DomainError):
        kalpha_bin_expected(-1.0, 4857.0, 3600.0, [0.0, 1.0])
    with pytest.raises(DomainError):
        kalpha_bin_expected(1.0, 0.0, 3600.0, [0.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau0, t_pump, edges, message", [
    (4857.0, 3600.0, [10.0, 0.0], "^edges must be finite, nonnegative and strictly increasing$"),
    (4857.0, 3600.0, [-10.0, 0.0], "^edges must be finite, nonnegative and strictly increasing$"),
    (4857.0, 3600.0, [0.0, np.inf], "^edges must be finite, nonnegative and strictly increasing$"),
    (4857.0, 3600.0, [5.0], "^edges must be 1-d with at least two entries$"),
    (np.inf, 3600.0, [0.0, 10.0], "^tau0 and t_pump must be positive and finite"),
    (4857.0, np.inf, [0.0, 10.0], "^tau0 and t_pump must be positive and finite"),
], ids=["decreasing", "negative", "infinite", "one-edge", "infinite-tau0", "infinite-t_pump"])
def test_kalpha_bin_expected_rejects_bad_edges_and_times(tau0, t_pump, edges, message):
    # the decreasing edges gave -25 398 counts, the single edge an empty
    # array, an infinite tau0 NaN with a RuntimeWarning, and an infinite
    # t_pump finite counts
    with pytest.raises(DomainError, match=message):
        kalpha_bin_expected(1.0, tau0, t_pump, edges)


# --------------------------------------------------------- simulate_counts


def test_simulate_rejects_negative_seed():
    # it used to raise numpy's "expected non-negative integer"
    with pytest.raises(DomainError, match="^seed must be a nonnegative integer, got -1$"):
        simulate_counts(BeatParams(), 1.0, 24.0, 14400.0, seed=-1)


def test_simulate_counts_deterministic():
    p = BeatParams(n0=50.0, tau_d=485.7, phi0=0.3)
    a_gamma, a_kalpha = simulate_counts(p, 10.0, 600.0, 36000.0, seed=5)
    b_gamma, b_kalpha = simulate_counts(p, 10.0, 600.0, 36000.0, seed=5)
    c_gamma, _ = simulate_counts(p, 10.0, 600.0, 36000.0, seed=6)
    assert np.array_equal(a_gamma.counts, b_gamma.counts)
    assert np.array_equal(a_kalpha.counts, b_kalpha.counts)
    assert not np.array_equal(a_gamma.counts, c_gamma.counts)
    assert a_gamma.channel == "gamma"
    assert a_kalpha.channel == "kalpha"
    assert len(a_gamma) == 60


def test_simulate_counts_means_track_models():
    p = BeatParams(n0=400.0, tau_d=485.7, phi0=0.3, background=0.05)
    gamma, kalpha = simulate_counts(p, 30.0, 600.0, 36000.0, seed=11)
    mu_gamma = bin_expected_counts(p, gamma.edges)
    mu_kalpha = kalpha_bin_expected(30.0, p.tau0, p.t_pump, kalpha.edges)
    # every bin within 6 sigma, pull distribution centered near zero
    pulls_g = (gamma.counts - mu_gamma) / np.sqrt(mu_gamma)
    pulls_k = (kalpha.counts - mu_kalpha) / np.sqrt(mu_kalpha)
    assert np.max(np.abs(pulls_g)) < 6.0
    assert np.max(np.abs(pulls_k)) < 6.0
    assert abs(pulls_g.mean()) < 5.0 / math.sqrt(len(gamma))
    assert abs(pulls_k.mean()) < 5.0 / math.sqrt(len(kalpha))


def test_simulate_counts_stream_per_channel():
    p = BeatParams(n0=50.0, tau_d=485.7, phi0=0.3)
    gamma, kalpha = simulate_counts(p, 10.0, 600.0, 36000.0, seed=5)
    edges = 600.0 * np.arange(61)
    expected = (bin_expected_counts(p, edges), kalpha_bin_expected(10.0, p.tau0, p.t_pump, edges))
    streams = np.random.SeedSequence(5).spawn(2)
    for series, mu, stream in zip((gamma, kalpha), expected, streams):
        assert np.array_equal(series.counts, np.random.default_rng(stream).poisson(mu))
    # the gamma stream is keyed by (seed, channel), not shared with kalpha
    gamma_other, kalpha_other = simulate_counts(p, 500.0, 600.0, 36000.0, seed=5)
    assert np.array_equal(gamma_other.counts, gamma.counts)
    assert not np.array_equal(kalpha_other.counts, kalpha.counts)


def test_simulate_counts_large_series_statistics():
    p = BeatParams(n0=400.0, tau_d=485.7, phi0=0.3, background=0.05)
    gamma, kalpha = simulate_counts(p, 30.0, 0.24, 14400.0, seed=11)
    n = len(gamma)
    assert n == 60000
    pulls = []
    for series, mu in (
        (gamma, bin_expected_counts(p, gamma.edges)),
        (kalpha, kalpha_bin_expected(30.0, p.tau0, p.t_pump, kalpha.edges)),
    ):
        pearson = float(((series.counts - mu) ** 2 / mu).sum())
        assert abs(pearson - n) < 6.0 * math.sqrt(2.0 * n)
        pulls.append((series.counts - mu) / np.sqrt(mu))
    assert abs(np.corrcoef(*pulls)[0, 1]) < 6.0 / math.sqrt(n)


@pytest.mark.parametrize("width, horizon", [
    (1.0, float("inf")), (float("inf"), float("inf")), (float("inf"), 1.0), (float("nan"), 100.0), (1.0, float("nan")),
])
def test_simulate_counts_rejects_non_finite_width_or_horizon(width, horizon):
    # an infinite horizon used to raise OverflowError while counting the bins
    with pytest.raises(DomainError, match="must be (positive and )?finite"):
        simulate_counts(BeatParams(), 1.0, width, horizon)


@pytest.mark.parametrize("width, horizon", [(1e-300, 14400.0), (5e-324, 14400.0), (1.0, 1e300)])
def test_simulate_counts_rejects_a_binning_no_array_can_hold(width, horizon):
    # such edges exceed numpy's largest array ("Maximum allowed size
    # exceeded"), and 5e-324 s bins give an infinite count, no integer
    with pytest.raises(DomainError, match=r"gives \S+ bins, more than an array can hold"):
        simulate_counts(BeatParams(), 1.0, width, horizon)


def test_simulate_counts_partial_bin_warns():
    p = BeatParams(n0=5.0)
    with pytest.warns(UserWarning):
        gamma, _ = simulate_counts(p, 1.0, 600.0, 1500.0, seed=0)
    assert len(gamma) == 2


def test_simulate_counts_validation():
    p = BeatParams()
    with pytest.raises(DomainError):
        simulate_counts(p, 1.0, 0.0, 100.0)
    with pytest.raises(DomainError):
        simulate_counts(p, 1.0, 600.0, 100.0)


# --------------------------------------------------------------- normalize


def test_normalize_hand_values():
    gamma = _series([49, 0, 10])
    kalpha = _series([49, 100, 0], channel="kalpha")
    r = normalize(gamma, kalpha)
    assert r.ratio[0] == pytest.approx(1.0, rel=1e-15)
    assert r.sigma[0] == pytest.approx(math.sqrt(49.0 + 49.0**2 / 49.0) / 49.0, rel=1e-12)
    # zero gamma counts: valid but flagged, sigma floor from one count
    assert r.valid[1]
    assert r.low_count[1]
    assert r.ratio[1] == 0.0
    assert r.sigma[1] == pytest.approx(math.sqrt(1.0) / 100.0, rel=1e-12)
    # zero kalpha counts: undefined ratio
    assert not r.valid[2]
    assert np.isnan(r.ratio[2])


def test_normalize_multiply_back():
    rng = np.random.default_rng(3)
    g = rng.poisson(200.0, size=50)
    k = rng.poisson(5000.0, size=50)
    gamma = _series(g)
    kalpha = _series(k, channel="kalpha")
    r = normalize(gamma, kalpha)
    back = r.ratio * k
    # float division then multiplication is exact only to rounding
    assert np.allclose(back, g, rtol=4 * np.finfo(float).eps)
    assert np.array_equal(np.round(back).astype(np.int64), g)


def test_normalize_rejects_mismatched_binning():
    gamma = _series([1, 2, 3])
    kalpha = _series([1, 2], channel="kalpha")
    with pytest.raises(StructuralError):
        normalize(gamma, kalpha)
    shifted = CountSeries(
        channel="kalpha",
        t_start=np.arange(3) * 10.0 + 1.0,
        width=np.full(3, 10.0),
        counts=[1, 2, 3],
    )
    with pytest.raises(StructuralError):
        normalize(gamma, shifted)


@pytest.mark.parametrize("channels", [("kalpha", "gamma"), ("gamma", "gamma"), ("kalpha", "kalpha")],
                         ids=["swapped", "gamma_twice", "kalpha_twice"])
def test_normalize_rejects_wrong_channels(channels):
    gamma = _series([4, 5, 6], channel=channels[0])
    kalpha = _series([7, 8, 9], channel=channels[1])
    with pytest.raises(DomainError, match=f"got {channels[0]!r} and {channels[1]!r}"):
        normalize(gamma, kalpha)


@pytest.mark.parametrize("channels", [("gamma", "gamma"), ("kalpha", "gamma")])
def test_normalize_passes_empty_series_of_any_channels(channels):
    # a count file without data rows reads back as an empty gamma series
    r = normalize(_series([], channel=channels[0]), _series([], channel=channels[1]))
    assert len(r) == 0


# ------------------------------------------------------------------- rebin


def test_rebin_sums_groups():
    s = _series([1, 2, 3, 4, 5, 6])
    r = rebin(s, 3)
    assert np.array_equal(r.counts, [6, 15])
    assert np.array_equal(r.width, [30.0, 30.0])
    assert np.array_equal(r.t_start, [0.0, 30.0])
    assert r.channel == s.channel


def test_rebin_identity_and_remainder():
    s = _series([1, 2, 3, 4, 5])
    assert rebin(s, 1) is s
    with pytest.warns(UserWarning):
        r = rebin(s, 2)
    assert np.array_equal(r.counts, [3, 7])


def test_rebin_validation():
    s = _series([1, 2])
    with pytest.raises(DomainError):
        rebin(s, 0)
    with pytest.raises(DomainError):
        rebin(s, 2.0)
    with pytest.raises(DomainError):
        rebin(s, True)
