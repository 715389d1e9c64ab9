import tracemalloc

import numpy as np
import pytest

from mossbeat import (
    DisplacementEnsemble,
    DomainError,
    FlmResult,
    build_trigamma,
    flm_closed_form,
    flm_coherent_mc,
    flm_incoherent_mc,
)
from mossbeat import lamb


def test_ensemble_rejects_negative_seed():
    # it used to be accepted, and numpy's ValueError came out of flm_coherent_mc
    with pytest.raises(DomainError, match="^seed must be a nonnegative integer, got -1$"):
        DisplacementEnsemble(sigma=1e-12, n_samples=10, seed=-1)
    assert DisplacementEnsemble(sigma=1e-12, n_samples=10, seed=np.int64(3)).seed == 3


def test_closed_form_expression(bragg_geom):
    sigma = 3.0e-12
    arg = bragg_geom.k_mag * np.cos(bragg_geom.theta) * sigma
    out = flm_closed_form(bragg_geom, sigma)
    assert out.value == pytest.approx(9.0 * np.exp(-(arg**2)), rel=1e-14)
    assert out.stderr == 0.0
    assert out.interpretation == "coherent"


def test_closed_form_limits(bragg_geom):
    assert abs(flm_closed_form(bragg_geom, 0.0).value - 9.0) <= 1e-12
    with pytest.raises(DomainError):
        flm_closed_form(bragg_geom, -1.0e-12)


def test_coherent_mc_frozen_lattice(bragg_geom):
    # zero spread: every sample contributes exactly 3 to the mode sum
    ens = DisplacementEnsemble(model="longitudinal-gaussian", sigma=0.0, n_samples=5000, seed=4)
    out = flm_coherent_mc(bragg_geom, ens)
    assert out.value == pytest.approx(9.0, abs=1e-12)


def test_incoherent_longitudinal_is_exactly_nine(bragg_geom):
    # a common longitudinal phase drops out of |S|^2 regardless of sigma
    ens = DisplacementEnsemble(model="longitudinal-gaussian", sigma=5.0e-11, n_samples=20000, seed=5)
    out = flm_incoherent_mc(bragg_geom, ens)
    assert out.value == pytest.approx(9.0, abs=1e-9)
    assert out.interpretation == "incoherent"


def test_incoherent_isotropic_large_sigma_tends_to_three(bragg_geom):
    # cross terms average out once displacements scramble relative phases
    ens = DisplacementEnsemble(model="isotropic-gaussian", sigma=5.0e-10, n_samples=400000, seed=6)
    out = flm_incoherent_mc(bragg_geom, ens)
    assert out.stderr is not None
    assert abs(out.value - 3.0) <= 4.0 * out.stderr


def test_coherent_mc_matches_closed_form(bragg_geom):
    kz = bragg_geom.k_mag * np.cos(bragg_geom.theta)
    for i, target in enumerate((0.3, 1.0)):
        sigma = target / kz
        ens = DisplacementEnsemble(
            model="longitudinal-gaussian", sigma=sigma, n_samples=200000, seed=100 + i
        )
        mc = flm_coherent_mc(bragg_geom, ens)
        ref = flm_closed_form(bragg_geom, sigma)
        assert mc.stderr is not None and mc.stderr > 0.0
        assert abs(mc.value - ref.value) <= 3.0 * mc.stderr


def test_coherent_mc_stderr_is_calibrated(bragg_geom):
    # (MC - closed form) / stderr over 100 seeds at the CLI's default spread.
    # The stderr is a batch-means estimate from 32 batches, so the ratio
    # follows Student's t with 31 degrees of freedom: mean 0 and sd 1.03,
    # with |z| > 4 about once in 2 700 runs.  These seeds give mean +0.08
    # and sd 0.97; a stderr a quarter too small or too large fails.
    exact = flm_closed_form(bragg_geom, 5.0e-12).value
    z = []
    for seed in range(100):
        ens = DisplacementEnsemble(model="longitudinal-gaussian", sigma=5.0e-12, n_samples=20000, seed=seed)
        mc = flm_coherent_mc(bragg_geom, ens)
        z.append((mc.value - exact) / mc.stderr)
    assert abs(np.mean(z)) <= 0.35
    assert 0.8 <= np.std(z, ddof=1) <= 1.25


def test_explicit_samples_match_direct_average(bragg_geom):
    rng = np.random.default_rng(9)
    samples = rng.normal(scale=2.0e-12, size=(4096, 3))
    ens = DisplacementEnsemble(model="explicit-samples", samples=samples)
    out = flm_coherent_mc(bragg_geom, ens)
    # independent direct average over exactly the provided samples
    s = np.exp(1j * samples @ bragg_geom.k_vectors.T).sum(axis=1)
    expected = abs(s.mean()) ** 2
    assert out.value == pytest.approx(expected, rel=1e-12)

    out2 = flm_incoherent_mc(bragg_geom, ens)
    expected2 = float(np.mean(np.abs(s) ** 2))
    assert out2.value == pytest.approx(expected2, rel=1e-12)


def test_explicit_samples_set_count_and_are_copied():
    samples = np.zeros((10, 3))
    ens = DisplacementEnsemble(model="explicit-samples", samples=samples)
    assert ens.n_samples == 10
    samples[0, 0] = 1.0  # caller mutation must not reach the ensemble
    assert ens.samples[0, 0] == 0.0
    with pytest.raises(ValueError):
        ens.samples[0, 0] = 2.0


def test_ensemble_validation():
    with pytest.raises(DomainError):
        DisplacementEnsemble(model="unknown-model")
    with pytest.raises(DomainError):
        DisplacementEnsemble(model="isotropic-gaussian", sigma=-1.0)
    with pytest.raises(DomainError):
        DisplacementEnsemble(model="isotropic-gaussian", n_samples=0)
    with pytest.raises(DomainError):
        DisplacementEnsemble(model="explicit-samples", samples=np.zeros((5, 2)))
    with pytest.raises(DomainError):
        DisplacementEnsemble(model="explicit-samples", samples=None)


@pytest.mark.parametrize("n_samples", [1.5, 2.0, np.float64(64.0), True, "64"])
def test_ensemble_rejects_non_integral_n_samples(n_samples):
    # 1.5 and 2.0 used to be accepted, and the Monte Carlo then failed in its batching
    with pytest.raises(DomainError, match="n_samples must be an integer >= 1"):
        DisplacementEnsemble(model="isotropic-gaussian", sigma=1e-11, n_samples=n_samples)
    assert DisplacementEnsemble(sigma=1e-11, n_samples=np.int64(64)).n_samples == 64


def test_mc_deterministic_per_seed(bragg_geom):
    ens_a = DisplacementEnsemble(model="isotropic-gaussian", sigma=1e-11, n_samples=50000, seed=42)
    ens_b = DisplacementEnsemble(model="isotropic-gaussian", sigma=1e-11, n_samples=50000, seed=42)
    ens_c = DisplacementEnsemble(model="isotropic-gaussian", sigma=1e-11, n_samples=50000, seed=43)
    va = flm_coherent_mc(bragg_geom, ens_a).value
    vb = flm_coherent_mc(bragg_geom, ens_b).value
    vc = flm_coherent_mc(bragg_geom, ens_c).value
    assert va == vb
    assert va != vc


def test_stderr_none_for_single_batch(bragg_geom):
    ens = DisplacementEnsemble(model="isotropic-gaussian", sigma=1e-11, n_samples=1, seed=0)
    assert flm_coherent_mc(bragg_geom, ens).stderr is None


def test_flm_result_validation():
    with pytest.raises(DomainError):
        FlmResult(value=-0.5, stderr=0.0, interpretation="coherent")
    with pytest.raises(DomainError):
        FlmResult(value=12.0, stderr=0.0, interpretation="coherent")
    with pytest.raises(DomainError):
        FlmResult(value=1.0, stderr=0.0, interpretation="bogus")
    # a value slightly above 9 is fine when covered by its stderr
    FlmResult(value=9.2, stderr=0.1, interpretation="incoherent")


def test_hard_bound_holds_across_thetas(k40):
    for theta in (0.05, 0.4, 1.0):
        geom = build_trigamma(k40, theta)
        ens = DisplacementEnsemble(model="isotropic-gaussian", sigma=2e-11, n_samples=20000, seed=7)
        for est in (flm_coherent_mc, flm_incoherent_mc):
            out = est(geom, ens)
            assert -1e-12 <= out.value <= 9.0 + 3.0 * (out.stderr or 0.0) + 1e-12


def _whole_batch_mc(geom, ens, coherent):
    """(value, stderr) by the Monte Carlo over whole-batch arrays: the batch
    sizes of np.array_split, one draw per batch from its spawned stream and
    one mode sum over the batch."""
    n_batches = min(32, ens.n_samples)
    if ens.model == "explicit-samples":
        batches = np.array_split(ens.samples, n_batches)
    else:
        batches = []
        streams = np.random.SeedSequence(ens.seed).spawn(n_batches)
        for idx, ss in zip(np.array_split(np.arange(ens.n_samples), n_batches), streams):
            rng = np.random.default_rng(ss)
            if ens.model == "longitudinal-gaussian":
                u = np.zeros((len(idx), 3))
                u[:, 2] = rng.normal(0.0, ens.sigma, size=len(idx)) if ens.sigma > 0 else 0.0
            else:
                u = rng.normal(0.0, ens.sigma, size=(len(idx), 3)) if ens.sigma > 0 else np.zeros((len(idx), 3))
            batches.append(u)
    if coherent:
        per_sample, finish = (lambda s: s), (lambda m: abs(m) ** 2)
    else:
        per_sample, finish = (lambda s: np.abs(s) ** 2), (lambda m: m)
    total, n_total, batch_vals = 0.0, 0, []
    for u in batches:
        v = per_sample(np.exp(1j * (u @ geom.k_vectors.T)).sum(axis=1))
        batch_vals.append(finish(v.mean()))
        total += v.sum()
        n_total += len(v)
    stderr = float(np.std(batch_vals, ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else None
    return float(finish(total / n_total)), stderr


_C = lamb._CHUNK_ROWS


@pytest.mark.parametrize("model, sigma", [
    ("longitudinal-gaussian", 5.0e-12), ("isotropic-gaussian", 2.0e-11), ("isotropic-gaussian", 0.0),
])
@pytest.mark.parametrize("n_samples", [1, 31, 33, 32 * _C, 32 * _C + 1, 32 * (2 * _C + 5) + 7],
                         ids=["1", "31", "33", "one-chunk", "one-chunk+1", "short-last-chunk"])
def test_chunked_mc_matches_whole_batches_bit_for_bit(bragg_geom, model, sigma, n_samples):
    # chunked draws and phases give the same numbers as whole-batch arrays:
    # one draw in consecutive chunks equals one draw, and the batch sums
    # still run over whole batch vectors
    ens = DisplacementEnsemble(model=model, sigma=sigma, n_samples=n_samples, seed=17)
    for est, coherent in ((flm_coherent_mc, True), (flm_incoherent_mc, False)):
        out = est(bragg_geom, ens)
        assert (out.value, out.stderr) == _whole_batch_mc(bragg_geom, ens, coherent)


@pytest.mark.parametrize("n", [1, 33, 32 * _C + 45])
def test_chunked_mc_matches_whole_batches_on_explicit_samples(bragg_geom, n):
    samples = np.random.default_rng(n).normal(scale=3.0e-12, size=(n, 3))
    ens = DisplacementEnsemble(model="explicit-samples", samples=samples)
    for est, coherent in ((flm_coherent_mc, True), (flm_incoherent_mc, False)):
        out = est(bragg_geom, ens)
        assert (out.value, out.stderr) == _whole_batch_mc(bragg_geom, ens, coherent)


def test_explicit_samples_are_copied_once():
    # float32 rows are converted straight into the ensemble's own array
    samples = np.zeros((100_000, 3), dtype=np.float32)
    tracemalloc.start()
    try:
        ens = DisplacementEnsemble(model="explicit-samples", samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * ens.samples.nbytes
