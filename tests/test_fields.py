import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mossbeat import (
    DomainError,
    FieldState,
    LatticeSpec,
    build_trigamma,
    cancellation_residual,
    evaluate_B,
    evaluate_E,
    field_state,
    longitudinal_B_invariance_check,
    lorentz_transform,
    transverse_antisymmetry,
)


def _field_oracle(geom, r, pols):
    """Plain python-loop plane-wave sum, written independently."""
    total = np.zeros(3, dtype=complex)
    for k_vec, e_vec in zip(geom.k_vectors, pols):
        total = total + e_vec * np.exp(1j * np.dot(k_vec, np.asarray(r, dtype=float)))
    return total


def test_evaluate_e_matches_loop_oracle(open_geom):
    rng = np.random.default_rng(7)
    pts = rng.normal(scale=1e-10, size=(20, 3))
    got = evaluate_E(open_geom, pts)
    for p, row in zip(pts, got):
        assert np.allclose(row, _field_oracle(open_geom, p, open_geom.e_pols), atol=1e-14)


def test_evaluate_b_matches_loop_oracle(open_geom):
    # magnetic polarization of each mode is k_hat x e
    b_pols = np.cross(
        open_geom.k_vectors / np.linalg.norm(open_geom.k_vectors, axis=1)[:, None],
        open_geom.e_pols,
    )
    rng = np.random.default_rng(8)
    pts = rng.normal(scale=1e-10, size=(10, 3))
    got = evaluate_B(open_geom, pts)
    for p, row in zip(pts, got):
        assert np.allclose(row, _field_oracle(open_geom, p, b_pols), atol=1e-14)


def test_field_vanishes_at_origin(open_geom):
    # polarizations sum to zero, so every phase-free point is dark
    assert np.linalg.norm(evaluate_E(open_geom, [0.0, 0.0, 0.0])) <= 1e-15


def test_evaluate_e_shape_handling(open_geom):
    single = evaluate_E(open_geom, [1e-10, 0.0, 0.0])
    assert single.shape == (3,)
    batch = evaluate_E(open_geom, [[1e-10, 0.0, 0.0]])
    assert batch.shape == (1, 3)
    assert np.allclose(single, batch[0])
    with pytest.raises(DomainError):
        evaluate_E(open_geom, [1.0, 2.0])


def test_cancellation_at_lattice_sites(bragg_geom, lattice111):
    residual = cancellation_residual(bragg_geom, lattice111, n_sites=200, seed=3)
    assert residual <= 1e-10


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_cancellation_rejects_bad_seed(bragg_geom, lattice111, seed):
    # a negative seed used to reach numpy's ValueError
    with pytest.raises(DomainError, match=f"^seed must be a nonnegative integer, got {seed!r}$"):
        cancellation_residual(bragg_geom, lattice111, 5, seed=seed)


def test_cancellation_requires_bragg_match(open_geom, lattice111):
    with pytest.raises(DomainError):
        cancellation_residual(open_geom, lattice111, n_sites=10)


def test_cancellation_zero_sites_warns(bragg_geom, lattice111):
    with pytest.warns(UserWarning):
        assert cancellation_residual(bragg_geom, lattice111, n_sites=0) == 0.0
    with pytest.raises(DomainError):
        cancellation_residual(bragg_geom, lattice111, n_sites=-1)


def test_transverse_antisymmetry_at_site(bragg_geom, lattice111):
    # even terms of the field enter at second order in delta, so the
    # residual is small for small offsets and shrinks roughly linearly
    site = lattice111.primitive_vectors[0] + 2.0 * lattice111.primitive_vectors[2]
    d = 1e-3 * lattice111.a
    for direction in ([1.0, 0.0, 0.0], [0.6, -0.8, 0.0]):
        delta = d * np.asarray(direction)
        res = transverse_antisymmetry(bragg_geom, site, delta)
        assert res <= 1e-2
        res_tenth = transverse_antisymmetry(bragg_geom, site, delta / 10.0)
        assert res_tenth <= 0.2 * res


def test_transverse_antisymmetry_input_checks(bragg_geom):
    with pytest.raises(DomainError):
        transverse_antisymmetry(bragg_geom, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        transverse_antisymmetry(bragg_geom, [0.0, 0.0, 0.0], [1e-12, 0.0, 1e-12])


def test_field_state_validation():
    with pytest.raises(DomainError):
        FieldState([1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        FieldState([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0])
    fs = FieldState([1.0 + 2j, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        fs.E[0] = 0.0


def _random_state(rng) -> FieldState:
    return FieldState(
        rng.normal(size=3) + 1j * rng.normal(size=3),
        rng.normal(size=3) + 1j * rng.normal(size=3),
    )


def _boost_tensor_oracle(fs: FieldState, beta):
    """Boost E and B through the rank-2 field tensor, F' = L F L^T."""
    beta = np.asarray(beta, dtype=float)
    b2 = beta @ beta
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam = np.zeros((4, 4))
    lam[0, 0] = gamma
    lam[0, 1:] = lam[1:, 0] = -gamma * beta
    lam[1:, 1:] = np.eye(3)
    if b2 > 0.0:
        lam[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    e, b = fs.E, fs.B
    f = np.array(
        [
            [0.0, -e[0], -e[1], -e[2]],
            [e[0], 0.0, -b[2], b[1]],
            [e[1], b[2], 0.0, -b[0]],
            [e[2], -b[1], b[0], 0.0],
        ],
        dtype=complex,
    )
    fp = lam @ f @ lam.T
    e_out = np.array([fp[1, 0], fp[2, 0], fp[3, 0]])
    b_out = np.array([fp[3, 2], fp[1, 3], fp[2, 1]])
    return e_out, b_out


def test_lorentz_transform_matches_tensor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        fs = _random_state(rng)
        beta = rng.uniform(-0.55, 0.55, size=3)  # |beta| < 0.96
        out = lorentz_transform(fs, beta)
        e_ref, b_ref = _boost_tensor_oracle(fs, beta)
        assert np.allclose(out.E, e_ref, atol=1e-12)
        assert np.allclose(out.B, b_ref, atol=1e-12)


def test_lorentz_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(25):
        fs = _random_state(rng)
        beta = rng.uniform(-0.5, 0.5, size=3)
        back = lorentz_transform(lorentz_transform(fs, beta), -beta)
        assert np.allclose(back.E, fs.E, atol=1e-12)
        assert np.allclose(back.B, fs.B, atol=1e-12)


def test_lorentz_preserves_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        fs = _random_state(rng)
        beta = rng.uniform(-0.5, 0.5, size=3)
        s1, s2 = fs.invariants()
        t1, t2 = lorentz_transform(fs, beta).invariants()
        scale = max(abs(s1), abs(s2), 1.0)
        assert abs(t1 - s1) <= 1e-10 * scale
        assert abs(t2 - s2) <= 1e-10 * scale


def test_lorentz_rejects_superluminal():
    fs = FieldState([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        lorentz_transform(fs, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        lorentz_transform(fs, [0.8, 0.8, 0.0])


@given(st.floats(-0.9, 0.9), st.floats(0.1, 2.0), st.floats(0.0, 2 * np.pi))
@settings(max_examples=40)
def test_longitudinal_b_invariance(beta_z, amp, phase):
    fs = FieldState([0.0, 0.0, 0.0], [0.0, 0.0, amp * np.exp(1j * phase)])
    assert longitudinal_B_invariance_check(fs, [0.0, 0.0, beta_z])


def test_longitudinal_b_invariance_tiny_boost():
    # |beta|^2 is subnormal here; the boost direction must still be exact
    fs = FieldState([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert longitudinal_B_invariance_check(fs, [0.0, 0.0, 1.824142201298661e-161])
    tilted = FieldState([0.0, 0.0, 0.0], [3.0, 4.0, 0.0])
    assert longitudinal_B_invariance_check(tilted, [3e-160, 4e-160, 0.0])


def test_longitudinal_b_invariance_rejects_transverse():
    fs = FieldState([0.0, 0.0, 0.0], [1.0, 0.0, 1.0])
    assert not longitudinal_B_invariance_check(fs, [0.0, 0.0, 0.5])
    with_e = FieldState([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert not longitudinal_B_invariance_check(with_e, [0.0, 0.0, 0.5])


def test_field_state_helper(open_geom):
    r = [1e-10, 2e-10, 0.0]
    fs = field_state(open_geom, r)
    assert np.allclose(fs.E, evaluate_E(open_geom, r))
    assert np.allclose(fs.B, evaluate_B(open_geom, r))
