import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mossbeat import (
    DomainError,
    LatticeSpec,
    bragg_angle_solve,
    build_trigamma,
    photon_wavenumber,
    reciprocal_vectors,
    rotation_about_z,
    rotation_aligning,
    verify_bragg,
)
from mossbeat.geometry import _fcc_miller_indices

A_RH = 3.8034e-10


def test_rotation_about_z_quarter_turn():
    r = rotation_about_z(np.pi / 2)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(r @ [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], atol=1e-15)


@given(st.floats(-10.0, 10.0))
def test_rotation_about_z_orthonormal(angle):
    r = rotation_about_z(angle)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_rotation_aligning_maps_direction(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    r = rotation_aligning(a, b)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    got = r @ (a / np.linalg.norm(a))
    assert np.allclose(got, b / np.linalg.norm(b), atol=1e-9)


def test_rotation_aligning_antiparallel():
    r = rotation_aligning([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    assert np.allclose(r @ [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], atol=1e-14)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_build_trigamma_structure(k40):
    geom = build_trigamma(k40, 0.2)
    # all three wavevectors have magnitude k and share the z-component
    assert np.allclose(np.linalg.norm(geom.k_vectors, axis=1), k40, rtol=1e-14)
    assert np.allclose(geom.k_vectors[:, 2], k40 * np.cos(0.2), rtol=1e-14)
    assert np.allclose(geom.k_entangled, [0.0, 0.0, k40 * np.cos(0.2)], rtol=1e-14)
    # azimuthal polarizations 120 degrees apart, summing to zero
    assert np.allclose(geom.e_pols.sum(axis=0), 0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(geom.e_pols, axis=1), 1.0, rtol=1e-14)
    # each polarization is transverse to its own wavevector
    for k_vec, e_vec in zip(geom.k_vectors, geom.e_pols):
        assert abs(np.dot(k_vec, e_vec)) <= 1e-9 * k40


def test_build_trigamma_rejects_bad_inputs():
    with pytest.raises(DomainError):
        build_trigamma(0.0, 0.1)
    with pytest.raises(DomainError):
        build_trigamma(1.0, -0.1)
    with pytest.raises(DomainError):
        build_trigamma(1.0, np.pi / 2)


def test_trigamma_arrays_read_only(k40):
    geom = build_trigamma(k40, 0.1)
    with pytest.raises(ValueError):
        geom.k_vectors[0, 0] = 0.0


@given(st.floats(0.01, 1.5))
@settings(max_examples=30)
def test_pairwise_differences(theta):
    geom = build_trigamma(1.0, theta)
    expected = math.sqrt(3.0) * math.sin(theta)
    for n, m in itertools.combinations(range(3), 2):
        d = geom.k_vectors[n] - geom.k_vectors[m]
        assert np.linalg.norm(d) == pytest.approx(expected, rel=1e-12)
        assert d[2] == pytest.approx(0.0, abs=1e-15)


def test_fcc_miller_selection_rule():
    # oracle: structure factor of the 4-atom conventional basis
    basis = np.array([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])
    cutoff = 3
    allowed = set()
    for hkl in itertools.product(range(-cutoff, cutoff + 1), repeat=3):
        if hkl == (0, 0, 0):
            continue
        s = np.exp(2j * np.pi * (basis @ np.asarray(hkl))).sum()
        if abs(s) > 1e-9:
            assert abs(s - 4.0) < 1e-12  # fcc reflections carry the full basis
            allowed.add(hkl)
    got = {tuple(int(v) for v in row) for row in _fcc_miller_indices(cutoff)}
    assert got == allowed


def test_fcc_miller_empty_below_one():
    assert len(_fcc_miller_indices(0)) == 0


def test_reciprocal_vectors_integral_phases():
    lattice = LatticeSpec(a=A_RH)
    g = reciprocal_vectors(lattice)
    phases = g @ lattice.primitive_vectors.T / (2.0 * np.pi)
    assert np.allclose(phases, np.round(phases), atol=1e-9)


def test_lattice_orientation_places_short_g_on_y():
    # the working frame puts one shortest in-plane reciprocal vector at
    # azimuth 90 degrees so a pairwise difference can match it
    lattice = LatticeSpec(a=A_RH)
    g = reciprocal_vectors(lattice)
    in_plane = g[np.abs(g[:, 2]) < 1e-6 * np.linalg.norm(g, axis=1)]
    assert len(in_plane) > 0
    norms = np.linalg.norm(in_plane, axis=1)
    short = in_plane[np.isclose(norms, norms.min(), rtol=1e-9)]
    units = short / np.linalg.norm(short, axis=1)[:, None]
    assert np.any(np.all(np.abs(units - [0.0, 1.0, 0.0]) < 1e-9, axis=1))


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(a=-1.0)
    with pytest.raises(DomainError):
        LatticeSpec(a=A_RH, channel_axis=(0, 0, 0))


def test_bragg_angle_first_candidate_oracle(k40, lattice111):
    candidates = bragg_angle_solve(k40, lattice111)
    assert candidates
    # oracle: difference magnitude sqrt(3) k sin(theta) equals |G| of the
    # shortest (2,2,0)-type reflection, 2*pi*sqrt(8)/a
    g_short = 2.0 * np.pi * math.sqrt(8.0) / A_RH
    theta_expected = math.asin(g_short / (math.sqrt(3.0) * k40))
    assert candidates[0].theta == pytest.approx(theta_expected, rel=1e-12)
    assert math.degrees(candidates[0].theta) == pytest.approx(7.65, abs=0.01)
    assert candidates[0].residual <= 1e-12


def test_bragg_second_candidate_is_double_shell(k40, lattice111):
    candidates = bragg_angle_solve(k40, lattice111)
    assert len(candidates) >= 2
    g_next = 2.0 * np.pi * math.sqrt(32.0) / A_RH
    theta_expected = math.asin(g_next / (math.sqrt(3.0) * k40))
    assert candidates[1].theta == pytest.approx(theta_expected, rel=1e-10)
    sq = np.sum(candidates[1].miller.astype(int) ** 2, axis=1)
    assert np.all(sq == 32)


def test_bragg_cutoff_six_gives_three_collinear_shells(k40):
    # in-plane shells at cutoff 6 are |G|^2 = 8, 24, 32, 56, 72 (2*pi/a)^2;
    # only the (2,2,0) direction and its multiples sit at the difference
    # azimuths, so 24 and 56 must be rejected
    lattice = LatticeSpec(a=A_RH, g_shell_cutoff=6)
    candidates = bragg_angle_solve(k40, lattice)
    assert len(candidates) == 3
    for cand, g_sq in zip(candidates, (8.0, 32.0, 72.0)):
        g = 2.0 * np.pi * math.sqrt(g_sq) / A_RH
        assert cand.theta == pytest.approx(math.asin(g / (math.sqrt(3.0) * k40)), rel=1e-12)
        assert np.all(np.sum(cand.miller.astype(int) ** 2, axis=1) == g_sq)


@pytest.mark.parametrize(
    "axis, cutoff",
    [((0, 0, 1), 4), ((1, 1, 0), 4), ((1, 2, 3), 4), ((1, 1, 1), 0)],
)
def test_bragg_no_solution_is_empty(k40, axis, cutoff):
    lattice = LatticeSpec(a=A_RH, channel_axis=axis, g_shell_cutoff=cutoff)
    assert bragg_angle_solve(k40, lattice) == []


def test_bragg_candidates_all_verify(k40, lattice111):
    for cand in bragg_angle_solve(k40, lattice111):
        geom = build_trigamma(k40, cand.theta)
        ok, worst = verify_bragg(geom, lattice111)
        assert ok
        assert worst <= 1e-9


def test_verify_bragg_rejects_detuned(k40, lattice111):
    geom = build_trigamma(k40, 0.25)
    ok, _ = verify_bragg(geom, lattice111)
    assert not ok


def test_verify_bragg_empty_table(k40):
    geom = build_trigamma(k40, 0.1)
    lattice = LatticeSpec(a=A_RH, g_shell_cutoff=0)
    ok, worst = verify_bragg(geom, lattice)
    assert not ok
    assert worst == np.inf


def test_bragg_angles_sorted_and_distinct(k40, lattice111):
    thetas = [c.theta for c in bragg_angle_solve(k40, lattice111)]
    assert thetas == sorted(thetas)
    assert len(set(np.round(thetas, 12))) == len(thetas)
