"""Tri-gamma cone geometry and the Bragg condition on the fcc lattice.

The working frame puts the channel axis along +z.  Three wavevectors of
equal magnitude sit on a cone of half-angle theta at azimuths 0, 2*pi/3
and 4*pi/3; their pairwise differences are in-plane vectors of magnitude
sqrt(3)*k*sin(theta) at azimuths that are odd multiples of 30 degrees.
The Bragg condition closes when those differences coincide with
reciprocal-lattice vectors, which fixes both theta and the azimuthal
orientation of the crystal.  The frame rotation stored on ``LatticeSpec``
therefore aligns the shortest in-plane reciprocal vector with the
azimuth of ``k2 - k3`` (90 degrees).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Azimuths of the pairwise differences k1-k2, k2-k3, k3-k1 (radians).
_PAIRS = ((0, 1), (1, 2), (2, 0))


def rotation_about_z(angle: float) -> np.ndarray:
    """3x3 rotation matrix about +z."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_aligning(a, b) -> np.ndarray:
    """Rotation matrix R with R @ a parallel to b (a, b nonzero 3-vectors)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cannot align zero vectors")
    a, b = a / na, b / nb
    if float(np.dot(a, b)) < 0.0:
        # 1/(1+c) below is ill-conditioned near antiparallel: align a with
        # -b instead, then turn by pi about an axis perpendicular to b.
        axis = np.cross(b, np.eye(3)[np.argmin(np.abs(b))])
        axis /= np.linalg.norm(axis)
        return (2.0 * np.outer(axis, axis) - np.eye(3)) @ _rotation_aligning_acute(a, -b)
    return _rotation_aligning_acute(a, b)


def _rotation_aligning_acute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rodrigues rotation taking unit a to unit b, for a . b >= 0."""
    v = np.cross(a, b)
    c = float(np.dot(a, b))
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


@dataclass(frozen=True)
class TriGammaGeometry:
    """Three equal-magnitude wavevectors on a cone about +z.

    Attributes
    ----------
    k_mag : float
        Single-photon wavenumber (1/m).
    theta : float
        Cone half-angle (rad).
    phis : ndarray, shape (3,)
        Azimuths (n-1)*2*pi/3.
    k_vectors : ndarray, shape (3, 3)
        Row n is the n-th wavevector (1/m).
    k_entangled : ndarray, shape (3,)
        Mean wavevector, exactly k_mag*cos(theta) along +z.
    e_pols : ndarray, shape (3, 3)
        Row n is the azimuthal polarization unit vector at phi_n.
    """

    k_mag: float
    theta: float
    phis: np.ndarray
    k_vectors: np.ndarray
    k_entangled: np.ndarray
    e_pols: np.ndarray


def build_trigamma(k_mag: float, theta: float) -> TriGammaGeometry:
    """Construct the three-wavevector cone geometry.

    Parameters
    ----------
    k_mag : float
        Wavenumber of each photon (1/m), > 0.
    theta : float
        Cone half-angle (rad), in [0, pi/2).
    """
    if not k_mag > 0.0:
        raise DomainError(f"k_mag must be positive, got {k_mag!r}")
    if not (0.0 <= theta < np.pi / 2):
        raise DomainError(f"theta must lie in [0, pi/2), got {theta!r}")
    phis = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    k_vectors = k_mag * np.column_stack(
        [sin_t * np.cos(phis), sin_t * np.sin(phis), cos_t * np.ones(3)]
    )
    # analytically equal to the mean of k_vectors; built directly so the
    # transverse components are exactly zero
    k_entangled = np.array([0.0, 0.0, k_mag * cos_t])
    e_pols = np.column_stack([-np.sin(phis), np.cos(phis), np.zeros(3)])
    for arr in (phis, k_vectors, k_entangled, e_pols):
        arr.setflags(write=False)
    return TriGammaGeometry(float(k_mag), float(theta), phis, k_vectors, k_entangled, e_pols)


@dataclass(frozen=True)
class LatticeSpec:
    """fcc lattice with a designated channel direction.

    ``rotation`` maps crystal (conventional cubic) coordinates into the
    working frame: channel_axis goes to +z and the shortest reciprocal
    vector perpendicular to the channel is placed at azimuth 90 degrees
    (see module docstring).  Computed once at construction.
    """

    a: float
    channel_axis: tuple[float, float, float] = (1.0, 1.0, 1.0)
    g_shell_cutoff: int = 4
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.a > 0.0:
            raise DomainError(f"lattice constant must be positive, got {self.a!r}")
        axis = np.asarray(self.channel_axis, dtype=float)
        if axis.shape != (3,) or np.linalg.norm(axis) == 0.0:
            raise DomainError(f"channel_axis must be a nonzero 3-vector, got {self.channel_axis!r}")
        if self.g_shell_cutoff < 0:
            raise DomainError("g_shell_cutoff must be nonnegative")
        r1 = rotation_aligning(axis, [0.0, 0.0, 1.0])
        miller = _fcc_miller_indices(self.g_shell_cutoff)
        rot = r1
        if len(miller):
            g_cry = miller * (2.0 * np.pi / self.a)
            in_plane = np.abs(g_cry @ axis) <= 1e-9 * np.linalg.norm(g_cry, axis=1) * np.linalg.norm(axis)
            if np.any(in_plane):
                g_in = g_cry[in_plane]
                m_in = miller[in_plane]
                norms = np.linalg.norm(g_in, axis=1)
                shortest = np.isclose(norms, norms.min(), rtol=1e-12)
                order = np.lexsort((m_in[:, 2], m_in[:, 1], m_in[:, 0]))
                ref_idx = order[np.nonzero(shortest[order])[0][0]]
                g_ref = r1 @ g_in[ref_idx]
                rot = rotation_about_z(np.pi / 2 - np.arctan2(g_ref[1], g_ref[0])) @ r1
        rot.setflags(write=False)
        object.__setattr__(self, "rotation", rot)

    @property
    def primitive_vectors(self) -> np.ndarray:
        """fcc primitive translation vectors in the working frame, rows (3, 3)."""
        prim = 0.5 * self.a * np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        return prim @ self.rotation.T


def _fcc_miller_indices(cutoff: int) -> np.ndarray:
    """Conventional-cell Miller indices with nonzero fcc structure factor.

    h, k, l all even or all odd, |h|,|k|,|l| <= cutoff, origin excluded.
    """
    if cutoff < 1:
        return np.zeros((0, 3), dtype=int)
    rng = np.arange(-cutoff, cutoff + 1)
    h, k, l = np.meshgrid(rng, rng, rng, indexing="ij")
    hkl = np.column_stack([h.ravel(), k.ravel(), l.ravel()])
    parity = hkl % 2
    same = (parity == parity[:, :1]).all(axis=1)
    nonzero = np.any(hkl != 0, axis=1)
    return hkl[same & nonzero]


def _reciprocal_table(lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal vectors in the working frame (N, 3) and their Miller rows."""
    miller = _fcc_miller_indices(lattice.g_shell_cutoff)
    g_cry = miller * (2.0 * np.pi / lattice.a)
    return g_cry @ lattice.rotation.T, miller


def reciprocal_vectors(lattice: LatticeSpec) -> np.ndarray:
    """All fcc reciprocal vectors within the cutoff shell, working frame (N, 3)."""
    return _reciprocal_table(lattice)[0]


@dataclass(frozen=True)
class BraggCandidate:
    """One solution of the Bragg condition.

    ``g_vectors`` rows match the pairwise differences k1-k2, k2-k3, k3-k1;
    ``miller`` holds the corresponding conventional-cell indices.
    """

    theta: float
    g_vectors: np.ndarray
    miller: np.ndarray
    residual: float


def verify_bragg(geom: TriGammaGeometry, lattice: LatticeSpec, tol: float = 1e-9):
    """Check that every pairwise wavevector difference is a reciprocal vector.

    Returns
    -------
    (bool, float)
        Whether all three differences match within relative ``tol``, and
        the worst relative residual |k_n - k_m - G| / |G|.
    """
    g_all, _ = _reciprocal_table(lattice)
    if len(g_all) == 0:
        return False, np.inf
    worst = 0.0
    for n, m in _PAIRS:
        d = geom.k_vectors[n] - geom.k_vectors[m]
        dist = np.linalg.norm(g_all - d, axis=1)
        j = int(np.argmin(dist))
        worst = max(worst, dist[j] / np.linalg.norm(g_all[j]))
    return bool(worst <= tol), float(worst)


def bragg_angle_solve(
    k_mag: float,
    lattice: LatticeSpec,
    tol: float = 1e-9,
) -> list[BraggCandidate]:
    """Find cone angles where all pairwise differences hit reciprocal vectors.

    Every difference k_n - k_m is in-plane with magnitude
    sqrt(3)*k*sin(theta), so each in-plane reciprocal shell of magnitude
    |G| < sqrt(3)*k gives the single angle theta = arcsin(|G| / (sqrt(3)*k)).
    Shells are the in-plane magnitudes grouped to relative 1e-12.  A shell
    is a solution only if its vectors also lie at the three difference
    azimuths, so each candidate angle is kept only when ``verify_bragg``
    passes at ``tol``.  No solution yields an empty list.

    Parameters
    ----------
    k_mag : float
        Photon wavenumber (1/m).
    lattice : LatticeSpec
        Lattice with stored working-frame rotation.
    tol : float
        Relative residual accepted by the verification.
    """
    if not k_mag > 0.0:
        raise DomainError(f"k_mag must be positive, got {k_mag!r}")
    g_all, miller = _reciprocal_table(lattice)
    norms = np.linalg.norm(g_all, axis=1)
    shells = np.sort(norms[np.abs(g_all[:, 2]) <= 1e-9 * norms])
    shells = shells[np.diff(shells, prepend=-np.inf) > 1e-12 * shells]
    ratios = shells / (np.sqrt(3.0) * k_mag)
    candidates: list[BraggCandidate] = []
    for theta in np.arcsin(ratios[ratios < 1.0]):
        geom = build_trigamma(k_mag, float(theta))
        ok, worst = verify_bragg(geom, lattice, tol)
        if not ok:
            continue
        diffs = np.array([geom.k_vectors[n] - geom.k_vectors[m] for n, m in _PAIRS])
        rows = np.linalg.norm(g_all - diffs[:, None], axis=2).argmin(axis=1)
        candidates.append(
            BraggCandidate(
                theta=float(theta),
                g_vectors=g_all[rows],
                miller=miller[rows],
                residual=float(worst),
            )
        )
    return candidates
