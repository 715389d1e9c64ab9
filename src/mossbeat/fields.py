"""Superposed mode fields of the tri-gamma channel and their transforms.

The electric field is the sum of three azimuthally polarized plane waves,
E(r) = sum_n e_n exp(i k_n . r), with unit amplitude per mode.  The
magnetic field uses the free-wave relation B_n = k_hat_n x e_n per mode
(units with c = 1 and the same amplitude convention as E).  When the
Bragg condition holds, every pairwise phase (k_n - k_m) . r is a multiple
of 2*pi on lattice sites, so the three polarizations add with a common
phase and cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import DomainError, _check_seed
from .geometry import LatticeSpec, TriGammaGeometry, verify_bragg


def _mode_sum(geom: TriGammaGeometry, r, pols: np.ndarray) -> np.ndarray:
    """sum_n pols[n] exp(i k_n . r) at point(s) r."""
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    pts = np.atleast_2d(r)
    if pts.shape[-1] != 3:
        raise DomainError(f"points must be 3-vectors, got shape {r.shape}")
    phases = pts @ geom.k_vectors.T
    out = np.exp(1j * phases) @ pols
    return out[0] if single else out


def evaluate_E(geom: TriGammaGeometry, r) -> np.ndarray:
    """Complex electric field at point(s) r.

    Parameters
    ----------
    r : array_like, shape (3,) or (N, 3)
        Evaluation points (m).

    Returns
    -------
    ndarray, complex, same leading shape as r
    """
    return _mode_sum(geom, r, geom.e_pols)


def evaluate_B(geom: TriGammaGeometry, r) -> np.ndarray:
    """Complex magnetic field at point(s) r, free-wave convention (c = 1)."""
    return _mode_sum(geom, r, np.cross(geom.k_vectors / geom.k_mag, geom.e_pols))


@dataclass(frozen=True)
class FieldState:
    """Complex E and B 3-vectors at one point."""

    E: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.E, dtype=complex)
        b = np.asarray(self.B, dtype=complex)
        if e.shape != (3,) or b.shape != (3,):
            raise DomainError("FieldState needs two 3-vectors")
        if not (np.all(np.isfinite(e.view(float))) and np.all(np.isfinite(b.view(float)))):
            raise DomainError("FieldState components must be finite")
        e.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "B", b)

    def invariants(self) -> tuple[float, float]:
        """Lorentz invariants (|E|^2 - |B|^2, Re(E . B*))."""
        s1 = float(np.sum(np.abs(self.E) ** 2) - np.sum(np.abs(self.B) ** 2))
        s2 = float(np.real(np.dot(self.E, np.conj(self.B))))
        return s1, s2


def field_state(geom: TriGammaGeometry, r) -> FieldState:
    """Evaluate both fields at a single point."""
    return FieldState(evaluate_E(geom, r), evaluate_B(geom, r))


def cancellation_residual(
    geom: TriGammaGeometry,
    lattice: LatticeSpec,
    n_sites: int,
    seed: int = 0,
    span: int = 20,
    grid_n: int = 12,
) -> float:
    """Worst |E| over random lattice sites, relative to the off-site field scale.

    Sites are integer combinations n1 a1 + n2 a2 + n3 a3 of the primitive
    vectors with coefficients drawn uniformly from [-span, span].  The
    normalization is the maximum |E| over a regular grid spanning one
    conventional cell.  Requires the geometry to satisfy the Bragg
    condition on ``lattice``; raises ``DomainError`` otherwise.
    """
    ok, worst = verify_bragg(geom, lattice)
    if not ok:
        raise DomainError(
            f"geometry is not Bragg-matched to the lattice (residual {worst:.3e})"
        )
    if n_sites < 0:
        raise DomainError("n_sites must be nonnegative")
    _check_seed(seed)
    if n_sites == 0:
        warnings.warn("n_sites = 0: cancellation residual is trivially 0", stacklevel=2)
        return 0.0
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-span, span + 1, size=(n_sites, 3))
    sites = coeffs @ lattice.primitive_vectors
    e_sites = np.linalg.norm(evaluate_E(geom, sites), axis=1)

    frac = (np.arange(grid_n) + 0.5) / grid_n
    fx, fy, fz = np.meshgrid(frac, frac, frac, indexing="ij")
    cell = np.column_stack([fx.ravel(), fy.ravel(), fz.ravel()]) * lattice.a
    cell = cell @ lattice.rotation.T
    e_scale = np.linalg.norm(evaluate_E(geom, cell), axis=1).max()
    return float(e_sites.max() / e_scale)


def transverse_antisymmetry(geom: TriGammaGeometry, site, delta) -> float:
    """Odd-parity defect of E around ``site`` for an in-plane offset.

    Returns |E(site+d) + E(site-d)| / |E(site+d) - E(site-d)|.  The offset
    must be nonzero and perpendicular to +z (relative z-component below
    1e-12); at a cancellation site the numerator vanishes to first order
    in |d| while the denominator is linear in |d|.
    """
    site = np.asarray(site, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if site.shape != (3,) or delta.shape != (3,):
        raise DomainError("site and delta must be 3-vectors")
    nd = np.linalg.norm(delta)
    if nd == 0.0:
        raise DomainError("delta must be nonzero")
    if abs(delta[2]) > 1e-12 * nd:
        raise DomainError("delta must be transverse (zero z-component)")
    e_plus = evaluate_E(geom, site + delta)
    e_minus = evaluate_E(geom, site - delta)
    num = np.linalg.norm(e_plus + e_minus)
    den = np.linalg.norm(e_plus - e_minus)
    if den == 0.0:
        return np.inf if num > 0.0 else 0.0
    return float(num / den)


def lorentz_transform(fs: FieldState, beta) -> FieldState:
    """Boost the field pair by velocity ``beta`` (units of c).

    Componentwise real-linear in (E, B), applied to the complex amplitudes:

        E' = g (E + beta x B) - g^2/(g+1) beta (beta . E)
        B' = g (B - beta x E) - g^2/(g+1) beta (beta . B)

    with g the Lorentz factor.  Requires |beta| < 1.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise DomainError("beta must be a 3-vector")
    b2 = float(np.dot(beta, beta))
    if b2 >= 1.0:
        raise DomainError(f"|beta| must be below 1, got |beta| = {np.sqrt(b2)!r}")
    gamma = 1.0 / np.sqrt(1.0 - b2)
    coef = gamma * gamma / (gamma + 1.0)
    e, b = fs.E, fs.B
    e_new = gamma * (e + np.cross(beta, b)) - coef * beta * np.dot(beta, e)
    b_new = gamma * (b - np.cross(beta, e)) - coef * beta * np.dot(beta, b)
    return FieldState(e_new, b_new)


def longitudinal_B_invariance_check(fs: FieldState, beta, tol: float = 1e-12) -> bool:
    """True if the state is pure B along ``beta`` and the boost preserves it.

    Checks |E| = 0, the component of B perpendicular to beta = 0, and
    |B' - B| = 0 after ``lorentz_transform``, all within ``tol`` relative
    to max(|B|, 1).  A zero boost is trivially invariant for pure-B states.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise DomainError("beta must be a 3-vector")
    nb = np.linalg.norm(beta)
    if nb >= 1.0:
        raise DomainError(f"|beta| must be below 1, got {nb!r}")
    scale = max(float(np.linalg.norm(fs.B)), 1.0)
    if np.linalg.norm(fs.E) > tol * scale:
        return False
    if nb == 0.0:
        return True
    # scale before normalizing: for |beta| below about 1e-154 the square
    # in nb is subnormal and carries too few digits for a unit vector
    b_hat = beta / np.max(np.abs(beta))
    b_hat = b_hat / np.linalg.norm(b_hat)
    b_perp = fs.B - b_hat * np.dot(b_hat, fs.B)
    if np.linalg.norm(b_perp) > tol * scale:
        return False
    out = lorentz_transform(fs, beta)
    return bool(np.linalg.norm(out.B - fs.B) <= tol * scale)
