"""Physical constants of the 103mRh Mossbauer system and derived scalar estimates.

Everything is SI internally; photon energies are carried in eV because that
is the natural unit at the I/O boundary.  The default parameter set lives in
``DEFAULT_RHODIUM`` and is mirrored by the shipped JSON config
(``data/default_config.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Planck constant, elementary charge and speed of light are exact in SI
# 2019; hbar in eV*s and hbar*c in eV*m follow from them in the same
# arithmetic as scipy.constants
_H_PLANCK = 6.62607015e-34  # J*s
_HBAR = _H_PLANCK / (2 * np.pi)  # J*s
_E_CHARGE = 1.602176634e-19  # C
C_LIGHT = 299792458.0  # m/s
HBAR_EVS = _HBAR / _E_CHARGE
HBARC_EVM = _HBAR * C_LIGHT / _E_CHARGE

# Mean lifetime of the 39.75-keV Mossbauer state of 103mRh (seconds).
TAU0_S = 4857.0

# Round 40-keV gamma energy used throughout; the crystallographic value of
# the transition energy is kept as an escape hatch.
GAMMA_ENERGY_EV = 40.0e3
GAMMA_ENERGY_EV_PRECISE = 39.75e3

# fcc lattice constant of rhodium at room temperature (meters).  External
# crystallographic data, not part of the measured parameter set.
RHODIUM_LATTICE_CONSTANT_M = 3.8034e-10


@dataclass(frozen=True)
class RhodiumParams:
    """Rhodium sample parameters.

    Attributes
    ----------
    tau0 : float
        Mean lifetime of the Mossbauer state (s).
    gamma_energy : float
        Mossbauer gamma energy (eV).
    depth_photoelectric : float
        Non-Borrmann photo-electric penetration depth (m).
    depth_nuclear : float
        Non-Borrmann nuclear-scattering penetration depth (m).
    expansion_coeff : float
        Linear thermal expansion coefficient (1/K).
    specific_heat : float
        Specific heat capacity (J/(K*kg)).
    density : float
        Mass density (kg/m^3).
    lattice_constant : float
        fcc lattice constant (m).
    sample_dims : tuple
        Sample dimensions (m, m, m).
    stored_energy : float
        Energy held in the Mossbauer state after irradiation (J).
    """

    tau0: float = TAU0_S
    gamma_energy: float = GAMMA_ENERGY_EV
    depth_photoelectric: float = 50e-6
    depth_nuclear: float = 22e-6
    expansion_coeff: float = 8.5e-6
    specific_heat: float = 244.0
    density: float = 12.4e3
    lattice_constant: float = RHODIUM_LATTICE_CONSTANT_M
    sample_dims: tuple[float, float, float] = (2.5e-2, 2.5e-2, 1.0e-3)
    stored_energy: float = 1.0e-3

    def __post_init__(self):
        scalars = {
            "tau0": self.tau0,
            "gamma_energy": self.gamma_energy,
            "depth_photoelectric": self.depth_photoelectric,
            "depth_nuclear": self.depth_nuclear,
            "expansion_coeff": self.expansion_coeff,
            "specific_heat": self.specific_heat,
            "density": self.density,
            "lattice_constant": self.lattice_constant,
        }
        for name, value in scalars.items():
            if not np.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be strictly positive, got {value!r}")
        # zero is allowed here so the no-stored-energy limit stays expressible
        if not np.isfinite(self.stored_energy) or self.stored_energy < 0.0:
            raise DomainError(f"stored_energy must be nonnegative, got {self.stored_energy!r}")
        if len(self.sample_dims) != 3 or any(d <= 0.0 for d in self.sample_dims):
            raise DomainError(f"sample_dims must be three positive lengths, got {self.sample_dims!r}")
        if not self.depth_nuclear < self.depth_photoelectric:
            raise DomainError(
                "depth_nuclear must be smaller than depth_photoelectric "
                f"({self.depth_nuclear!r} >= {self.depth_photoelectric!r})"
            )

    @property
    def sample_volume(self) -> float:
        """Sample volume (m^3)."""
        a, b, c = self.sample_dims
        return a * b * c


DEFAULT_RHODIUM = RhodiumParams()


def natural_linewidth(tau0: float) -> float:
    """Energy width of the resonance, Gamma = hbar / tau0, in eV.

    Parameters
    ----------
    tau0 : float
        Mean lifetime of the excited state (s).
    """
    if not tau0 > 0.0:
        raise DomainError(f"tau0 must be positive, got {tau0!r}")
    return HBAR_EVS / tau0


def doppler_speed_per_linewidth(params: RhodiumParams) -> float:
    """Doppler speed that shifts the resonance by one natural linewidth (m/s).

    v = c * Gamma / E_gamma; about a femtometer per second for the rhodium
    transition.
    """
    gamma = natural_linewidth(params.tau0)
    return C_LIGHT * gamma / params.gamma_energy


def thermal_strain_rate(params: RhodiumParams) -> float:
    """Initial fractional-length decay rate of the thermal strain (1/s).

    The stored excitation energy decays with time constant tau0, so the
    initial heating power is ``stored_energy / tau0``.  The strain rate is
    the expansion coefficient times the resulting heating rate,

        rate = alpha * P / (m * c_p),

    with m the sample mass.  Linear in ``stored_energy`` by construction;
    ``stored_energy = 0`` is allowed and gives zero.
    """
    volume = params.sample_volume
    if volume <= 0.0:
        raise DomainError("sample volume must be positive")
    power = params.stored_energy / params.tau0
    mass = params.density * volume
    return params.expansion_coeff * power / (mass * params.specific_heat)


def photon_wavenumber(gamma_energy: float) -> float:
    """Photon wavenumber k = E / (hbar c) in 1/m for an energy in eV."""
    if not gamma_energy > 0.0:
        raise DomainError(f"gamma_energy must be positive, got {gamma_energy!r}")
    return gamma_energy / HBARC_EVM
