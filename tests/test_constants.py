import math

import pytest
import scipy.constants

from mossbeat import constants
from mossbeat import (
    DEFAULT_RHODIUM,
    DomainError,
    RhodiumParams,
    doppler_speed_per_linewidth,
    natural_linewidth,
    photon_wavenumber,
    thermal_strain_rate,
)

# oracle constants derived in place from the exact SI defining constants,
# independent of the package source
H_PLANCK_JS = 6.62607015e-34
E_CHARGE_C = 1.602176634e-19
C_ORACLE = 299792458.0
HBAR_EVS_ORACLE = H_PLANCK_JS / (2.0 * math.pi * E_CHARGE_C)
HBARC_EVM_ORACLE = HBAR_EVS_ORACLE * C_ORACLE


def test_natural_linewidth_value():
    assert natural_linewidth(4857.0) == pytest.approx(HBAR_EVS_ORACLE / 4857.0, rel=1e-12)
    # order of magnitude the transition is known for
    assert 1.0e-19 <= natural_linewidth(4857.0) <= 2.0e-19


def test_si_literals_match_scipy_constants():
    sc = scipy.constants
    assert constants.HBAR_EVS == sc.hbar / sc.e
    assert constants.HBARC_EVM == sc.hbar * sc.c / sc.e
    assert constants.C_LIGHT == sc.c


def test_natural_linewidth_rejects_nonpositive():
    with pytest.raises(DomainError):
        natural_linewidth(0.0)
    with pytest.raises(DomainError):
        natural_linewidth(-3.0)


def test_doppler_speed_value():
    v = doppler_speed_per_linewidth(DEFAULT_RHODIUM)
    expected = C_ORACLE * (HBAR_EVS_ORACLE / 4857.0) / 40.0e3
    assert v == pytest.approx(expected, rel=1e-12)
    assert 0.8e-15 <= v <= 1.2e-15


def test_photon_wavenumber_value():
    k = photon_wavenumber(40.0e3)
    assert k == pytest.approx(40.0e3 / HBARC_EVM_ORACLE, rel=1e-12)
    with pytest.raises(DomainError):
        photon_wavenumber(0.0)


def test_thermal_strain_rate_oracle():
    p = DEFAULT_RHODIUM
    # alpha * (E_stored / tau0) / (rho * V * c_p), spelled out by hand
    mass = p.density * p.sample_dims[0] * p.sample_dims[1] * p.sample_dims[2]
    expected = p.expansion_coeff * (p.stored_energy / p.tau0) / (mass * p.specific_heat)
    got = thermal_strain_rate(p)
    assert got == pytest.approx(expected, rel=1e-12)
    assert math.isclose(got, 1.0e-12, rel_tol=1.0)  # within a factor of 2


def test_thermal_strain_rate_linear_in_stored_energy():
    base = thermal_strain_rate(DEFAULT_RHODIUM)
    doubled = thermal_strain_rate(RhodiumParams(stored_energy=2.0e-3))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    assert thermal_strain_rate(RhodiumParams(stored_energy=0.0)) == 0.0


def test_rhodium_params_validation():
    with pytest.raises(DomainError):
        RhodiumParams(tau0=-1.0)
    with pytest.raises(DomainError):
        RhodiumParams(gamma_energy=0.0)
    with pytest.raises(DomainError):
        RhodiumParams(stored_energy=-1.0e-6)
    with pytest.raises(DomainError):
        RhodiumParams(sample_dims=(1.0e-2, -1.0e-2, 1.0e-3))
    with pytest.raises(DomainError):
        RhodiumParams(depth_nuclear=60e-6)  # must stay below depth_photoelectric
    # zero stored energy is a legitimate limit
    RhodiumParams(stored_energy=0.0)


def test_rhodium_params_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_RHODIUM.tau0 = 1.0
