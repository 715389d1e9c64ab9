"""Toolkit for three-photon Borrmann-channel decay experiments on
rhodium: cone geometry against the fcc lattice, entangled-mode field
sums, recoil-free fraction estimates, slow quantum-beat count models,
Poisson simulation and parameter recovery.
"""

from .beat import (
    BeatParams,
    accumulated_intensity,
    beat_curve,
    beat_minima,
    bessel_j0,
    bessel_j0_asymptotic,
    bin_expected_counts,
    count_rate,
    tau_d,
)
from .config import RunConfig
from .constants import (
    DEFAULT_RHODIUM,
    RhodiumParams,
    doppler_speed_per_linewidth,
    natural_linewidth,
    photon_wavenumber,
    thermal_strain_rate,
)
from .csvio import (
    read_count_series,
    read_ratio_series,
    write_count_series,
    write_ratio_series,
)
from .errors import ConfigError, DomainError, StructuralError
from .fields import (
    FieldState,
    cancellation_residual,
    evaluate_B,
    evaluate_E,
    field_state,
    longitudinal_B_invariance_check,
    lorentz_transform,
    transverse_antisymmetry,
)
from .fitting import FitConfig, FitResult, chi2, fit_beat
from .geometry import (
    BraggCandidate,
    LatticeSpec,
    TriGammaGeometry,
    bragg_angle_solve,
    build_trigamma,
    reciprocal_vectors,
    rotation_about_z,
    rotation_aligning,
    verify_bragg,
)
from .lamb import (
    DisplacementEnsemble,
    FlmResult,
    flm_closed_form,
    flm_coherent_mc,
    flm_incoherent_mc,
)
from .spectra import (
    CountSeries,
    RatioSeries,
    kalpha_bin_expected,
    normalize,
    rebin,
    simulate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "BeatParams",
    "BraggCandidate",
    "ConfigError",
    "CountSeries",
    "DEFAULT_RHODIUM",
    "DisplacementEnsemble",
    "DomainError",
    "FieldState",
    "FitConfig",
    "FitResult",
    "FlmResult",
    "LatticeSpec",
    "RatioSeries",
    "RhodiumParams",
    "RunConfig",
    "StructuralError",
    "TriGammaGeometry",
    "accumulated_intensity",
    "beat_curve",
    "beat_minima",
    "bessel_j0",
    "bessel_j0_asymptotic",
    "bin_expected_counts",
    "bragg_angle_solve",
    "build_trigamma",
    "cancellation_residual",
    "chi2",
    "count_rate",
    "doppler_speed_per_linewidth",
    "evaluate_B",
    "evaluate_E",
    "field_state",
    "fit_beat",
    "flm_closed_form",
    "flm_coherent_mc",
    "flm_incoherent_mc",
    "kalpha_bin_expected",
    "longitudinal_B_invariance_check",
    "lorentz_transform",
    "natural_linewidth",
    "normalize",
    "photon_wavenumber",
    "read_count_series",
    "read_ratio_series",
    "rebin",
    "reciprocal_vectors",
    "rotation_about_z",
    "rotation_aligning",
    "simulate_counts",
    "tau_d",
    "thermal_strain_rate",
    "transverse_antisymmetry",
    "verify_bragg",
    "write_count_series",
    "write_ratio_series",
]
