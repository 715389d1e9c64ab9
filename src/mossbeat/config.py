"""Strict JSON run configuration.

One file drives every subcommand.  Parsing is strict: keys outside the
schema are rejected with their full dotted path, so typos never silently
fall back to defaults.  Section builders return the validated domain
objects; value errors surface from the domain types themselves.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .beat import BeatParams
from .constants import RhodiumParams, photon_wavenumber
from .errors import ConfigError
from .fitting import FitConfig
from .geometry import LatticeSpec, TriGammaGeometry, bragg_angle_solve, build_trigamma
from .lamb import DisplacementEnsemble

# schema: nested dict of allowed keys; leaves are None
_SCHEMA = {
    "rhodium": {
        "tau0": None, "gamma_energy": None, "depth_photoelectric": None,
        "depth_nuclear": None, "expansion_coeff": None, "specific_heat": None,
        "density": None, "lattice_constant": None, "sample_dims": None,
        "stored_energy": None,
    },
    "lattice": {"channel_axis": None, "g_shell_cutoff": None},
    "geometry": {"theta_rad": None},
    "ensemble": {"model": None, "sigma": None, "n_samples": None, "seed": None},
    "flm": {"estimator": None},
    "beat": {"n0": None, "tau0": None, "tau_d": None, "phi0": None,
             "t_pump": None, "background": None, "kernel": None},
    "kalpha_scale": None,
    "binning": {"width_s": None, "horizon_s": None},
    "seed": None,
    "fieldmap": {"center": None, "extent_cells": None, "n": None},
    "beat_grid": {"t_start_s": None, "t_stop_s": None, "n": None},
    "fit": {"free_params": None, "bounds": None},
    "outputs": {"gamma_csv": None, "kalpha_csv": None},
}


def _check_keys(data, schema, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or '<root>'} must be a JSON object")
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {where!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(value, sub, where)


class RunConfig:
    """Validated run configuration with domain-object builders."""

    def __init__(self, data: dict):
        _check_keys(data, _SCHEMA)
        self._data = data

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        return cls(data)

    @classmethod
    def default(cls) -> "RunConfig":
        text = resources.files("mossbeat").joinpath("data/default_config.json").read_text()
        return cls(json.loads(text))

    def set_path(self, dotted: str, value) -> None:
        """Override one key by dotted path; the path must be in the schema."""
        parts = dotted.split(".")
        schema = _SCHEMA
        for part in parts[:-1]:
            if not isinstance(schema, dict) or part not in schema:
                raise ConfigError(f"unknown config key {dotted!r}")
            schema = schema[part]
        if not isinstance(schema, dict) or parts[-1] not in schema:
            raise ConfigError(f"unknown config key {dotted!r}")
        node = self._data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value

    def _section(self, name) -> dict:
        return dict(self._data.get(name, {}))

    def scalar(self, name, default):
        return self._data.get(name, default)

    def rhodium(self) -> RhodiumParams:
        kw = self._section("rhodium")
        if "sample_dims" in kw:
            kw["sample_dims"] = tuple(kw["sample_dims"])
        return RhodiumParams(**kw)

    def lattice(self) -> LatticeSpec:
        kw = self._section("lattice")
        if "channel_axis" in kw:
            kw["channel_axis"] = tuple(kw["channel_axis"])
        return LatticeSpec(a=self.rhodium().lattice_constant, **kw)

    def geometry(self) -> TriGammaGeometry:
        """Cone geometry at the configured angle, or the first Bragg solution."""
        k_mag = photon_wavenumber(self.rhodium().gamma_energy)
        theta = self._section("geometry").get("theta_rad")
        if theta is None:
            candidates = bragg_angle_solve(k_mag, self.lattice())
            if not candidates:
                raise ConfigError("no Bragg solution for the configured lattice; set geometry.theta_rad")
            theta = candidates[0].theta
        return build_trigamma(k_mag, float(theta))

    def ensemble(self) -> DisplacementEnsemble:
        return DisplacementEnsemble(**self._section("ensemble"))

    def flm_estimator(self) -> str:
        est = self._section("flm").get("estimator", "coherent")
        if est not in ("coherent", "incoherent"):
            raise ConfigError(f"flm.estimator must be coherent or incoherent, got {est!r}")
        return est

    def beat(self) -> BeatParams:
        kw = self._section("beat")
        kw.pop("kernel", None)
        return BeatParams(**kw)

    def kernel(self) -> str:
        return self._section("beat").get("kernel", "cos2")

    def binning(self) -> tuple[float, float]:
        b = self._section("binning")
        try:
            return float(b["width_s"]), float(b["horizon_s"])
        except KeyError as exc:
            raise ConfigError(f"binning section needs {exc.args[0]!r}") from exc

    def seed(self) -> int:
        return int(self._data.get("seed", 0))

    def fieldmap(self) -> tuple[np.ndarray, float, int]:
        fm = self._section("fieldmap")
        center = np.asarray(fm.get("center", [0.0, 0.0, 0.0]), dtype=float)
        extent = float(fm.get("extent_cells", 2.0))
        n = int(fm.get("n", 41))
        if center.shape != (3,):
            raise ConfigError("fieldmap.center must be a 3-vector")
        if extent <= 0.0 or n < 2:
            raise ConfigError("fieldmap needs extent_cells > 0 and n >= 2")
        return center, extent, n

    def beat_grid(self) -> np.ndarray:
        bg = self._section("beat_grid")
        try:
            t0, t1, n = float(bg["t_start_s"]), float(bg["t_stop_s"]), int(bg["n"])
        except KeyError as exc:
            raise ConfigError(f"beat_grid section needs {exc.args[0]!r}") from exc
        if not (t0 >= 0.0 and t1 > t0 and n >= 2):
            raise ConfigError("beat_grid needs 0 <= t_start_s < t_stop_s and n >= 2")
        return np.linspace(t0, t1, n)

    def fit(self) -> FitConfig:
        kw = self._section("fit")
        if "free_params" in kw:
            kw["free_params"] = tuple(kw["free_params"])
        if "bounds" in kw:
            kw["bounds"] = {k: tuple(v) for k, v in kw["bounds"].items()}
        return FitConfig(base=self.beat(), **kw)

    def outputs(self) -> dict:
        return self._section("outputs")
