"""Strict JSON run configuration.

One file drives every subcommand.  Parsing is strict: keys outside the
schema are rejected with their full dotted path, so typos never silently
fall back to defaults.  Section builders check each value's JSON type,
naming its dotted key in a ``ConfigError``, and return the validated
domain objects.  Range errors are ``DomainError``: from the domain types
themselves, or from the builders of ``beat_grid`` and ``fieldmap``,
which have none.
"""

from __future__ import annotations

import json
import numbers
from importlib import resources

import numpy as np

from .beat import BeatParams, _check_kernel
from .constants import RhodiumParams, photon_wavenumber
from .errors import ConfigError, DomainError
from .fitting import FitConfig
from .geometry import LatticeSpec, TriGammaGeometry, bragg_angle_solve, build_trigamma
from .lamb import DisplacementEnsemble


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


# leaf types: (what the value must be, its test)
_NUMBER = ("a number", _is_number)
_INTEGER = ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
_STRING = ("a string", lambda v: isinstance(v, str))
_NUMBERS = ("a list of numbers", lambda v: _is_list(v, _is_number))
_STRINGS = ("a list of strings", lambda v: _is_list(v, lambda x: isinstance(x, str)))
_BOUNDS = ("an object of [lo, hi] number pairs",
           lambda v: isinstance(v, dict) and all(_is_list(b, _is_number) and len(b) == 2 for b in v.values()))
_OPTIONAL_NUMBER = ("a number or null", lambda v: v is None or _is_number(v))

# schema: nested dict of allowed keys; leaves are their types
_SCHEMA = {
    "rhodium": {
        "tau0": _NUMBER, "gamma_energy": _NUMBER, "depth_photoelectric": _NUMBER,
        "depth_nuclear": _NUMBER, "expansion_coeff": _NUMBER, "specific_heat": _NUMBER,
        "density": _NUMBER, "lattice_constant": _NUMBER, "sample_dims": _NUMBERS,
        "stored_energy": _NUMBER,
    },
    "lattice": {"channel_axis": _NUMBERS, "g_shell_cutoff": _INTEGER},
    "geometry": {"theta_rad": _OPTIONAL_NUMBER},
    "ensemble": {"model": _STRING, "sigma": _NUMBER, "n_samples": _INTEGER, "seed": _INTEGER},
    "flm": {"estimator": _STRING},
    "beat": {"n0": _NUMBER, "tau0": _NUMBER, "tau_d": _NUMBER, "phi0": _NUMBER,
             "t_pump": _NUMBER, "background": _NUMBER, "kernel": _STRING},
    "kalpha_scale": _NUMBER,
    "binning": {"width_s": _NUMBER, "horizon_s": _NUMBER},
    "seed": _INTEGER,
    "fieldmap": {"center": _NUMBERS, "extent_cells": _NUMBER, "n": _INTEGER},
    "beat_grid": {"t_start_s": _NUMBER, "t_stop_s": _NUMBER, "n": _INTEGER},
    "fit": {"free_params": _STRINGS, "bounds": _BOUNDS},
    "outputs": {"gamma_csv": _STRING, "kalpha_csv": _STRING},
}


def _typed(where: str, value, leaf):
    """``value`` if it has the type of schema ``leaf``, else a ConfigError naming ``where``."""
    what, ok = leaf
    if not ok(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


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
        if isinstance(schema[parts[-1]], dict):
            _check_keys(value, schema[parts[-1]], dotted)
        node = self._data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value

    def _section(self, name) -> dict:
        """The section's keys, each checked against its schema type."""
        return {key: _typed(f"{name}.{key}", value, _SCHEMA[name][key])
                for key, value in self._data.get(name, {}).items()}

    def scalar(self, name, default):
        if name not in self._data:
            return default
        return _typed(name, self._data[name], _SCHEMA[name])

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
        kernel = self._section("beat").get("kernel", "cos2")
        _check_kernel(kernel)
        return kernel

    def binning(self) -> tuple[float, float]:
        b = self._section("binning")
        try:
            return float(b["width_s"]), float(b["horizon_s"])
        except KeyError as exc:
            raise ConfigError(f"binning section needs {exc.args[0]!r}") from exc

    def seed(self) -> int:
        return int(self.scalar("seed", 0))

    def fieldmap(self) -> tuple[np.ndarray, float, int]:
        fm = self._section("fieldmap")
        center = np.asarray(fm.get("center", [0.0, 0.0, 0.0]), dtype=float)
        extent = float(fm.get("extent_cells", 2.0))
        n = int(fm.get("n", 41))
        if center.shape != (3,):
            raise ConfigError("fieldmap.center must be a 3-vector")
        if extent <= 0.0 or n < 2:
            raise DomainError("fieldmap needs extent_cells > 0 and n >= 2")
        return center, extent, n

    def beat_grid(self) -> np.ndarray:
        bg = self._section("beat_grid")
        try:
            t0, t1, n = float(bg["t_start_s"]), float(bg["t_stop_s"]), int(bg["n"])
        except KeyError as exc:
            raise ConfigError(f"beat_grid section needs {exc.args[0]!r}") from exc
        if not (t0 >= 0.0 and t1 > t0 and n >= 2):
            raise DomainError("beat_grid needs 0 <= t_start_s < t_stop_s and n >= 2")
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
