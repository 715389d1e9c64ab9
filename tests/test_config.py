import json
import re

import numpy as np
import pytest

from mossbeat import (
    BeatParams,
    ConfigError,
    DisplacementEnsemble,
    DomainError,
    FitConfig,
    LatticeSpec,
    RhodiumParams,
    RunConfig,
    TriGammaGeometry,
)


def test_default_config_builds_everything():
    cfg = RunConfig.default()
    assert isinstance(cfg.rhodium(), RhodiumParams)
    assert isinstance(cfg.lattice(), LatticeSpec)
    assert isinstance(cfg.geometry(), TriGammaGeometry)
    assert isinstance(cfg.ensemble(), DisplacementEnsemble)
    assert isinstance(cfg.beat(), BeatParams)
    assert isinstance(cfg.fit(), FitConfig)
    assert cfg.flm_estimator() in ("coherent", "incoherent")
    width, horizon = cfg.binning()
    assert width > 0.0 and horizon >= width
    grid = cfg.beat_grid()
    assert grid.ndim == 1 and len(grid) > 1


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig({"mystery": 1})
    assert "mystery" in str(err.value)
    with pytest.raises(ConfigError) as err:
        RunConfig({"beat": {"n0": 1.0, "wobble": 2}})
    assert "beat.wobble" in str(err.value)


def test_from_file_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"beat": {"n0": }}')
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(path)
    msg = str(err.value)
    assert "line 1" in msg and "column" in msg


def test_from_file_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: not ")):
        RunConfig.from_file(path)


def test_from_file_happy(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"beat": {"tau_d": 777.0}}))
    cfg = RunConfig.from_file(path)
    assert cfg.beat().tau_d == 777.0


def test_set_path():
    cfg = RunConfig.default()
    cfg.set_path("beat.tau_d", 123.0)
    assert cfg.beat().tau_d == 123.0
    cfg.set_path("seed", 99)
    assert cfg.seed() == 99
    with pytest.raises(ConfigError):
        cfg.set_path("beat.nope", 1)
    with pytest.raises(ConfigError):
        cfg.set_path("nope", 1)


def test_geometry_uses_explicit_theta():
    cfg = RunConfig({"geometry": {"theta_rad": 0.2}})
    assert cfg.geometry().theta == 0.2


def test_geometry_solves_when_theta_null():
    cfg = RunConfig({"geometry": {"theta_rad": None}})
    geom = cfg.geometry()
    assert np.degrees(geom.theta) == pytest.approx(7.65, abs=0.01)


def test_fit_builder_carries_base_and_bounds():
    cfg = RunConfig(
        {
            "beat": {"tau_d": 500.0, "phi0": 0.1},
            "fit": {"free_params": ["n0", "tau_d"], "bounds": {"tau_d": [1.0, 1e6]}},
        }
    )
    fit_cfg = cfg.fit()
    assert fit_cfg.free_params == ("n0", "tau_d")
    assert fit_cfg.base.tau_d == 500.0
    assert fit_cfg.base.phi0 == 0.1
    assert fit_cfg.bounds["tau_d"] == (1.0, 1e6)


def test_kernel_selection():
    assert RunConfig({}).kernel() == "cos2"
    cfg = RunConfig({"beat": {"kernel": "j0sq"}})
    assert cfg.kernel() == "j0sq"
    # the kernel tag must not leak into BeatParams construction
    assert cfg.beat() == BeatParams()
    with pytest.raises(DomainError, match="unknown kernel 'foo'"):
        RunConfig({"beat": {"kernel": "foo"}}).kernel()


def test_flm_estimator_validation():
    with pytest.raises(ConfigError):
        RunConfig({"flm": {"estimator": "quantum"}}).flm_estimator()


def test_fieldmap_builder():
    cfg = RunConfig({"fieldmap": {"center": [1e-10, 0.0, 0.0], "extent_cells": 3.0, "n": 11}})
    center, extent, n = cfg.fieldmap()
    assert np.array_equal(center, [1e-10, 0.0, 0.0])
    assert extent == 3.0
    assert n == 11


def test_section_values_type_checked():
    # a wrong JSON type names its dotted key; a range error stays the
    # domain type's own
    for data, key in (
        ({"beat": {"tau_d": "485.7"}}, "beat.tau_d"),
        ({"beat": {"phi0": True}}, "beat.phi0"),
        ({"lattice": {"g_shell_cutoff": 4.0}}, "lattice.g_shell_cutoff"),
        ({"fit": {"bounds": {"tau_d": [1.0]}}}, "fit.bounds"),
        ({"seed": "7"}, "seed"),
    ):
        cfg = RunConfig(data)
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            {"beat": cfg.beat, "lattice": cfg.lattice, "fit": cfg.fit, "seed": cfg.seed}[key.split(".")[0]]()
    with pytest.raises(DomainError):
        RunConfig({"beat": {"tau_d": -1.0}}).beat()


def test_set_path_section_must_be_object():
    cfg = RunConfig.default()
    with pytest.raises(ConfigError, match="section beat"):
        cfg.set_path("beat", 3)
    with pytest.raises(ConfigError, match="beat.wobble"):
        cfg.set_path("beat", {"wobble": 1})
