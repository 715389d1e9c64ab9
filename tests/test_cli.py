import csv
import io
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mossbeat import (
    DEFAULT_RHODIUM,
    BeatParams,
    RunConfig,
    doppler_speed_per_linewidth,
    fit_beat,
    natural_linewidth,
    read_count_series,
    read_ratio_series,
    simulate_counts,
    thermal_strain_rate,
    write_count_series,
)
import mossbeat
from mossbeat.cli import run_cli


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_estimate_values(capsys):
    assert run_cli(["estimate"]) == 0
    rows = {r["name"]: float(r["value"]) for r in _rows(capsys.readouterr().out)}
    assert rows["natural_linewidth_eV"] == natural_linewidth(DEFAULT_RHODIUM.tau0)
    assert rows["doppler_speed_m_per_s"] == doppler_speed_per_linewidth(DEFAULT_RHODIUM)
    assert rows["thermal_strain_rate_per_s"] == thermal_strain_rate(DEFAULT_RHODIUM)
    assert rows["tau_d_over_tau0"] == pytest.approx(0.88, rel=1e-12)


def test_estimate_json(capsys):
    assert run_cli(["estimate", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "natural_linewidth_eV",
        "doppler_speed_m_per_s",
        "thermal_strain_rate_per_s",
        "tau_d_s",
        "tau_d_over_tau0",
    }


def test_bragg_output(capsys):
    assert run_cli(["bragg", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["theta_deg"] == pytest.approx(7.65, abs=0.01)
    assert all(c["residual"] <= 1e-9 for c in data)


def test_beat_matches_library(capsys):
    assert run_cli(["beat", "--set", "beat_grid.n=4"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    cfg = RunConfig.default()
    cfg.set_path("beat_grid.n", 4)
    from mossbeat import beat_curve

    ref = beat_curve(cfg.beat(), cfg.beat_grid())
    got = np.array([[float(r["t_s"]), float(r["intensity"])] for r in rows])
    assert np.array_equal(got, ref)


def test_fieldmap_grid(capsys):
    assert run_cli(["fieldmap", "--set", "fieldmap.n=5"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 25
    assert set(rows[0]) == {
        "x_m", "y_m", "z_m", "re_ex", "im_ex", "re_ey", "im_ey", "re_ez", "im_ez", "abs_e",
    }


def test_flm_closed_form_row(capsys):
    assert run_cli(["flm", "--set", "ensemble.n_samples=5000", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "coherent_mc" in data and "closed_form" in data
    assert abs(data["coherent_mc"]["value"] - data["closed_form"]["value"]) <= max(
        3.0 * (data["coherent_mc"]["stderr"] or 0.0), 1e-9
    )


# each formatted command, small, and the CSV rows its JSON output carries
_JSON_AS_ROWS = {
    "estimate": ([], lambda data: [{"name": k, "value": v} for k, v in data.items()]),
    "bragg": ([], lambda data: [
        {"candidate": i, "theta_rad": c["theta_rad"], "theta_deg": c["theta_deg"],
         "h": h, "k": k, "l": l, "residual": c["residual"]}
        for i, c in enumerate(data) for h, k, l in c["miller"]
    ]),
    "fieldmap": (["--set", "fieldmap.n=5"], lambda data: data),
    "flm": (["--set", "ensemble.n_samples=5000"], lambda data: [{"estimator": k, **v} for k, v in data.items()]),
    "beat": (["--set", "beat_grid.n=4"], lambda data: [
        {"t_s": t, "intensity": v} for t, v in zip(data["t_s"], data["intensity"])
    ]),
}


def _csv_value(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("command", list(_JSON_AS_ROWS))
def test_csv_and_json_carry_the_same_numbers(capsys, command):
    argv, json_as_rows = _JSON_AS_ROWS[command]
    assert run_cli([command, *argv]) == 0
    csv_rows = [{k: _csv_value(v) for k, v in row.items()} for row in _rows(capsys.readouterr().out)]
    assert run_cli([command, *argv, "--format", "json"]) == 0
    json_rows = json_as_rows(json.loads(capsys.readouterr().out))
    if command == "bragg":  # the CSV adds each g vector's length
        assert all(row.pop("g_per_m") > 0.0 for row in csv_rows)
    assert len(csv_rows) > 0
    assert csv_rows == json_rows


def test_simulate_writes_reproducible_files(tmp_path, capsys):
    prefix = str(tmp_path / "runA")
    args = [
        "simulate",
        "--out", prefix,
        "--set", "binning.width_s=600",
        "--set", "binning.horizon_s=18000",
    ]
    assert run_cli(args) == 0
    capsys.readouterr()
    first = (tmp_path / "runA_gamma.csv").read_bytes()
    assert run_cli(args) == 0
    capsys.readouterr()
    assert (tmp_path / "runA_gamma.csv").read_bytes() == first
    gamma = read_count_series(tmp_path / "runA_gamma.csv")
    kalpha = read_count_series(tmp_path / "runA_kalpha.csv")
    assert gamma.channel == "gamma"
    assert kalpha.channel == "kalpha"
    assert len(gamma) == 30


def test_simulate_without_out_writes_the_configured_files(tmp_path, monkeypatch, capsys):
    # the packaged config names gamma.csv and kalpha.csv, in the working directory
    monkeypatch.chdir(tmp_path)
    assert run_cli(["simulate", "--set", "binning.width_s=600", "--set", "binning.horizon_s=6000"]) == 0
    assert capsys.readouterr().out == "gamma.csv\nkalpha.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gamma.csv", "kalpha.csv"]
    assert read_count_series(tmp_path / "gamma.csv").channel == "gamma"
    assert read_count_series(tmp_path / "kalpha.csv").channel == "kalpha"


def test_seed_flag_changes_counts(tmp_path, capsys):
    base = ["simulate", "--set", "binning.width_s=600", "--set", "binning.horizon_s=6000"]
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli(base + ["--out", a]) == 0
    assert run_cli(base + ["--out", b, "--seed", "7"]) == 0
    capsys.readouterr()
    ca = read_count_series(a + "_gamma.csv").counts
    cb = read_count_series(b + "_gamma.csv").counts
    assert not np.array_equal(ca, cb)


def test_simulate_fit_normalize_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    sim = [
        "simulate",
        "--out", prefix,
        "--set", "beat.n0=400.0",
        "--set", "beat.tau_d=485.7",
        "--set", "binning.width_s=24",
        "--set", "binning.horizon_s=14400",
    ]
    assert run_cli(sim) == 0
    capsys.readouterr()

    fit_out = tmp_path / "fit.json"
    fit = [
        "fit",
        "--data", prefix + "_gamma.csv",
        "--out", str(fit_out),
        "--set", "beat.tau_d=2000.0",
        "--set", "beat.phi0=0.0",
    ]
    assert run_cli(fit) == 0
    result = json.loads(fit_out.read_text())
    assert result["converged"]
    assert result["params"]["tau_d"] == pytest.approx(485.7, rel=0.05)
    assert result["dof"] == 600 - 3
    assert len(result["covariance"]) == 3

    ratio_out = tmp_path / "ratio.csv"
    assert run_cli([
        "normalize",
        "--gamma", prefix + "_gamma.csv",
        "--kalpha", prefix + "_kalpha.csv",
        "--out", str(ratio_out),
    ]) == 0
    ratio = read_ratio_series(ratio_out)
    assert len(ratio) == 600


def test_fit_json_reports_evaluations(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    assert run_cli(["simulate", "--out", prefix]) == 0
    capsys.readouterr()
    assert run_cli(["fit", "--data", prefix + "_gamma.csv"]) == 0
    result = json.loads(capsys.readouterr().out)
    expected = fit_beat(read_count_series(prefix + "_gamma.csv"), RunConfig.default().fit())
    assert result["evaluations"] == expected.evaluations
    assert result["params"]["tau_d"] == expected.params.tau_d


def test_normalize_stdout_matches_ratio_file(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    assert run_cli(["simulate", "--out", prefix, "--set", "kalpha_scale=0.0005"]) == 0
    capsys.readouterr()
    args = ["normalize", "--gamma", prefix + "_gamma.csv", "--kalpha", prefix + "_kalpha.csv"]
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    assert run_cli(args + ["--out", str(tmp_path / "ratio.csv")]) == 0
    assert printed == (tmp_path / "ratio.csv").read_text()
    assert "nan,nan" in printed  # empty kalpha bins go through the same writer


@pytest.mark.parametrize("files", [("kalpha", "gamma"), ("gamma", "gamma")], ids=["swapped", "same_file"])
def test_normalize_rejects_wrong_channels(tmp_path, capsys, files):
    prefix = str(tmp_path / "run")
    assert run_cli(["simulate", "--out", prefix]) == 0
    capsys.readouterr()
    out = tmp_path / "ratio.csv"
    args = ["normalize", "--gamma", f"{prefix}_{files[0]}.csv", "--kalpha", f"{prefix}_{files[1]}.csv"]
    assert run_cli(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: normalize takes a gamma and a kalpha series, got {files[0]!r} and {files[1]!r}\n"
    assert not out.exists()


def test_config_file_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beat": {"tau_d": 1234.5}}))
    assert run_cli(["estimate", "--config", str(path)]) == 0
    capsys.readouterr()


def test_config_rejects_removed_phase_grid(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fit": {"phase_grid": 8}}))
    assert run_cli(["fit", "--config", str(path), "--data", str(tmp_path / "unused.csv")]) == 2
    assert "fit.phase_grid" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["max_iters", "tolerance"])
def test_config_rejects_removed_fit_options(tmp_path, capsys, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fit": {key: 1}}))
    assert run_cli(["fit", "--config", str(path), "--data", str(tmp_path / "unused.csv")]) == 2
    assert f"fit.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "unused.csv"],
    ["simulate"],
    ["normalize", "--gamma", "unused.csv", "--kalpha", "unused.csv"],
], ids=["fit", "simulate", "normalize"])
def test_format_only_where_honoured(tmp_path, monkeypatch, capsys, argv):
    # these commands write one fixed format, so --format is a usage error
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["--help"]) == 0
    assert run_cli(["estimate", "--set", "bogus.key=1"]) == 2
    assert run_cli(["fit", "--data", str(tmp_path / "missing.csv")]) == 2
    assert run_cli(["beat", "--set", "beat.tau0=-5"]) == 1
    assert run_cli(["beat", "--set", "beat.tau_d=1e-300"]) == 1  # too many panels to count
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run_cli(["estimate", "--config", str(broken)]) == 2
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,b\n1,2\n")
    assert run_cli(["fit", "--data", str(bad_csv)]) == 1
    capsys.readouterr()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert run_cli(["estimate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not ") and err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b"t_start_s,width_s,counts,channel\n0,1,99999999999999999999,gamma\n",
     "error: line 2: counts must fit in a 64-bit integer, got 99999999999999999999\n"),
    (b"t_start_s,width_s,counts,channel\n0,inf,3,gamma\n5,1,2,gamma\n",
     "error: line 2: width_s must be finite, got inf\n"),
    (b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\xff\xd8", "error: "),
    # a valid count file whose first bin starts before the pump: the model's
    # edges are checked before any panel is laid, so no RuntimeWarning
    (b"t_start_s,width_s,counts,channel\n-360.0,360.0,50,gamma\n0.0,360.0,40,gamma\n360.0,360.0,30,gamma\n"
     b"720.0,360.0,25,gamma\n1080.0,360.0,20,gamma\n",
     "error: edges must be finite, nonnegative and strictly increasing\n"),
    # fewer bins than the three free parameters
    (b"t_start_s,width_s,counts,channel\n0,24,5,gamma\n24,24,7,gamma\n",
     "error: series has 2 kept bins, fewer than its 3 free parameters\n"),
], ids=["count-beyond-int64", "infinite-width", "binary", "negative-start", "two-bins"])
@pytest.mark.filterwarnings("error")
def test_fit_bad_data_exits_1(tmp_path, capsys, content, message):
    data = tmp_path / "data.csv"
    data.write_bytes(content)
    assert run_cli(["fit", "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["flm", "--set", "ensemble.seed=-5"],
], ids=["simulate", "flm"])
def test_negative_seed_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed must be a nonnegative integer, got -")
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "fit"])
@pytest.mark.parametrize("kernel, message", [
    ("j0sq", "error: {} models beat.kernel 'cos2' only, got 'j0sq'"),
    ("foo", "error: unknown kernel 'foo', expected one of"),
])
def test_simulate_and_fit_need_cos2_kernel(tmp_path, monkeypatch, capsys, command, kernel, message):
    # both used to ignore beat.kernel: simulate wrote the cos2 series and fit
    # fitted cos2, for j0sq and for an unknown name alike; fit checks the
    # kernel before it reads its data
    monkeypatch.chdir(tmp_path)
    argv = [command, "--set", f"beat.kernel={kernel}"] + (["--data", "absent.csv"] if command == "fit" else [])
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message.format(command))
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


def test_set_flag_requires_equals(capsys):
    assert run_cli(["estimate", "--set", "justakey"]) == 2
    capsys.readouterr()


def _fresh_env() -> dict:
    """The environment for a fresh interpreter that imports this mossbeat."""
    src = str(Path(mossbeat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded after ``code`` runs in a fresh interpreter
    (this test process has scipy loaded already)."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), check=True)
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import mossbeat") == "[]"


def test_fit_and_minima_load_no_scipy():
    code = (
        "from dataclasses import replace\n"
        "import mossbeat as mb\n"
        "true = mb.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0)\n"
        "gamma, _ = mb.simulate_counts(true, 1.0, 240.0, 14400.0, seed=5)\n"
        "out = mb.fit_beat(gamma, mb.FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0)))\n"
        "assert out.converged and abs(out.params.tau_d / true.tau_d - 1.0) < 0.1, out\n"
        "assert len(mb.beat_minima(true, n=3)) == 3"
    )
    assert _scipy_modules_after(code) == "[]"


def test_model_and_fit_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use (numpy 2), about 10 ms of a
    # fresh ``beat``, ``simulate`` or ``fit`` process; the model path does
    # without it.  Where importing numpy loads numpy.ma (numpy 1.24), there
    # is nothing to save.
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                      check=True).stdout.strip() == "True":
        pytest.skip("importing numpy loads numpy.ma")
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "import mossbeat as mb\n"
        "true = mb.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0)\n"
        "for kernel in ('cos2', 'j0sq'):\n"
        "    mb.beat_curve(true, np.linspace(0.0, 14400.0, 50), kernel)\n"
        "    mb.bin_expected_counts(true, np.linspace(0.0, 14400.0, 601), kernel)\n"
        "gamma, kalpha = mb.simulate_counts(true, 1.0, 24.0, 14400.0, seed=5)\n"
        "mb.fit_beat(mb.normalize(gamma, kalpha), mb.FitConfig(\n"
        "    free_params=('n0', 'tau_d', 'phi0', 'background'), base=replace(true, n0=1.0, tau_d=2000.0)))\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stdout.strip() == "False"


def test_console_script_installed():
    exe = shutil.which("mossbeat")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "estimate"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,value")


@pytest.mark.parametrize("command, unbuffered", [
    ("normalize", False), ("fieldmap", False), ("normalize", True), ("fieldmap", True),
], ids=["normalize", "fieldmap", "normalize-unbuffered", "fieldmap-unbuffered"])
def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path, command, unbuffered):
    # as in `mossbeat normalize ... | head -1`: the reader takes one line and
    # closes the pipe while the command still writes (the 60 000-row ratio
    # file and the default 1 681-point field map are far larger than a pipe).
    # Under PYTHONUNBUFFERED too, where a raw write that the closed pipe
    # cuts short would drop the rest of the text and let the command exit 0
    argv = [command]
    if command == "normalize":
        for series in simulate_counts(BeatParams(), 10.0, 1.2, 72000.0, seed=3):
            write_count_series(series, tmp_path / f"{series.channel}.csv")
            argv += [f"--{series.channel}", str(tmp_path / f"{series.channel}.csv")]
    env = dict(_fresh_env(), PYTHONUNBUFFERED="1" if unbuffered else "")  # empty: buffered
    proc = subprocess.Popen([sys.executable, "-m", "mossbeat.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("argv, key", [
    (["estimate", "--set", "rhodium.tau0=abc"], "rhodium.tau0"),
    (["beat", "--set", 'beat.n0="x"'], "beat.n0"),
    (["simulate", "--set", "binning.width_s=[1]"], "binning.width_s"),
    (["flm", "--set", "ensemble.n_samples=1.5"], "ensemble.n_samples"),
    (["fit", "--data", "DATA", "--set", "fit.free_params=3"], "fit.free_params"),
    (["beat", "--set", "beat_grid.n=abc"], "beat_grid.n"),
    (["fieldmap", "--set", "fieldmap.n=[2]"], "fieldmap.n"),
], ids=["estimate", "beat", "simulate", "flm", "fit", "beat_grid", "fieldmap"])
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys, argv, key):
    # a value of the wrong JSON type is a configuration error naming its key,
    # not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DATA").write_text("t_start_s,width_s,counts,channel\n0,1,3,gamma\n1,1,2,gamma\n")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DATA"]


@pytest.mark.parametrize("argv", [
    ["beat", "--set", "beat_grid.n=1"],
    ["beat", "--set", "beat_grid.t_stop_s=-1"],
    ["beat", "--set", "beat_grid.t_start_s=-1"],
    ["fieldmap", "--set", "fieldmap.extent_cells=-1"],
    ["fieldmap", "--set", "fieldmap.n=1"],
    ["beat", "--set", "beat.tau0=-5"],
    ["beat", "--set", "beat.t_pump=0"],
    ["simulate", "--set", "beat.t_pump=0"],
], ids=["beat_grid.n", "beat_grid.t_stop_s", "beat_grid.t_start_s", "fieldmap.extent_cells", "fieldmap.n",
        "beat.tau0", "beat.t_pump", "simulate-beat.t_pump"])
def test_config_value_out_of_range_exits_1(tmp_path, monkeypatch, capsys, argv):
    # a well-typed value outside its range is a domain error, whichever
    # section it sits in
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_simulate_binning_no_array_can_hold_exits_1(tmp_path, monkeypatch, capsys):
    # 1e-300 s bins over the default horizon are more than numpy's largest
    # array: one error line and exit 1, no traceback
    monkeypatch.chdir(tmp_path)
    assert run_cli(["simulate", "--set", "binning.width_s=1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: horizon / width gives ")
    assert captured.err.endswith(" bins, more than an array can hold\n")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--set", 'binning={"width_s":24}'], "error: binning section needs 'horizon_s'\n"),
    (["beat", "--set", 'beat_grid={"n":5}'], "error: beat_grid section needs 't_start_s'\n"),
], ids=["binning", "beat_grid"])
def test_config_section_missing_key_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not list(tmp_path.iterdir())


def test_fieldmap_center_of_wrong_shape_exits_2(capsys):
    assert run_cli(["fieldmap", "--set", "fieldmap.center=[1.0, 2.0]"]) == 2
    assert capsys.readouterr().err == "error: fieldmap.center must be a 3-vector\n"
