"""Command-line front end.

Subcommands: estimate, bragg, fieldmap, flm, beat, simulate, fit,
normalize.  All read one JSON config (packaged defaults when --config is
omitted, overridable key by key with --set).  Exit codes: 0 success,
1 domain/computation error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import constants
from .beat import beat_curve, tau_d
from .config import RunConfig
from .csvio import read_count_series, write_count_series, write_ratio_series
from .errors import ConfigError, DomainError, StructuralError
from .fields import evaluate_E
from .fitting import fit_beat
from .geometry import bragg_angle_solve
from .lamb import flm_closed_form, flm_coherent_mc, flm_incoherent_mc
from .spectra import normalize, simulate_counts

# thickness convention behind the tau_d/tau0 figure of merit: recoil-free
# fraction 1/2, attenuation 1/depth_nuclear, thickness equal to the
# photoelectric depth
_ESTIMATE_F_LM = 0.5


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, payload, header, rows) -> int:
    """Write ``payload`` as JSON or ``header`` and ``rows`` as CSV, as
    ``--format`` asks, and return the exit code, 0."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.default()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg.set_path(key, value)
    if args.seed is not None:
        cfg.set_path("seed", args.seed)
        cfg.set_path("ensemble.seed", args.seed)
    return cfg


def _cmd_estimate(cfg: RunConfig, args) -> int:
    params = cfg.rhodium()
    td = tau_d(params.tau0, _ESTIMATE_F_LM, 1.0 / params.depth_nuclear, params.depth_photoelectric)
    values = {
        "natural_linewidth_eV": constants.natural_linewidth(params.tau0),
        "doppler_speed_m_per_s": constants.doppler_speed_per_linewidth(params),
        "thermal_strain_rate_per_s": constants.thermal_strain_rate(params),
        "tau_d_s": td,
        "tau_d_over_tau0": td / params.tau0,
    }
    return _emit_table(args, values, ["name", "value"], [[k, _fmt(v)] for k, v in values.items()])


def _cmd_bragg(cfg: RunConfig, args) -> int:
    k_mag = constants.photon_wavenumber(cfg.rhodium().gamma_energy)
    candidates = bragg_angle_solve(k_mag, cfg.lattice())
    payload = [
        {
            "theta_rad": c.theta,
            "theta_deg": float(np.degrees(c.theta)),
            "miller": c.miller.tolist(),
            "residual": c.residual,
        }
        for c in candidates
    ]
    rows = [
        [i, _fmt(c.theta), _fmt(np.degrees(c.theta)), int(h), int(k), int(l),
         _fmt(np.linalg.norm(g)), _fmt(c.residual)]
        for i, c in enumerate(candidates)
        for (h, k, l), g in zip(c.miller, c.g_vectors)
    ]
    header = ["candidate", "theta_rad", "theta_deg", "h", "k", "l", "g_per_m", "residual"]
    return _emit_table(args, payload, header, rows)


def _cmd_fieldmap(cfg: RunConfig, args) -> int:
    geom = cfg.geometry()
    lattice = cfg.lattice()
    center, extent, n = cfg.fieldmap()
    span = extent * lattice.a
    axis = np.linspace(-span / 2.0, span / 2.0, n)
    values = []
    for y in axis:
        pts = np.column_stack([axis, np.full(n, y), np.zeros(n)]) + center
        e = evaluate_E(geom, pts)
        for p, ev in zip(pts, e):
            values.append(
                [p[0], p[1], p[2], ev[0].real, ev[0].imag, ev[1].real, ev[1].imag,
                 ev[2].real, ev[2].imag, np.linalg.norm(ev)]
            )
    header = ["x_m", "y_m", "z_m", "re_ex", "im_ex", "re_ey", "im_ey", "re_ez", "im_ez", "abs_e"]
    payload = [dict(zip(header, map(float, row))) for row in values]
    return _emit_table(args, payload, header, [[_fmt(v) for v in row] for row in values])


def _cmd_flm(cfg: RunConfig, args) -> int:
    geom = cfg.geometry()
    ens = cfg.ensemble()
    estimator = cfg.flm_estimator()
    mc = flm_coherent_mc(geom, ens) if estimator == "coherent" else flm_incoherent_mc(geom, ens)
    results = [(estimator + "_mc", mc)]
    if ens.model == "longitudinal-gaussian":
        results.append(("closed_form", flm_closed_form(geom, ens.sigma)))
    payload = {
        name: {"value": r.value, "stderr": r.stderr, "interpretation": r.interpretation}
        for name, r in results
    }
    rows = [
        [name, _fmt(r.value), "" if r.stderr is None else _fmt(r.stderr), r.interpretation]
        for name, r in results
    ]
    return _emit_table(args, payload, ["estimator", "value", "stderr", "interpretation"], rows)


def _cmd_beat(cfg: RunConfig, args) -> int:
    curve = beat_curve(cfg.beat(), cfg.beat_grid(), kernel=cfg.kernel())
    payload = {"t_s": curve[:, 0].tolist(), "intensity": curve[:, 1].tolist()}
    return _emit_table(args, payload, ["t_s", "intensity"], [[_fmt(t), _fmt(v)] for t, v in curve])


def _require_cos2(cfg: RunConfig, command: str) -> None:
    """simulate and fit model the cos2 kernel only: the simulator draws from
    it, and the fit's variable projection rests on its phase columns."""
    kernel = cfg.kernel()
    if kernel != "cos2":
        raise DomainError(f"{command} models beat.kernel 'cos2' only, got {kernel!r}")


def _cmd_simulate(cfg: RunConfig, args) -> int:
    _require_cos2(cfg, "simulate")
    width, horizon = cfg.binning()
    gamma, kalpha = simulate_counts(
        cfg.beat(), float(cfg.scalar("kalpha_scale", 0.0)), width, horizon, seed=cfg.seed()
    )
    outputs = cfg.outputs()
    if args.out:
        gamma_path = f"{args.out}_gamma.csv"
        kalpha_path = f"{args.out}_kalpha.csv"
    else:
        gamma_path = outputs.get("gamma_csv", "gamma.csv")
        kalpha_path = outputs.get("kalpha_csv", "kalpha.csv")
    write_count_series(gamma, gamma_path)
    write_count_series(kalpha, kalpha_path)
    sys.stdout.write(f"{gamma_path}\n{kalpha_path}\n")
    return 0


def _cmd_fit(cfg: RunConfig, args) -> int:
    _require_cos2(cfg, "fit")
    series = read_count_series(args.data)
    result = fit_beat(series, cfg.fit())
    payload = {
        "params": {
            "n0": result.params.n0,
            "tau0": result.params.tau0,
            "tau_d": result.params.tau_d,
            "phi0": result.params.phi0,
            "t_pump": result.params.t_pump,
            "background": result.params.background,
        },
        "chi2": result.chi2,
        "dof": result.dof,
        "free_params": list(result.free_names),
        "covariance": None if result.covariance is None else result.covariance.tolist(),
        "converged": result.converged,
        "message": result.message,
        "evaluations": result.evaluations,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_normalize(cfg: RunConfig, args) -> int:
    gamma = read_count_series(args.gamma)
    kalpha = read_count_series(args.kalpha)
    write_ratio_series(normalize(gamma, kalpha), args.out or sys.stdout)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bragg": _cmd_bragg,
    "fieldmap": _cmd_fieldmap,
    "flm": _cmd_flm,
    "beat": _cmd_beat,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "normalize": _cmd_normalize,
}


# the subcommands that can print JSON instead of CSV; simulate and normalize
# write CSV, fit writes JSON
_FORMATTED = ("estimate", "bragg", "fieldmap", "flm", "beat")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mossbeat",
        description="Borrmann-channel geometry, recoil-free fractions and beat count models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "scalar figures of merit (linewidth, Doppler speed, strain rate, tau_d)"),
        ("bragg", "cone angles matching the lattice"),
        ("fieldmap", "complex field over a transverse plane"),
        ("flm", "recoil-free fraction estimates"),
        ("beat", "accumulated intensity curve"),
        ("simulate", "Poisson gamma/kalpha series to CSV"),
        ("fit", "recover beat parameters from a count CSV"),
        ("normalize", "gamma/kalpha ratio series"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path (packaged defaults if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output path (stdout if omitted)" if name != "simulate" else "output path prefix")
        if name in _FORMATTED:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key by dotted path, JSON-parsed value")
        if name == "fit":
            p.add_argument("--data", required=True, help="count series CSV to fit")
        if name == "normalize":
            p.add_argument("--gamma", required=True, help="gamma count series CSV")
            p.add_argument("--kalpha", required=True, help="kalpha count series CSV")
    return parser


def run_cli(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
