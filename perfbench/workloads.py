"""The benchmark's three closed-loop workloads and their output checks.

Each workload builds its inputs from the run seed; the library receives
only those inputs.  A round is a list of operations.  An operation runs,
checks its own output and returns a digest of that output, so a traced
round can be compared with an untraced one.  A failed check raises
``CheckFailed``; nothing is retried, skipped or re-seeded.

Library functions are looked up on the ``mossbeat`` package at call time,
so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

import numpy as np

import mossbeat as mb

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CHILD_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(seed: int, index: int) -> int:
    """Input seed of round ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _phase_error(phi: float, ref: float) -> float:
    d = abs(phi - ref) % np.pi
    return min(d, np.pi - d)


class Recovery:
    """Criterion 11's simulate-then-fit trial, fitted as counts and as a ratio."""

    name = "recovery"
    TRUE = mb.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0, background=0.0)
    KALPHA_SCALE = 1.0
    WIDTH_S = 24.0
    HORIZON_S = 14400.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.fit_cfg = mb.FitConfig(base=replace(self.TRUE, n0=1.0, tau_d=2000.0, phi0=0.0))

    def round(self, r: int):
        return [("trial", partial(self.trial, derive_seed(self.seed, r)))]

    def trial(self, sim_seed: int):
        gamma, kalpha = mb.simulate_counts(
            self.TRUE, self.KALPHA_SCALE, self.WIDTH_S, self.HORIZON_S, seed=sim_seed)
        fits = [mb.fit_beat(gamma, self.fit_cfg)]
        fits.append(mb.fit_beat(mb.normalize(gamma, kalpha), self.fit_cfg))
        for kind, out in zip(("counts", "ratio"), fits):
            dtau = abs(out.params.tau_d - self.TRUE.tau_d) / self.TRUE.tau_d
            dphi = _phase_error(out.params.phi0, self.TRUE.phi0)
            _require(out.converged, f"{kind} fit did not converge: {out.message}")
            _require(dtau <= 0.05, f"{kind} fit tau_d off by {dtau:.3%}")
            _require(dphi <= 0.1, f"{kind} fit phi0 off by {dphi:.3f} rad")
        return [astuple(out.params) + (out.chi2,) for out in fits]

    def peak_rss_kb(self) -> int:
        return _self_rss_kb()


class Longrun:
    """One 60 000-bin data product: simulate, CSV round trips, normalize, rebin, overlay."""

    name = "longrun"
    KALPHA_SCALE = 10.0
    WIDTH_S = 1.2
    HORIZON_S = 72000.0
    REBIN = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.beat = mb.RunConfig.default().beat()

    def round(self, r: int):
        return [("pass", partial(self.one_pass, derive_seed(self.seed, r)))]

    def one_pass(self, sim_seed: int):
        gamma, kalpha = mb.simulate_counts(
            self.beat, self.KALPHA_SCALE, self.WIDTH_S, self.HORIZON_S, seed=sim_seed)
        for series in (gamma, kalpha):
            path = self.workdir / f"longrun_{series.channel}.csv"
            mb.write_count_series(series, path)
            back = mb.read_count_series(path)
            _require(back.channel == series.channel
                     and np.array_equal(back.t_start, series.t_start)
                     and np.array_equal(back.width, series.width)
                     and np.array_equal(back.counts, series.counts),
                     f"{series.channel} count CSV round trip is not exact")
        ratio = mb.normalize(gamma, kalpha)
        path = self.workdir / "longrun_ratio.csv"
        mb.write_ratio_series(ratio, path)
        back = mb.read_ratio_series(path)
        _require(all(np.array_equal(getattr(back, f), getattr(ratio, f), equal_nan=f in ("ratio", "sigma"))
                     for f in ("t_start", "width", "ratio", "sigma", "valid", "low_count")),
                 "ratio CSV round trip is not exact")
        _require(np.array_equal(ratio.valid, kalpha.counts > 0), "valid flags differ from kalpha > 0")
        for series in (gamma, kalpha):
            coarse = mb.rebin(series, self.REBIN)
            _require(len(coarse) * self.REBIN == len(series)
                     and int(coarse.counts.sum()) == int(series.counts.sum()),
                     f"rebin changed the {series.channel} total")
        expected = float(mb.bin_expected_counts(self.beat, gamma.edges).sum())
        total = int(gamma.counts.sum())
        _require(abs(total - expected) <= 6.0 * np.sqrt(expected),
                 f"gamma total {total} is more than 6 sigma from expected {expected:.1f}")
        return [total, int(kalpha.counts.sum()), int(ratio.valid.sum())]

    def peak_rss_kb(self) -> int:
        return _self_rss_kb()


def _self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _read_csv(text: str):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def _all_finite(rows, cols) -> bool:
    try:
        vals = np.array([[float(row[c]) for c in cols] for row in rows])
    except (ValueError, IndexError):
        return False
    return vals.size > 0 and bool(np.all(np.isfinite(vals)))


class Cli:
    """A user at the command line: ten commands, each in a fresh interpreter."""

    name = "cli"
    BRAGG_DEG = (7.647715, 15.436107)
    MC = ["--set", "ensemble.n_samples=1000000"]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer: spans.Tracer | None = None
        self.child_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC_DIR))

    def commands(self, r: int):
        """(label, argv, check, output files) of round ``r``; later commands read earlier outputs."""
        seed = ["--seed", str(derive_seed(self.seed, r))]
        stem = self.workdir / f"cli{r}"
        gamma, kalpha, ratio = (Path(f"{stem}_{part}.csv") for part in ("gamma", "kalpha", "ratio"))
        return [
            ("estimate", ["estimate"], self._check_estimate, []),
            ("bragg", ["bragg", "--format", "json"], self._check_bragg, []),
            ("flm_coherent", ["flm", "--format", "json", *seed, *self.MC], self._check_flm_coherent, []),
            ("flm_incoherent", ["flm", "--format", "json", *seed, *self.MC,
                                "--set", "flm.estimator=incoherent",
                                "--set", "ensemble.model=isotropic-gaussian"], self._check_flm_incoherent, []),
            ("fieldmap", ["fieldmap"], self._check_fieldmap, []),
            ("beat", ["beat"], self._check_beat, []),
            ("beat_j0sq", ["beat", "--set", "beat.kernel=j0sq"], self._check_beat, []),
            ("simulate", ["simulate", *seed, "--out", str(stem)], self._check_simulate, [gamma, kalpha]),
            ("normalize", ["normalize", "--gamma", str(gamma), "--kalpha", str(kalpha), "--out", str(ratio)],
             self._check_normalize, [ratio]),
            ("fit", ["fit", "--data", str(gamma)], self._check_fit, []),
        ]

    def round(self, r: int):
        return [(cmd[0], partial(self.run_command, *cmd)) for cmd in self.commands(r)]

    def warm_up(self) -> None:
        """One untimed command, so the timed ones do not start from a cold file cache."""
        self.run_command(*self.commands(0)[0], count_rss=False)

    def run_command(self, label, argv, check, outputs, count_rss=True):
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        spans_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mossbeat.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(spans_path), label, *argv]
        code, rss_kb = _run_child(cmd, out_path, err_path, self.env, self.workdir)
        if count_rss:
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if self.tracer is not None and spans_path.exists():
            self._merge_spans(spans_path)
        _require(code == 0, f"{label} exited with code {code}: {err_path.read_text()[-500:]}")
        text = out_path.read_text()
        check(text, outputs)
        digest = hashlib.sha256(text.encode())
        for path in outputs:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def _merge_spans(self, path: Path) -> None:
        data = json.loads(path.read_text())
        path.unlink()
        child_spans, counts = spans.from_json(data, len(self.tracer.spans), self.tracer.op)
        self.tracer.spans.extend(child_spans)
        self.tracer.counts.update(counts)

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    # per-command output checks

    def _check_estimate(self, text, outputs):
        header, rows = _read_csv(text)
        _require(header == ["name", "value"] and len(rows) == 5 and _all_finite(rows, [1]),
                 "estimate did not print five finite values")

    def _check_bragg(self, text, outputs):
        got = [round(c["theta_deg"], 6) for c in json.loads(text)]
        _require(got == list(self.BRAGG_DEG), f"bragg candidates {got} != {list(self.BRAGG_DEG)}")

    def _check_flm_coherent(self, text, outputs):
        data = json.loads(text)
        mc, exact = data["coherent_mc"], data["closed_form"]["value"]
        _require(abs(mc["value"] - exact) <= 4.0 * mc["stderr"],
                 f"coherent MC {mc['value']} not within 4 stderr of closed form {exact}")

    def _check_flm_incoherent(self, text, outputs):
        mc = json.loads(text)["incoherent_mc"]
        _require(np.isfinite(mc["value"]) and np.isfinite(mc["stderr"]), "incoherent MC is not finite")

    def _check_fieldmap(self, text, outputs):
        header, rows = _read_csv(text)
        _require(len(rows) == 41 * 41 and _all_finite(rows, range(len(header))),
                 "field map is not a finite 41 x 41 grid")

    def _check_beat(self, text, outputs):
        header, rows = _read_csv(text)
        _require(header == ["t_s", "intensity"] and len(rows) == 201 and _all_finite(rows, [0, 1]),
                 "beat curve is not 201 finite points")

    def _check_simulate(self, text, outputs):
        _require(text.splitlines() == [str(p) for p in outputs] and all(p.is_file() for p in outputs),
                 "simulate did not write both count files")

    def _check_normalize(self, text, outputs):
        header, rows = _read_csv(outputs[0].read_text())
        _require(header == ["t_start_s", "width_s", "ratio", "sigma"] and len(rows) == 200,
                 "normalize did not write 200 ratio rows")

    def _check_fit(self, text, outputs):
        result = json.loads(text)
        _require(result["converged"] and all(np.isfinite(v) for v in result["params"].values()),
                 f"fit did not converge: {result['message']}")


def _run_child(cmd, out_path: Path, err_path: Path, env, cwd):
    """Run ``cmd`` to completion; returns (exit code, peak RSS in kB) of that child."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (Recovery, Longrun, Cli)}
