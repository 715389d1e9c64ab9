"""Benchmark of the mossbeat package: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload {recovery,longrun,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src``.

``--trace 0`` measures one workload for about S seconds with tracing off
and prints its end-to-end metrics.  Rounds run back to back; the next one
starts while at least half the last round's duration remains before S,
so the timed phase overruns S by at most half a round.  Set-up time is
the median over several fresh interpreters.

``--trace 1`` is the traced run.  Whatever ``--workload`` names, it runs
round 0 of every workload untraced and then again traced, checks that
both give identical outputs, and prints per-layer metrics prefixed by the
workload, plus the tracing overhead.

Every operation's output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("recovery", "longrun", "cli")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "passed_frac", "peak_rss_mb")
PROBES = 3
CLI_LABELS = ("estimate", "bragg", "flm_coherent", "flm_incoherent", "fieldmap",
              "beat", "beat_j0sq", "simulate", "normalize", "fit")

# per-layer metrics each workload reports from its traced round; the
# layers a workload never reaches are left out rather than reported as 0
_BINNED = ["beat.bin_expected_counts.s", "beat.bin_expected_counts.calls",
           "beat.bin_expected_counts.bins"]
_FIT = ["fitting.fit_beat.self_s", "fitting.fit_beat.calls",
        "fitting.model_evals_per_fit", "fitting.converged_frac"]
_SPECTRA = ["spectra.simulate_counts.s", "spectra.simulate_counts.bins",
            "spectra.normalize.s", "spectra.kalpha_bin_expected.calls"]
_CSV = ["csvio.write.s", "csvio.read.s", "csvio.rows"]
LAYERS = {
    "recovery": _BINNED + _FIT + _SPECTRA,
    "longrun": _BINNED + _SPECTRA + ["spectra.rebin.s"] + _CSV,
    "cli": ["import.s"] + _BINNED + ["beat.beat_curve.s", "beat.accumulated_intensity.calls"]
           + _FIT + _SPECTRA + _CSV
           + ["geometry.bragg_angle_solve.s", "geometry.bragg_angle_solve.calls",
              "geometry.verify_bragg.calls", "lamb.mc.s", "lamb.mc.samples",
              "fields.evaluate_E.s", "fields.evaluate_E.points", "config.self_s", "config.calls"]
           + [f"cli.{label}.s" for label in CLI_LABELS],
}


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    return "count"


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, in order."""
    names = ["import.s", "import.scipy_modules"]
    for w in WORKLOAD_NAMES:
        names += [f"{w}.{m}" for m in LAYERS[w]] + [f"{w}.trace.overhead_s"]
    return names


def probe(workload: str, seed: int) -> int:
    """Set-up in this fresh interpreter: import the package, build round 0's inputs."""
    t0 = time.perf_counter()
    import mossbeat

    import_s = time.perf_counter() - t0
    scipy_modules = sum(1 for n in sys.modules if n == "scipy" or n.startswith("scipy."))
    _check_package(mossbeat)
    import workloads

    workloads.WORKLOADS[workload](seed, WORK_ROOT).round(0)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "scipy_modules": scipy_modules}))
    return 0


def run_probes(workload: str, seed: int, repeats: int) -> list[dict]:
    """Set-up time of ``repeats`` fresh interpreters, spawn to ready.

    The child stamps readiness with ``time.monotonic``, a clock shared by
    all processes of the machine.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        data = json.loads(proc.stdout.splitlines()[-1])
        data["setup_s"] = data["ready"] - t0
        out.append(data)
    return out


def _check_package(mossbeat) -> None:
    if SRC not in Path(mossbeat.__file__).resolve().parents:
        raise RuntimeError(f"imported mossbeat from {mossbeat.__file__}, not from {SRC}")


def run_op(label, op):
    """(passed, seconds, result) of one operation; failures are reported, never retried."""
    from workloads import CheckFailed

    t0 = time.perf_counter()
    try:
        result = op()
    except CheckFailed as exc:
        print(f"check failed: {label}: {exc}", file=sys.stderr)
        return False, time.perf_counter() - t0, None
    except Exception:
        traceback.print_exc()
        return False, time.perf_counter() - t0, None
    return True, time.perf_counter() - t0, result


def run_round(wl, r: int, tracer=None):
    """(seconds, [(passed, seconds, result)]) of round ``r``; ``tracer`` tags spans by operation."""
    t0 = time.perf_counter()
    ops = []
    for i, (label, op) in enumerate(wl.round(r)):
        if tracer is not None:
            tracer.op = i
        ops.append(run_op(label, op))
    return time.perf_counter() - t0, ops


def timed_run(args, workdir: Path):
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    setups = [p["setup_s"] for p in run_probes(args.workload, args.seed, PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    ops = []
    t0 = time.perf_counter()
    r = 0
    while True:
        seconds, round_ops = run_round(wl, r)
        ops += round_ops
        r += 1
        if time.perf_counter() - t0 + seconds / 2 > args.seconds:
            break
    elapsed = time.perf_counter() - t0
    attempted = len(ops)
    failed = sum(1 for passed, _, _ in ops if not passed)
    durations = [dt for _, dt, _ in ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "passed_frac": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (wl.peak_rss_kb() / 1024.0, "MB"),
    }
    notes = [f"workload {args.workload}, seed {args.seed}: {r} round(s), {attempted} operations "
             f"in {elapsed:.3f} s, closed loop, one client",
             f"setup_s is the median of {len(setups)} fresh interpreters; "
             f"op_p50_s is the median of {attempted} operations",
             "set-up seconds: " + " ".join(f"{t:.3f}" for t in setups),
             "operation seconds: " + " ".join(f"{t:.3f}" for t in durations),
             f"failed_frac {failed / attempted:.4g} (passed_frac is its complement)"]
    return failed == 0, attempted, failed, metrics, notes


def layer_values(tracer) -> dict[str, float]:
    """Every per-layer number one traced round's spans and counts give."""
    import spans

    incl, excl = spans.summarize(tracer.spans)
    values = {f"{name}.s": t for name, t in incl.items()}
    values.update({f"{name}.self_s": t for name, t in excl.items()})
    values.update(tracer.counts)
    evals = spans.descendant_counts(tracer.spans, "fitting.fit_beat", "beat.bin_expected_counts")
    if evals:
        values["fitting.model_evals_per_fit"] = sum(evals) / len(evals)
        values["fitting.converged_frac"] = tracer.counts["fitting.fit_beat.converged"] / len(evals)
    return values


def traced_run(args, workdir: Path):
    """Per-layer metrics of round 0 of every workload, run untraced and then traced."""
    import spans
    import workloads

    probes = run_probes(args.workload, args.seed, PROBES)
    scipy_counts = {p["scipy_modules"] for p in probes}
    correct = len(scipy_counts) == 1
    metrics = {"import.s": (statistics.median(p["import_s"] for p in probes), "s"),
               "import.scipy_modules": (max(scipy_counts), "count")}
    attempted = failed = 0
    notes = [f"traced run, seed {args.seed}: round 0 of every workload, untraced then traced; "
             f"import.s is the median of {len(probes)} fresh interpreters"]
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](args.seed, workdir)
        if hasattr(wl, "warm_up"):
            wl.warm_up()
        plain_s, plain = run_round(wl, 0)
        tracer = spans.Tracer()
        if name == "cli":
            wl.tracer = tracer
        else:
            tracer.install()
        try:
            traced_s, traced = run_round(wl, 0, tracer)
        finally:
            tracer.uninstall()
        ops = plain + traced
        attempted += len(ops)
        failed += sum(1 for passed, _, _ in ops if not passed)
        same = [a[2] == b[2] for a, b in zip(plain, traced)]
        if not all(same):
            print(f"{name}: traced outputs differ from untraced ones", file=sys.stderr)
            correct = False
        values = layer_values(tracer)
        for m in LAYERS[name]:
            metrics[f"{name}.{m}"] = (values.get(m, 0), unit_of(m))
        metrics[f"{name}.trace.overhead_s"] = (traced_s - plain_s, "s")
        notes.append(f"{name}: {len(traced)} traced operation(s), {len(tracer.spans)} spans, "
                     f"outputs {'identical' if all(same) else 'DIFFERENT'} with tracing on")
    return correct and failed == 0, attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mossbeat" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'mossbeat'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload, args.seed)

    import mossbeat

    _check_package(mossbeat)
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, notes = (traced_run if args.trace else timed_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
