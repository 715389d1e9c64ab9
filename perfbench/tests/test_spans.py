"""Tests of the benchmark's own tracing: self-time arithmetic and wrapping."""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np

import mossbeat
import run
import spans
from spans import Span


def _tree():
    # root 0..10 with overlapping children 1..4 and 3..6, and 8..12 running
    # past the root's end; child a has its own child 2..3
    return [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a1", 2.0, 3.0, 1, 0),
        Span(3, "b", 3.0, 6.0, 0, 0),
        Span(4, "c", 8.0, 12.0, 0, 0),
        Span(5, "root", 20.0, 21.5, None, 1),
    ]


def test_self_time_subtracts_union_of_children():
    got = spans.self_times(_tree())
    # root covered by [1, 6] and [8, 10]: 7 of its 10 seconds
    assert got == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.5}


def test_summarize_totals_inclusive_and_self_time_per_name():
    incl, excl = spans.summarize(_tree())
    assert incl["root"] == 11.5 and excl["root"] == 4.5
    assert incl["a"] == 3.0 and excl["a"] == 2.0


def test_descendant_counts_stop_at_nearest_ancestor():
    tree = _tree() + [Span(6, "a", 20.5, 21.0, 5, 1), Span(7, "a1", 20.6, 20.7, 6, 1)]
    assert spans.descendant_counts(tree, "root", "a") == [1, 1]
    assert spans.descendant_counts(tree, "a", "a1") == [1, 1]


def _all_mossbeat_modules():
    for info in pkgutil.iter_modules(mossbeat.__path__):
        importlib.import_module(f"mossbeat.{info.name}")
    return {n: m for n, m in sys.modules.items() if n == "mossbeat" or n.startswith("mossbeat.")}


def test_install_leaves_no_unwrapped_original_in_any_namespace():
    modules = _all_mossbeat_modules()
    originals = {id(getattr(modules[mod], attr)): f"{mod}.{attr}"
                 for mod, attr, *_ in spans.FUNCTION_TARGETS}
    cls = mossbeat.config.RunConfig
    methods = {k: v for k, v in vars(cls).items() if not k.startswith("_")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, mod in modules.items():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{name}.{key} still holds {originals[id(value)]}"
        for key, value in methods.items():
            assert vars(cls)[key] is not value, f"RunConfig.{key} is not wrapped"
        # one wrapper per function, shared by every namespace that binds it
        assert mossbeat.beat.bin_expected_counts is mossbeat.fitting.bin_expected_counts
        assert mossbeat.geometry.bragg_angle_solve is mossbeat.config.bragg_angle_solve
    finally:
        tracer.uninstall()
    for mod, attr, *_ in spans.FUNCTION_TARGETS:
        assert id(getattr(modules[mod], attr)) in originals
    assert {k: v for k, v in vars(cls).items() if not k.startswith("_")} == methods


def test_traced_calls_return_identical_results_and_count():
    p = mossbeat.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3)
    edges = np.linspace(0.0, 14400.0, 601)
    plain = mossbeat.bin_expected_counts(p, edges)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = mossbeat.RunConfig.default()
        traced = mossbeat.spectra.bin_expected_counts(p, edges)
        cfg.beat()
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    assert tracer.counts["beat.bin_expected_counts.calls"] == 1
    assert tracer.counts["beat.bin_expected_counts.bins"] == 600
    assert tracer.counts["config.calls"] == 2
    assert [s.name for s in tracer.spans] == ["config", "beat.bin_expected_counts", "config"]


def test_span_json_round_trip_renumbers():
    tracer = spans.Tracer()
    tracer.op = 3
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    got, counts = spans.from_json(json.loads(json.dumps(spans.to_json(tracer))), sid_offset=10, op=7)
    assert [(s.sid, s.parent, s.op) for s in got] == [(10, None, 7), (11, 10, 7)]
    assert counts == {"outer.calls": 1, "inner.calls": 1}


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_cli_round_runs_the_labelled_commands(tmp_path):
    import workloads

    cmds = workloads.Cli(1, tmp_path).commands(0)
    assert tuple(label for label, *_ in cmds) == run.CLI_LABELS


def test_missing_sources_exit_nonzero_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "recovery", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
