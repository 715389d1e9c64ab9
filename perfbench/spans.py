"""In-memory spans and counters recorded around calls into mossbeat.

A ``Tracer`` replaces each traced public function, in every ``mossbeat``
module namespace that binds it, with a wrapper that records one span
(name, start, end, parent span, operation id) and bumps counters.  The
wrappers only call through, so traced results are bit-identical to
untraced ones.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


# (defining module, function, span name, counter name, count(args, kwargs, result))
FUNCTION_TARGETS = [
    ("mossbeat.beat", "bin_expected_counts", "beat.bin_expected_counts",
     "beat.bin_expected_counts.bins", lambda a, k, out: len(out)),
    ("mossbeat.beat", "beat_curve", "beat.beat_curve", None, None),
    ("mossbeat.beat", "accumulated_intensity", "beat.accumulated_intensity", None, None),
    ("mossbeat.fitting", "fit_beat", "fitting.fit_beat",
     "fitting.fit_beat.converged", lambda a, k, out: int(out.converged)),
    ("mossbeat.spectra", "simulate_counts", "spectra.simulate_counts",
     "spectra.simulate_counts.bins", lambda a, k, out: len(out[0])),
    ("mossbeat.spectra", "normalize", "spectra.normalize", None, None),
    ("mossbeat.spectra", "rebin", "spectra.rebin", None, None),
    ("mossbeat.spectra", "kalpha_bin_expected", "spectra.kalpha_bin_expected", None, None),
    ("mossbeat.csvio", "write_count_series", "csvio.write",
     "csvio.rows", lambda a, k, out: len(a[0])),
    ("mossbeat.csvio", "write_ratio_series", "csvio.write",
     "csvio.rows", lambda a, k, out: len(a[0])),
    ("mossbeat.csvio", "read_count_series", "csvio.read",
     "csvio.rows", lambda a, k, out: len(out)),
    ("mossbeat.csvio", "read_ratio_series", "csvio.read",
     "csvio.rows", lambda a, k, out: len(out)),
    ("mossbeat.geometry", "bragg_angle_solve", "geometry.bragg_angle_solve", None, None),
    ("mossbeat.geometry", "verify_bragg", "geometry.verify_bragg", None, None),
    ("mossbeat.lamb", "flm_coherent_mc", "lamb.mc",
     "lamb.mc.samples", lambda a, k, out: a[1].n_samples),
    ("mossbeat.lamb", "flm_incoherent_mc", "lamb.mc",
     "lamb.mc.samples", lambda a, k, out: a[1].n_samples),
    ("mossbeat.fields", "evaluate_E", "fields.evaluate_E",
     "fields.evaluate_E.points", lambda a, k, out: out.size // 3),
]

# every public method of this class is traced under one span name
CLASS_TARGETS = [("mossbeat.config", "RunConfig", "config")]


class Tracer:
    """Records spans and counts while installed; does nothing otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(sid)
        self.counts[name + ".calls"] += 1
        return sid

    def end(self, sid: int) -> None:
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")
        s = self.spans[sid]
        self.spans[sid] = Span(s.sid, s.name, s.start, time.perf_counter(), s.parent, s.op)

    def wrap(self, fn, name, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counter is not None:
                self.counts[counter] += count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every ``mossbeat.*`` namespace that binds it.

        Targets missing from the package are skipped, so the tracer keeps
        working when a later version removes a function.
        """
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "mossbeat" or n.startswith("mossbeat."))]
        for mod_name, attr, name, counter, count in FUNCTION_TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, counter, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)
        for mod_name, cls_name, name in CLASS_TARGETS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None:
                continue
            for key, value in list(vars(cls).items()):
                if key.startswith("_"):
                    continue
                if isinstance(value, classmethod):
                    wrapped = classmethod(self.wrap(value.__func__, name))
                elif inspect.isfunction(value):
                    wrapped = self.wrap(value, name)
                else:
                    continue
                self._undo.append((cls, key, value))
                setattr(cls, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def descendant_counts(spans: list[Span], ancestor: str, name: str) -> list[int]:
    """For each span called ``ancestor``, how many ``name`` spans lie beneath it."""
    by_id = {s.sid: s for s in spans}
    tally = {s.sid: 0 for s in spans if s.name == ancestor}
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None:
            if p in tally:
                tally[p] += 1
                break
            p = by_id[p].parent
    return [tally[k] for k in sorted(tally)]


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Total inclusive and total self seconds per span name."""
    selfs = self_times(spans)
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    for s in spans:
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
        excl[s.name] = excl.get(s.name, 0.0) + selfs[s.sid]
    return incl, excl


def to_json(tracer: Tracer) -> dict:
    return {"spans": [[s.sid, s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
            "counts": dict(tracer.counts)}


def from_json(data: dict, sid_offset: int = 0, op: int | None = None) -> tuple[list[Span], Counter]:
    """Spans written by ``to_json``, renumbered from ``sid_offset`` and tagged with ``op``."""
    spans = [Span(sid + sid_offset, name, start, end,
                  None if parent is None else parent + sid_offset,
                  op if op is not None else span_op)
             for sid, name, start, end, parent, span_op in data["spans"]]
    return spans, Counter(data["counts"])
