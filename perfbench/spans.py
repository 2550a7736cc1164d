"""Layer spans for the traced run, recorded from outside the library.

The tracer replaces every binding of a layer's public function inside the
loaded `projlab` modules with a wrapper that times the call, so calls made
from inside a pipeline (say `run_sharpness` calling `projected_cardinality`)
are caught too.  Spans nest: the benchmark opens one span per operation and
each wrapped call opens a child.  Busy times are inclusive; an operation's
time not covered by any child span is its unattributed time.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import projlab as pl


def _count(name, fn):
    return lambda args, result: {name: fn(args, result)}


def _cardinality_keys(args, result):
    spec = pl.grid_parameters(args[0])
    return {"sharpness.cardinality_keys": spec.m * spec.n_g}


def _eset_counts(args, result):
    return {
        "projections.directions": len(result.sweep_thetas),
        "projections.members": len(result.members),
    }


def _eset_span(op):
    return "projections.esets_random" if op.endswith("random") else "projections.esets"


# (module, attribute, span name or op -> span name, counters, latency samples)
# `samples` is None (keep none), "*" (every call) or the span name that must
# enclose the call for its latency to be kept.
LAYERS = [
    ("projlab.pointsets", "gen_grid_example", "pointsets.gen",
     _count("pointsets.points", lambda a, r: len(r)), None),
    ("projlab.pointsets", "gen_four_corners", "pointsets.gen",
     _count("pointsets.points", lambda a, r: len(r)), None),
    ("projlab.pointsets", "read_pset", "pointsets.read_pset", None, None),
    ("projlab.projections", "project", "projections.project", None, None),
    ("projlab.projections", "covering_number_1d", "projections.cover",
     _count("projections.cover_values", lambda a, r: len(a[0])), "*"),
    ("projlab.projections", "compute_E_s", _eset_span, _eset_counts, None),
    ("projlab.projections", "covering_number_directions", "projections.covdir",
     None, None),
    ("projlab.sharpness", "build_slope_set", "sharpness.slope_set",
     _count("sharpness.slopes", lambda a, r: len(r)), None),
    ("projlab.sharpness", "verify_separation", "sharpness.separation", None, None),
    ("projlab.sharpness", "count_line_hits", "sharpness.line_hits", None, None),
    ("projlab.sharpness", "projected_cardinality", "sharpness.cardinality",
     _cardinality_keys, "*"),
    ("projlab.incidence", "build_tubes", "incidence.build",
     _count("incidence.tubes", lambda a, r: r.total), None),
    ("projlab.incidence", "count_incidences", "incidence.count",
     _count("incidence.incidences", lambda a, r: r.count), None),
    ("projlab.incidence", "upper_bound_report", "incidence.report", None, None),
    ("projlab.entropy", "ad_regularity_check", "entropy.regularity", None, None),
    ("projlab.entropy", "marstrand_average", "entropy.marstrand", None, None),
    ("projlab.entropy", "multiscale_check", "entropy.multiscale", None, None),
    ("projlab.entropy", "conditional_entropy", "entropy.cef", None, None),
    ("projlab.entropy", "theorem_main2_experiment", "entropy.adreg", None, None),
    ("projlab.entropy", "project_measure", "entropy.project_measure", None,
     "entropy.marstrand"),
]

# to_json is a method, so it is replaced on the class rather than per module.
RECORD_METHOD = (pl.ExperimentRecord, "to_json", "records.to_json",
                 _count("records.json_bytes", lambda a, r: len(r)), None)


class Tracer:
    """Collects span aggregates while an operation is open.

    Wrappers stay installed between operations (the output checks call
    library functions too) but record only inside `op`.
    """

    def __init__(self):
        self._stack: list[list] = []  # [span name, child seconds]
        self._op = ""
        self._undo: list[tuple] = []
        self._reset()

    def _reset(self):
        self.busy = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.unattributed = 0.0

    def take(self) -> dict:
        """Aggregates since the last take, then start afresh."""
        snap = {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "unattributed": self.unattributed,
        }
        self._reset()
        return snap

    @contextmanager
    def op(self, name: str):
        self._op = name
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.unattributed += perf_counter() - t0 - frame[1]
            self._stack.pop()
            self._op = ""

    def _wrap(self, fn, span, counters, samples):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            name = span(self._op) if callable(span) else span
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._stack[-1][1] += dt
                self.busy[name] += dt
                self.calls[name] += 1
                if samples == "*" or any(f[0] == samples for f in self._stack):
                    self.samples[name].append(dt * 1e3)
            if counters is not None:
                self.counts.update(counters(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of the layer functions in projlab's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "projlab" or n.startswith("projlab.")]
        for mod_name, attr, span, counters, samples in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, span, counters, samples)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls, attr, span, counters, samples = RECORD_METHOD
        self._undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, self._wrap(getattr(cls, attr), span, counters, samples))
        try:
            yield self
        finally:
            while self._undo:
                owner, key, original = self._undo.pop()
                setattr(owner, key, original)


def _merge(a: dict, b: dict) -> dict:
    out = {}
    for part in ("busy", "calls", "counts"):
        keys = set(a[part]) | set(b[part])
        out[part] = {k: a[part].get(k, 0) + b[part].get(k, 0) for k in keys}
    return out


def _pct(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busy(span):
    return lambda agg: agg["busy"].get(span, 0.0)


def _calls(span):
    return lambda agg: agg["calls"].get(span, 0)


def _counts(name):
    return lambda agg: agg["counts"].get(name, 0)


# Per-pass layer metrics: (name, unit, value from one pass's aggregate).
PASS_METRICS = [
    ("pointsets.gen_s", "s", _busy("pointsets.gen")),
    ("pointsets.points", "count", _counts("pointsets.points")),
    ("pointsets.read_pset_s", "s", _busy("pointsets.read_pset")),
    ("projections.project_s", "s", _busy("projections.project")),
    ("projections.project_calls", "count", _calls("projections.project")),
    ("projections.cover_s", "s", _busy("projections.cover")),
    ("projections.cover_calls", "count", _calls("projections.cover")),
    ("projections.cover_values", "count", _counts("projections.cover_values")),
    ("projections.esets_s", "s", _busy("projections.esets")),
    ("projections.esets_random_s", "s", _busy("projections.esets_random")),
    ("projections.directions", "count", _counts("projections.directions")),
    ("projections.member_ratio", "ratio",
     lambda agg: _ratio(agg["counts"].get("projections.members", 0),
                        agg["counts"].get("projections.directions", 0))),
    ("projections.covdir_s", "s", _busy("projections.covdir")),
    ("sharpness.slope_set_s", "s", _busy("sharpness.slope_set")),
    ("sharpness.slopes", "count", _counts("sharpness.slopes")),
    ("sharpness.separation_s", "s", _busy("sharpness.separation")),
    ("sharpness.line_hits_s", "s", _busy("sharpness.line_hits")),
    ("sharpness.cardinality_s", "s", _busy("sharpness.cardinality")),
    ("sharpness.cardinality_keys", "count", _counts("sharpness.cardinality_keys")),
    ("incidence.build_s", "s", _busy("incidence.build")),
    ("incidence.count_s", "s", _busy("incidence.count")),
    ("incidence.report_s", "s", _busy("incidence.report")),
    ("incidence.tubes", "count", _counts("incidence.tubes")),
    ("incidence.incidences", "count", _counts("incidence.incidences")),
    ("entropy.regularity_s", "s", _busy("entropy.regularity")),
    ("entropy.marstrand_s", "s", _busy("entropy.marstrand")),
    ("entropy.multiscale_s", "s", _busy("entropy.multiscale")),
    ("entropy.cef_s", "s", _busy("entropy.cef")),
    ("entropy.adreg_s", "s", _busy("entropy.adreg")),
    ("records.to_json_s", "s", _busy("records.to_json")),
    ("records.json_bytes", "B", _counts("records.json_bytes")),
]

# Per-call latencies pooled over every traced pass: (prefix, span).
LATENCIES = [
    ("projections.cover_ms", "projections.cover"),
    ("sharpness.cardinality_ms", "sharpness.cardinality"),
    ("entropy.project_measure_ms", "entropy.project_measure"),
]

TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: unit for name, unit, _ in PASS_METRICS}
    for prefix, _ in LATENCIES:
        units.update({f"{prefix}.p50": "ms", f"{prefix}.p95": "ms",
                      f"{prefix}.n": "count"})
    units.update(dict(TRACE_METRICS))
    return units


def layer_metrics(setup: dict, passes: list[dict], overhead_s: float) -> dict:
    """Per-layer values: each pass's aggregate plus the traced set-up, taken
    as the median over traced passes; latency percentiles pool all passes."""
    merged = [_merge(setup, p) for p in passes]
    values = {name: statistics.median(fn(agg) for agg in merged)
              for name, _, fn in PASS_METRICS}
    for prefix, span in LATENCIES:
        pooled = [x for p in passes for x in p["samples"].get(span, [])]
        values[f"{prefix}.p50"] = _pct(pooled, 50)
        values[f"{prefix}.p95"] = _pct(pooled, 95)
        values[f"{prefix}.n"] = len(pooled)
    values["trace.overhead_s"] = overhead_s
    values["trace.unattributed_s"] = statistics.median(p["unattributed"] for p in passes)
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
