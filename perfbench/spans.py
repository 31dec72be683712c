"""Per-layer spans for the waveline benchmark, recorded from outside the program.

The package imports its kernels with ``from .x import y``, so a call is
looked up in the *caller's* module namespace (or, for the suites, in the
``checks.SUITES`` table the CLI indexes).  Each layer is therefore wrapped
at every site where a caller looks it up; the program's own files are never
changed.  Spans (name, start, end, parent, counts) stay in memory while the
program runs and are reduced to metrics afterwards.

A site that no longer exists raises ``MissingSite`` when the wrappers are
installed, and a layer expected on a workload that records no span raises
``MissingSpan``: a later rename must not silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class MissingSite(RuntimeError):
    """A function the benchmark wraps is no longer where callers look it up."""


class MissingSpan(RuntimeError):
    """A layer expected on this workload never ran."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _steps(a, result):
    return {"steps": int(a["N"])}


def _perturb(a, result):
    return {"points": int(a["base"].N) + 1, "seed": int(a["seed"])}


def _lattice(a, result):
    return {"points": int(a["w"].N) + 1}


def _resample(a, result):
    q_grid, _ = result
    return {"points": len(q_grid)}


def _search(a, result):
    return {"iterations": int(result.iterations)}


def _nodes(a, result):
    return {"nodes": int(a["w"].N) + 1}


def _written(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (span name, module holding the function, attribute, lookup sites, counts).
# A site is "module:attribute" for a module global, or "module:TABLE[key]"
# for an entry of a dict the caller indexes.
LAYERS = (
    ("checks.flow", "waveline.checks", "flow_suite",
     ("waveline.checks:flow_suite", "waveline.checks:SUITES[flow]"), None),
    ("checks.lambda", "waveline.checks", "lambda_suite",
     ("waveline.checks:lambda_suite", "waveline.checks:SUITES[lambda]"), None),
    ("checks.stationary", "waveline.checks", "stationarity_suite",
     ("waveline.checks:stationarity_suite", "waveline.checks:SUITES[stationary]"), None),
    ("checks.operator", "waveline.checks", "operator_suite",
     ("waveline.checks:operator_suite",), None),
    ("checks.phase", "waveline.checks", "phase_suite",
     ("waveline.checks:phase_suite", "waveline.checks:SUITES[phase]"), None),
    ("phase_flow.integrate_flow", "waveline.phase_flow", "integrate_flow",
     ("waveline.checks:integrate_flow",), _steps),
    ("worldline.perturb_interior", "waveline.worldline", "perturb_interior",
     ("waveline.checks:perturb_interior",), _perturb),
    ("eigenvalue.lambda_lattice", "waveline.eigenvalue", "lambda_lattice",
     ("waveline.checks:lambda_lattice",), _lattice),
    ("eigenvalue.apply_action_operator", "waveline.eigenvalue", "apply_action_operator",
     ("waveline.checks:apply_action_operator",), _nodes),
    ("phase_functional.phase_difference", "waveline.phase_functional", "phase_difference",
     ("waveline.checks:phase_difference", "waveline.phase_functional:phase_difference"),
     None),
    ("phase_functional.resample_on_log_clock", "waveline.phase_functional",
     "resample_on_log_clock", ("waveline.phase_functional:resample_on_log_clock",),
     _resample),
    ("stationarity.numeric_stationary_search", "waveline.stationarity",
     "numeric_stationary_search", ("waveline.checks:numeric_stationary_search",), _search),
    ("stationarity.objective_evals", "waveline.eigenvalue", "lambda_closed_form",
     ("waveline.stationarity:lambda_closed_form",), None),
    ("report.write", "waveline.report", "write_json",
     ("waveline.checks:write_json", "waveline.cli:write_json"), _written),
    ("report.write", "waveline.report", "write_csv",
     ("waveline.checks:write_csv",), _written),
)

SUITES = ("flow", "lambda", "stationary", "operator", "phase")
ROOT_SPAN = "cli.main"

# Layers each workload must exercise; every one has to record a span.
EXPECTED = {
    "verify-default": tuple(dict.fromkeys(name for name, *_ in LAYERS)),
    "flow-sweep": ("checks.flow", "phase_flow.integrate_flow", "report.write"),
    "phase-resample": ("checks.phase", "worldline.perturb_interior",
                       "phase_functional.phase_difference",
                       "phase_functional.resample_on_log_clock", "report.write"),
}


class Tracer:
    """In-memory span recorder; the parent of a span is the innermost open one."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, args, kwargs, counts=None, signature=None):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else None))
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            span = self.spans[index]
            span.start, span.end = start, end
        if counts is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counts(bound.arguments, result)
        return result

    def wrap(self, name, fn, counts=None):
        signature = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts, signature)

        return traced


def _resolve(site):
    module_name, _, attr = site.partition(":")
    module = importlib.import_module(module_name)
    if attr.endswith("]"):
        table, _, key = attr[:-1].partition("[")
        return getattr(module, table, None), key
    return module.__dict__, attr


@contextmanager
def installed(tracer):
    """Wrap every layer at its lookup sites for the duration of the block."""
    saved = []
    try:
        for name, module_name, attr, sites, counts in LAYERS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if not callable(original):
                raise MissingSite(f"{module_name}.{attr} is gone (layer {name})")
            wrapper = tracer.wrap(name, original, counts)
            for site in sites:
                namespace, key = _resolve(site)
                if not isinstance(namespace, dict) or namespace.get(key) is not original:
                    raise MissingSite(f"{site} no longer looks up {module_name}.{attr}")
                saved.append((namespace, key, original))
                namespace[key] = wrapper
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            namespace[key] = original


def layer_metrics(spans, workload):
    """Per-layer counts and times of one traced call, keyed by metric name."""
    fired = {s.name for s in spans}
    missing = [name for name in EXPECTED[workload] if name not in fired]
    if missing:
        raise MissingSpan(f"expected spans never fired on {workload}: {missing}")

    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        if key is None:
            return sum(s.duration for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, []))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    flow_s = total("phase_flow.integrate_flow")
    flow_steps = total("phase_flow.integrate_flow", "steps")
    m["phase_flow.integrate_flow.calls"] = calls("phase_flow.integrate_flow")
    m["phase_flow.integrate_flow.time_s"] = flow_s
    m["phase_flow.integrate_flow.steps"] = flow_steps
    m["phase_flow.integrate_flow.steps_per_s"] = rate(flow_steps, flow_s)

    perturb = by_name.get("worldline.perturb_interior", [])
    m["worldline.perturb_interior.calls"] = len(perturb)
    m["worldline.perturb_interior.time_s"] = total("worldline.perturb_interior")
    m["worldline.perturb_interior.points"] = total("worldline.perturb_interior", "points")
    m["worldline.perturb_interior.distinct_seed_ratio"] = (
        len({s.counts.get("seed") for s in perturb}) / len(perturb) if perturb else 0.0
    )

    lattice_s = total("eigenvalue.lambda_lattice")
    lattice_points = total("eigenvalue.lambda_lattice", "points")
    m["eigenvalue.lambda_lattice.calls"] = calls("eigenvalue.lambda_lattice")
    m["eigenvalue.lambda_lattice.time_s"] = lattice_s
    m["eigenvalue.lambda_lattice.points"] = lattice_points
    m["eigenvalue.lambda_lattice.points_per_s"] = rate(lattice_points, lattice_s)

    for layer in ("resample_on_log_clock", "phase_difference"):
        name = f"phase_functional.{layer}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.time_s"] = total(name)
    m["phase_functional.resample_on_log_clock.points"] = total(
        "phase_functional.resample_on_log_clock", "points"
    )

    name = "stationarity.numeric_stationary_search"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.time_s"] = total(name)
    m[f"{name}.iterations"] = total(name, "iterations")
    m["stationarity.objective_evals"] = calls("stationarity.objective_evals")

    name = "eigenvalue.apply_action_operator"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.time_s"] = total(name)
    m[f"{name}.nodes"] = total(name, "nodes")

    # Children of one span run one after another, so their durations add up
    # to the part of the parent's interval they cover.
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    for suite in SUITES:
        name = f"checks.{suite}"
        m[f"{name}.time_s"] = total(name)
        m[f"{name}.self_s"] = sum(
            s.duration - child_s[i] for i, s in enumerate(spans) if s.name == name
        )

    m["report.write.calls"] = calls("report.write")
    m["report.write.time_s"] = total("report.write")
    m["report.write.bytes"] = total("report.write", "bytes")
    return m
