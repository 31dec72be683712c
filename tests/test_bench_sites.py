"""The benchmark's span wrappers still find every layer they look up.

``perfbench/spans.py`` wraps kernels at the names callers look them up by
and raises ``MissingSite`` or ``MissingSpan`` when a refactor moves one, so
a renamed function or parameter would only surface under ``--trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

from waveline import cli

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_flow_sweep_sites_and_batched_calls(tmp_path):
    spans = load_spans()
    config = ROOT / "perfbench" / "workloads" / "flow-sweep.json"
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["flow", "--config", str(config), "--N", "200",
                         "--out", str(tmp_path / "out")])
    # N = 200 misses the flow tolerance set for N = 1000; only the sites matter
    assert code in (0, 1)
    metrics = spans.layer_metrics(tracer.spans, "flow-sweep")
    # one call of N loop iterations for all 35 curvatures on every ladder
    # rung and the trace on the top one
    assert metrics["phase_flow.integrate_flow.calls"] == 1
    assert metrics["phase_flow.integrate_flow.steps"] == 200


def test_verify_default_sites_and_one_operator_call_per_case(tmp_path):
    spans = load_spans()
    config = ROOT / "perfbench" / "workloads" / "verify-default.json"
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["verify", "--config", str(config), "--N", "200",
                         "--out", str(tmp_path / "out")])
    # N = 200 may miss tolerances set for N = 10000; only the sites matter
    assert code in (0, 1)
    metrics = spans.layer_metrics(tracer.spans, "verify-default")
    # three operator cases; the imaginary-part check reuses the last one
    assert metrics["eigenvalue.apply_action_operator.calls"] == 3
    # one lattice per agreement set (50), one per rung of the flowing and of
    # the frozen ladder (3 + 3), and the breakdown's; the phase suite's
    # consistency line is the only perturbed one
    assert metrics["eigenvalue.lambda_lattice.calls"] == 50 + 3 + 3 + 1
    assert metrics["worldline.perturb_interior.calls"] == 1


def test_phase_resample_sites_and_one_spline_pass(tmp_path):
    spans = load_spans()
    config = ROOT / "perfbench" / "workloads" / "phase-resample.json"
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["phase", "--config", str(config), "--N", "200",
                         "--out", str(tmp_path / "out")])
    # N = 200 may miss tolerances set for N = 10000; only the sites matter
    assert code in (0, 1)
    metrics = spans.layer_metrics(tracer.spans, "phase-resample")
    # the 200 trajectories come from one expansion around the base line;
    # only the two-clock consistency check perturbs a line directly
    assert metrics["worldline.perturb_interior.calls"] == 1
    # the consistency line; the expansion returns the base line's anchor
    assert metrics["phase_functional.phase_difference.calls"] == 1
    # the base line, once for the expansion and its anchor, the six mode
    # columns (one spline over all of them), the consistency line
    assert metrics["phase_functional.resample_on_log_clock.calls"] == 3
