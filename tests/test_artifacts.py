"""The artifacts a run writes hold the numbers its checks measured."""

import csv
import json

import numpy as np
import pytest

from waveline import checks
from waveline.checks import independence_spread
from waveline.cli import main
from waveline.config import load_config
from waveline.minkowski import interval_squared
from waveline.phase_flow import FlowInitialData, frozen_coefficients
from waveline.stationarity import optimal_sigma1, reduced_lambda
from waveline.worldline import interior_modes, seed_displacements, straight_line

from conftest import QUICK


@pytest.fixture(scope="module")
def quick_verify(tmp_path_factory):
    """(config, output directory, report checks by name) of a QUICK verify run."""
    tmp = tmp_path_factory.mktemp("verify")
    path = tmp / "quick.json"
    path.write_text(json.dumps(QUICK))
    out = tmp / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "run_report.json").read_text())
    return load_config(path), out, {c["name"]: c for c in report["checks"]}


def read_rows(path):
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_control_spreads_are_the_frozen_spreads_per_rung(quick_verify):
    cfg, out, by_name = quick_verify
    header, rows = read_rows(out / "lambda_control_spreads.csv")
    assert header == ["N", "frozen_spread"]

    c_run = cfg.run_duration()
    init = FlowInitialData(optimal_sigma1(cfg.sigma2_0, cfg.a, cfg.b, c_run), cfg.sigma2_0)
    amp = cfg.amplitude * np.sqrt(interval_squared(cfg.a, cfg.b))
    seeds = range(cfg.seed + 1, cfg.seed + 1 + cfg.n_perturbations)
    displacements = seed_displacements(amp, seeds, c_run)
    assert [int(n) for n, _ in rows] == [20, 200, 2000]
    for n, spread in rows:
        base = straight_line(cfg.a, cfg.b, c_run, int(n))
        frozen = frozen_coefficients(init, base.grid)
        modes = interior_modes(base)
        assert float(spread) == independence_spread(base, frozen, cfg.m, displacements, modes)

    control = by_name["lambda_violation_detected"]
    assert control["status"] == "pass"
    assert float(rows[-1][1]) == control["value"]


def test_duration_sweep_carries_both_branches(quick_verify):
    cfg, out, _ = quick_verify
    header, rows = read_rows(out / "sweep_lambda_vs_C.csv")
    assert header == ["branch", "C", "lambda"]
    branches = [int(b) for b, _, _ in rows]
    assert branches == [1] * 100 + [-1] * 100
    for branch, c, lam in rows:
        assert np.sign(float(c)) == int(branch)
        assert float(lam) == reduced_lambda(float(c), cfg.a, cfg.b, cfg.m)


def test_flow_suite_screens_each_curvature_once(tmp_path, monkeypatch):
    calls = []
    original = checks.checked_denominator

    def counting(sigma2_0, c):
        calls.append(sigma2_0)
        return original(sigma2_0, c)

    monkeypatch.setattr(checks, "checked_denominator", counting)
    out = tmp_path / "out"
    assert main(["flow", "--sigma2=-0.5,0.5", "--N", "200", "--out", str(out)]) == 1
    # the two curvatures and the flow.csv trace, not once per ladder rung
    assert sorted(calls) == [-0.5, -0.5, 0.5]
