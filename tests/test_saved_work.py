"""Work a run does once: the lambda suite's rung lines and the duration sweep.

The lambda suite builds the run's straight line and its sine-mode table
once per lattice size and shares them between the flowing ladder, the
frozen control and the breakdown; the stationary suite takes its duration
sweep in one ``reduced_lambda`` call per branch.  These tests pin the call
counts, and that the shared pieces change no number and no error; and
that the leaner kernels keep their guards: ``as_four_vector`` still
refuses every non-finite slot, and ``Worldline`` still copies a caller's
array.
"""

import json

import numpy as np
import pytest

from waveline import checks
from waveline.cli import main
from waveline.config import load_config
from waveline.errors import BadGrid, ZeroDuration
from waveline.minkowski import as_four_vector
from waveline.stationarity import reduced_lambda
from waveline.worldline import Worldline, straight_line

from conftest import GENERIC, QUICK

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])


def counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("overrides", [QUICK, GENERIC], ids=["quick", "generic"])
def test_lambda_suite_builds_each_rung_line_and_mode_table_once(monkeypatch, overrides):
    cfg = load_config(overrides=overrides)
    lines = counting(monkeypatch, checks, "straight_line")
    modes = counting(monkeypatch, checks, "interior_modes")
    suite = checks.lambda_suite(cfg, with_control=True)
    assert all(c.passed for c in suite.checks)
    rungs = len(checks._n_ladder(cfg.N))
    # one line per agreement set, one per rung; the control and the
    # breakdown reuse the rungs' lines
    assert len(lines) == cfg.n_lambda_sets + rungs
    assert len(modes) == rungs
    assert sorted(args[3] for args in lines[cfg.n_lambda_sets:]) == checks._n_ladder(cfg.N)


def test_lambda_suite_without_control_shares_the_breakdown_line(monkeypatch):
    cfg = load_config(overrides=QUICK)
    lines = counting(monkeypatch, checks, "straight_line")
    checks.lambda_suite(cfg)
    assert len(lines) == cfg.n_lambda_sets + len(checks._n_ladder(cfg.N))


def test_a_rung_line_that_fails_to_build_fails_the_names_it_always_failed(monkeypatch):
    # every line of the run's duration raises; the agreement sets' lines do not
    cfg = load_config(overrides=QUICK)
    c_run = cfg.run_duration()
    original = checks.straight_line

    def refusing(a, b, C, N):
        if C == c_run:
            raise BadGrid(f"refused N={N}")
        return original(a, b, C, N)

    monkeypatch.setattr(checks, "straight_line", refusing)
    suite = checks.lambda_suite(cfg, with_control=True)
    details = {c.name: c.detail for c in suite.checks if not c.passed}
    n_low = checks._n_ladder(cfg.N)[0]
    assert details == {
        "lambda_worldline_independence_order": f"BadGrid: refused N={n_low}",
        "lambda_violation_detected": (
            f"NotMeasured: the flowing ladder measured nothing (BadGrid: refused N={n_low})"
        ),
        "lambda_breakdown": f"BadGrid: refused N={cfg.N}",
    }
    assert "lambda_breakdown.json" not in suite.artifacts


def test_breakdown_payload_is_built_on_the_rung_line(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(QUICK))
    assert main(["lambda", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "lambda_breakdown.json").read_text())
    cfg = load_config(path)
    w = straight_line(cfg.a, cfg.b, cfg.run_duration(), cfg.N)
    flow = checks.sample_closed_form(
        checks.FlowInitialData(cfg.run_sigma1_0(), cfg.sigma2_0), w.grid
    )
    assert payload["lattice"] == checks.lambda_lattice(w, flow, cfg.m)


def test_stationary_suite_sweeps_durations_in_one_call_per_branch(monkeypatch):
    calls = counting(monkeypatch, checks, "reduced_lambda")
    suite = checks.stationarity_suite(load_config(overrides=QUICK))
    assert all(c.passed for c in suite.checks)
    assert len(calls) == 2
    assert [np.shape(args[0]) for args in calls] == [(100,), (100,)]


class TestReducedLambdaOnArrays:
    @pytest.mark.parametrize("m", [1.0, 0.37, 2.5])
    def test_equals_the_scalar_calls_bit_for_bit(self, m):
        a = np.array([0.1, -0.2, 0.05, 0.3])
        b = a + B
        for sign in (1.0, -1.0):
            cs = sign * np.linspace(0.3, 2.5, 100) * 0.94
            lams = reduced_lambda(cs, a, b, m)
            assert lams.shape == cs.shape
            assert lams.tolist() == [float(reduced_lambda(c, a, b, m)) for c in cs]

    @pytest.mark.parametrize("position", [0, 4, -1])
    def test_a_zero_duration_anywhere_raises(self, position):
        cs = np.linspace(0.5, 1.5, 9)
        cs[position] = 0.0
        with pytest.raises(ZeroDuration):
            reduced_lambda(cs, A, B, 1.0)

    def test_scalar_zero_still_raises(self):
        with pytest.raises(ZeroDuration):
            reduced_lambda(0.0, A, B, 1.0)


class TestFourVectorGuard:
    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_each_non_finite_slot_is_rejected(self, slot, bad):
        v = [1.0, 0.5, -0.25, 2.0]
        v[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            as_four_vector(v)
        with pytest.raises(ValueError, match="finite"):
            as_four_vector(np.array(v))

    def test_a_finite_vector_comes_back_as_floats(self):
        out = as_four_vector([1, 2, 3, 4])
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_a_callers_array_is_copied_and_stays_writable():
    pts = np.asfortranarray(straight_line(A, B, 1.0, 10).points.copy())
    w = Worldline(1.0, 10, pts)
    assert not np.shares_memory(w.points, pts)
    assert pts.flags.writeable
    pts[3, 1] = 7.0  # the caller's array is theirs to change
    assert w.points[3, 1] != 7.0
    with pytest.raises(ValueError):
        w.points[3, 1] = 7.0
