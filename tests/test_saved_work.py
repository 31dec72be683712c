"""Work a run does once: rung lines, mode tables, displacements, stencils, sweeps.

The lambda suite builds the run's straight line and its sine-mode table
once per lattice size and shares them between the flowing ladder, the
frozen control and the breakdown; ``verify_suite`` hands the N rung and the
displacement stack on to the phase suite.  The stationary search evaluates
each finite-difference stencil in one ``lambda_closed_form`` call, and the
stationary suite takes its duration sweep in one ``reduced_lambda`` call per
branch.  These tests pin the call counts, and that the shared pieces change
no number and no error; and that the leaner kernels keep their guards:
``as_four_vector`` still refuses every non-finite slot, and ``Worldline``
still copies a caller's array.
"""

import hashlib
import json

import numpy as np
import pytest

from waveline import checks, stationarity
from waveline.cli import main
from waveline.config import load_config
from waveline.eigenvalue import lambda_closed_form, trapezoid
from waveline.errors import BadGrid, FlowSingularity, ZeroDuration
from waveline.minkowski import as_four_vector
from waveline.phase_flow import FlowInitialData
from waveline.stationarity import (
    numeric_stationary_search,
    optimal_C,
    optimal_sigma1,
    reduced_lambda,
)
from waveline.worldline import Worldline, interior_modes, lattice, perturb_interior, straight_line

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


@pytest.mark.parametrize("overrides", [QUICK, GENERIC], ids=["quick", "generic"])
def test_verify_suite_builds_the_n_rung_and_one_displacement_stack_once(monkeypatch, overrides):
    cfg = load_config(overrides=overrides)
    lines = counting(monkeypatch, checks, "straight_line")
    modes = counting(monkeypatch, checks, "interior_modes")
    stacks = counting(monkeypatch, checks, "seed_displacements")
    result = checks.verify_suite(cfg)
    c_run = cfg.run_duration()
    # the lambda suite's rungs and the phase suite's line are one set; the
    # operator suite builds its own on operator_N steps
    run_lines = [args[3] for args in lines if args[2] == c_run]
    assert sorted(run_lines) == sorted(checks._n_ladder(cfg.N) + [cfg.operator_N])
    assert sorted(args[0].N for args in modes) == checks._n_ladder(cfg.N)
    assert len(stacks) == 1 and len(stacks[0][1]) == cfg.n_perturbations
    # and what verify reports is what the suites report run alone
    alone = checks._merge(
        checks.flow_suite(cfg),
        checks.lambda_suite(cfg, with_control=True),
        checks.stationarity_suite(cfg),
        checks.operator_suite(cfg),
        checks.phase_suite(cfg),
    )
    assert [c.as_dict() for c in result.checks] == [c.as_dict() for c in alone.checks]
    assert json.dumps(result.artifacts) == json.dumps(alone.artifacts)


def test_every_rung_outlives_the_lambda_suite(monkeypatch):
    cfg = load_config(overrides=QUICK)
    rungs = checks._RunRungs(cfg)
    checks.lambda_suite(cfg, rungs=rungs)
    lines = counting(monkeypatch, checks, "straight_line")
    modes = counting(monkeypatch, checks, "interior_modes")
    stacks = counting(monkeypatch, checks, "seed_displacements")
    for n in checks._n_ladder(cfg.N):
        rungs.line(n)
        rungs.modes(n)
    assert len(rungs.displacements(cfg.n_perturbations)) == cfg.n_perturbations
    assert lines == [] and modes == [] and stacks == []


def test_a_phase_stack_longer_than_the_lambda_one_is_built_anew(monkeypatch):
    cfg = load_config(overrides={**QUICK, "n_phase_perturbations": 9})
    stacks = counting(monkeypatch, checks, "seed_displacements")
    checks.verify_suite(cfg)
    assert [len(args[1]) for args in stacks] == [cfg.n_perturbations, 9]


class TestSharedDisplacements:
    def test_leading_rows_of_the_lambda_stack_are_the_phase_stack(self):
        cfg = load_config()
        assert (cfg.n_perturbations, cfg.n_phase_perturbations) == (100, 20)
        rungs = checks._RunRungs(cfg)
        full = rungs.displacements(cfg.n_perturbations)
        phase = checks._displacements(cfg, cfg.n_phase_perturbations)
        assert np.array_equal(full[:20], phase)
        assert np.array_equal(rungs.displacements(20), phase)


class TestPerturbWithModeTable:
    @pytest.mark.parametrize("n", [2, 3, 17, 2000, 10_000])
    @pytest.mark.parametrize("seed", [1, 8, 123])
    @pytest.mark.parametrize("amplitude", [0.3, 1e-9, 0.0])
    def test_reading_the_table_equals_computing_the_sines(self, n, seed, amplitude):
        a = np.array([0.1, -0.2, 0.05, 0.3])
        w = straight_line(a, a + B, 0.9407, n)
        with_table = perturb_interior(w, amplitude, seed, interior_modes(w))
        assert np.array_equal(with_table.points, perturb_interior(w, amplitude, seed).points)


class TestTrapezoid:
    @pytest.mark.parametrize("n", [2, 3, 17, 10_000])
    @pytest.mark.parametrize("c", [1e-300, 1e-3, 0.9407, 7.5, 1e200])
    def test_equals_numpy_bit_for_bit(self, n, c):
        rng = np.random.default_rng(n)
        grid = lattice(c, n)
        for y in (rng.standard_normal(n + 1), rng.standard_normal(n + 1) * 1e150,
                  rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)):
            # 1e150 by steps of 1e196 leaves the float range, and inf - inf is NaN
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = trapezoid(y, grid), np.trapezoid(y, grid)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()

    def test_decreasing_nodes(self):
        # the log clock's nodes fall from 0 to Q < 0 at a decaying curvature
        grid = np.linspace(0.0, -0.7, 41)
        y = np.cos(np.arange(41.0))
        assert trapezoid(y, grid) == np.trapezoid(y, grid)


# (a, b, m, sigma2_0): the default geometry, GENERIC's, and the default one
# at a decaying curvature with D(C*) = 0.05, close to the pole
NEAR_POLE_S2 = (0.05 - 1.0) / (2.0 * 0.9407443861113389)
SEARCH_CASES = {
    "default": (A, B, 1.0, 0.5),
    "generic": (np.array(GENERIC["a"]), np.array(GENERIC["b"]), GENERIC["m"], 0.5),
    "near-pole": (A, B, 1.0, NEAR_POLE_S2),
}


def one_point_at_a_time(f):
    """``f`` evaluated one point per call, as the stencils evaluated it before."""
    return lambda points: np.array([f(p) for p in points])


def per_point_gradient(f, z):
    g = np.empty(z.size)
    for k in range(z.size):
        h = stationarity.GRAD_STEP * (1.0 + abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        g[k] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def per_point_hessian(f, z):
    n = z.size
    hs = stationarity.HESS_STEP * (1.0 + np.abs(z))
    hess = np.empty((n, n))
    f0 = f(z)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                zp, zm = z.copy(), z.copy()
                zp[i] += hs[i]
                zm[i] -= hs[i]
                hess[i, i] = (f(zp) - 2.0 * f0 + f(zm)) / hs[i] ** 2
            else:
                zpp, zpm, zmp, zmm = z.copy(), z.copy(), z.copy(), z.copy()
                zpp[[i, j]] += [hs[i], hs[j]]
                zpm[i] += hs[i]
                zpm[j] -= hs[j]
                zmp[i] -= hs[i]
                zmp[j] += hs[j]
                zmm[[i, j]] -= [hs[i], hs[j]]
                hess[i, j] = hess[j, i] = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (
                    4.0 * hs[i] * hs[j]
                )
    return hess


def objective(a, b, m, s2):
    def f(z):
        init = FlowInitialData(z[..., :4], s2)
        return lambda_closed_form(init, a, b, m, z[..., 4])

    return f


class TestClosedFormOnStacks:
    @pytest.mark.parametrize("case", SEARCH_CASES)
    @pytest.mark.parametrize("branch", [1, -1])
    def test_a_stack_equals_one_call_per_point(self, case, branch):
        a, b, m, s2 = SEARCH_CASES[case]
        c = optimal_C(a, b, m, branch)
        rng = np.random.default_rng(7)
        z = np.append(optimal_sigma1(s2, a, b, c), c)
        points = z + 1e-3 * rng.standard_normal((51, 5)) * (1.0 + np.abs(z))
        f = objective(a, b, m, s2)
        stacked = f(points)
        assert stacked.shape == (51,)
        assert stacked.tolist() == [float(f(p)) for p in points]

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("default", "fe872a7e4f45922049a87068a072a5e777c8421ff0c952cbca9c58ad3069e7eb"),
            ("generic", "d898b0d2f0b6918218e9a0db98ec45766777c6bd13975ca80552c991f7be496d"),
        ],
    )
    def test_stencil_values_keep_their_bytes(self, case, digest):
        # SHA-256 of 51 points' values as one call per point gave them before
        # the closed form took stacks
        a, b, m, s2 = SEARCH_CASES[case]
        c = 0.8 * optimal_C(a, b, m)
        z = np.append(optimal_sigma1(s2, a, b, c), c)
        points = z + 1e-4 * np.random.default_rng(26).standard_normal((51, 5))
        values = objective(a, b, m, s2)(points)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_the_pole_names_the_first_point_at_or_past_it(self):
        a, b, m, s2 = SEARCH_CASES["near-pole"]
        c_star = -0.5 / s2
        cs = np.array([0.5, 0.99 * c_star, 1.01 * c_star, 1.2 * c_star, c_star])
        points = np.column_stack([np.tile(optimal_sigma1(s2, a, b, 0.5), (5, 1)), cs])
        f = objective(a, b, m, s2)
        with pytest.raises(FlowSingularity) as stacked:
            f(points)
        with pytest.raises(FlowSingularity) as alone:
            f(points[2])
        assert str(stacked.value) == str(alone.value)

    def test_a_zero_duration_anywhere_raises(self):
        points = np.tile([0.3, 0.1, 0.0, 0.2, 0.8], (4, 1))
        points[2, 4] = 0.0
        with pytest.raises(ZeroDuration):
            objective(A, B, 1.0, 0.5)(points)

    def test_a_non_finite_point_is_refused(self):
        points = np.tile([0.3, 0.1, 0.0, 0.2, 0.8], (4, 1))
        points[3, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            objective(A, B, 1.0, 0.5)(points)


class TestBatchedStencils:
    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_gradient_and_hessian_equal_the_per_point_loops(self, case):
        a, b, m, s2 = SEARCH_CASES[case]
        c = optimal_C(a, b, m)
        f = objective(a, b, m, s2)
        for z in (np.append(optimal_sigma1(s2, a, b, 0.8 * c), 0.8 * c),
                  np.append(optimal_sigma1(s2, a, b, c), c) + 1e-3):
            assert stationarity._fd_gradient(f, z).tobytes() == per_point_gradient(f, z).tobytes()
            assert stationarity._fd_hessian(f, z).tobytes() == per_point_hessian(f, z).tobytes()

    @pytest.mark.parametrize("case", SEARCH_CASES)
    @pytest.mark.parametrize("branch", [1, -1])
    def test_the_search_keeps_every_value_and_trace_entry(self, monkeypatch, case, branch):
        a, b, m, s2 = SEARCH_CASES[case]

        def report():
            found = numeric_stationary_search(a, b, m, sigma2_0=s2, branch=branch, tol=1e-8,
                                              sigma2_scan=(-0.2, 0.0, 0.3))
            assert found.iterations > 1
            return json.dumps(found.as_dict())

        batched = report()
        monkeypatch.setattr(stationarity, "_fd_gradient", per_point_gradient)
        monkeypatch.setattr(stationarity, "_fd_hessian", per_point_hessian)
        assert batched == report()

    def test_one_closed_form_call_per_stencil(self, monkeypatch):
        calls = counting(monkeypatch, stationarity, "lambda_closed_form")
        report = numeric_stationary_search(A, B, 1.0, sigma2_0=0.5, tol=1e-8, sigma2_scan=(0.1,))
        shapes = [np.shape(args[4]) for args in calls]
        # a gradient before the loop and after each step, a Hessian per step,
        # the scan's point and the final value
        steps = report.iterations
        assert shapes.count((10,)) == steps + 1
        assert shapes.count((51,)) == steps
        assert shapes.count(()) == 2
        assert len(shapes) == 2 * steps + 3


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
