import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveline.errors import (
    FlowSingularity,
    NoConvergence,
    NullSeparation,
    NumericalOverflow,
    SpacelikeSeparation,
    ZeroDuration,
    ZeroMass,
)
from waveline.eigenvalue import lambda_closed_form
from waveline.minkowski import classical_action
from waveline.phase_flow import FlowInitialData
from waveline.stationarity import (
    numeric_stationary_search,
    optimal_C,
    optimal_sigma1,
    reduced_lambda,
    stationary_lambda,
)

from conftest import timelike_pairs

A = np.zeros(4)
B1 = np.array([1.0, 0.0, 0.0, 0.0])
B2 = np.array([3.0, 1.0, 1.0, 1.0])  # interval^2 = 9 - 3 = 6
B3 = np.array([2.0, 0.6, 0.3, 0.1])  # the default config's b


class TestOptimalSigma1:
    def test_flat_curvature(self):
        np.testing.assert_allclose(optimal_sigma1(0.0, A, B1, 0.5), B1)

    def test_curved_case_uses_scaled_a(self):
        a = np.array([0.2, 0.1, 0.0, 0.0])
        out = optimal_sigma1(0.5, a, B1, 1.0)  # D = 2
        np.testing.assert_allclose(out, (B1 - 2.0 * a) / 2.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ZeroDuration):
            optimal_sigma1(0.0, A, B1, 0.0)

    def test_rejects_singular_denominator(self):
        with pytest.raises(FlowSingularity):
            optimal_sigma1(-0.5, A, B1, 1.0)

    def test_negative_branch_reports_its_pole(self):
        # C < 0 meets the pole of a growing curvature at c* = -1/(2 sigma2_0)
        with pytest.raises(FlowSingularity) as info:
            optimal_sigma1(0.5, A, B1, -1.5)
        assert info.value.c_star == -0.5 / 0.5
        assert str(info.value) == "flow is singular at c=-1.5 (D=-0.5, pole at c*=-1.0)"

    @given(st.floats(-0.3, 1.5), st.floats(0.3, 1.5))
    @settings(max_examples=60)
    def test_gradient_in_sigma1_vanishes(self, s2, C):
        if 1.0 + 2.0 * s2 * C < 0.3:
            return
        s1 = optimal_sigma1(s2, A, B1, C)
        base = lambda_closed_form(FlowInitialData(s1, s2), A, B1, 1.0, C)
        for mu in range(4):
            h = 1e-6
            bumped = s1.copy()
            bumped[mu] += h
            shifted = lambda_closed_form(FlowInitialData(bumped, s2), A, B1, 1.0, C)
            assert abs(shifted - base) / h < 1e-4  # first order term absent


class TestAnalyticStationaryPoint:
    def test_rest_frame_values(self):
        assert optimal_C(A, B1, 1.0) == pytest.approx(0.5)
        assert optimal_C(A, B1, 1.0, branch=-1) == pytest.approx(-0.5)
        assert stationary_lambda(A, B1, 1.0) == pytest.approx(1.0)

    def test_boosted_pair(self):
        assert optimal_C(A, B2, 2.0) == pytest.approx(np.sqrt(6.0) / 4.0)
        assert stationary_lambda(A, B2, 2.0) == pytest.approx(2.0 * np.sqrt(6.0))

    def test_reduced_lambda_example(self):
        assert reduced_lambda(0.5, A, B1, 1.0) == pytest.approx(1.0)
        # away from C* the value exceeds the stationary one on this branch
        assert reduced_lambda(0.25, A, B1, 1.0) == pytest.approx(1.25)

    @given(timelike_pairs(), st.floats(0.2, 3.0), st.sampled_from([1, -1]))
    @settings(max_examples=80)
    def test_matches_classical_action(self, pair, m, branch):
        a, b = pair
        lam = stationary_lambda(a, b, m, branch=branch)
        assert lam == pytest.approx(classical_action(a, b, m, branch=branch), abs=1e-12)

    @given(timelike_pairs(), st.floats(0.2, 3.0))
    @settings(max_examples=60)
    def test_branch_antisymmetry(self, pair, m):
        a, b = pair
        assert stationary_lambda(a, b, m, branch=-1) == pytest.approx(
            -stationary_lambda(a, b, m, branch=1), abs=1e-12
        )

    @given(st.floats(-0.4, 1.5), st.floats(0.25, 1.4))
    @settings(max_examples=60)
    def test_reduced_equals_closed_form_at_optimal_sigma1(self, s2, C):
        if 1.0 + 2.0 * s2 * C < 0.3:
            return
        s1 = optimal_sigma1(s2, A, B1, C)
        closed = lambda_closed_form(FlowInitialData(s1, s2), A, B1, 1.0, C)
        assert closed == pytest.approx(reduced_lambda(C, A, B1, 1.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(SpacelikeSeparation):
            optimal_C(A, np.array([0.5, 1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(NullSeparation):
            optimal_C(A, np.array([1.0, 1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ZeroMass):
            optimal_C(A, B1, 0.0)
        with pytest.raises(ValueError):
            optimal_C(A, B1, 1.0, branch=0)
        with pytest.raises(ZeroDuration):
            reduced_lambda(0.0, A, B1, 1.0)
        # sqrt(6) / 2e-320 leaves the float range
        with pytest.raises(NumericalOverflow, match="stationary duration for m=1e-320"):
            optimal_C(A, B2, 1e-320)


class TestNumericSearch:
    def test_rest_frame_recovery(self):
        report = numeric_stationary_search(A, B1, 1.0, sigma2_0=0.5, guess_C=0.3)
        assert report.converged
        assert report.C_star == pytest.approx(0.5, abs=1e-8)
        assert report.lambda_star == pytest.approx(1.0, abs=1e-8)
        assert report.gradient_norm <= 1e-9

    def test_negative_branch(self):
        report = numeric_stationary_search(A, B1, 1.0, branch=-1, guess_C=0.3)
        assert report.C_star == pytest.approx(-0.5, abs=1e-8)
        assert report.lambda_star == pytest.approx(-1.0, abs=1e-8)

    def test_boosted_pair_both_branches(self):
        for branch in (1, -1):
            report = numeric_stationary_search(A, B2, 2.0, branch=branch)
            assert abs(report.C_star - optimal_C(A, B2, 2.0, branch=branch)) <= 1e-8
            assert abs(report.lambda_star - classical_action(A, B2, 2.0, branch=branch)) <= 1e-8
            assert report.branch == branch

    def test_far_initial_guess_still_converges(self):
        report = numeric_stationary_search(A, B1, 1.0, guess_C=5.0)
        assert report.C_star == pytest.approx(0.5, abs=1e-8)

    def test_sigma1_star_matches_analytic(self):
        report = numeric_stationary_search(A, B2, 2.0, sigma2_0=0.3)
        expected = optimal_sigma1(0.3, A, B2, report.C_star)
        np.testing.assert_allclose(report.sigma1_star, expected, atol=1e-6)

    def test_degeneracy_scan(self):
        scan = (-0.4, -0.2, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
        report = numeric_stationary_search(A, B1, 1.0, sigma2_scan=scan)
        values = [lam for _, lam in report.sigma2_scan]
        assert len(values) == 9
        assert max(values) - min(values) <= 1e-9

    def test_report_dict_is_json_ready(self):
        import json

        report = numeric_stationary_search(A, B1, 1.0, sigma2_scan=(0.0, 0.5))
        text = json.dumps(report.as_dict())
        assert "lambda_star" in text

    @pytest.mark.parametrize("m, sigma2_0", [(0.1, 1.5), (0.12, 0.2), (0.15, 0.5)])
    def test_duration_within_tol_at_small_mass(self, m, sigma2_0):
        # d2 lambda/dC2 is small at these masses (C* from 6 to 9.4): stopping
        # on the gradient test alone left C 2e-8 to 1.2e-6 off C*
        report = numeric_stationary_search(A, B3, m, sigma2_0=sigma2_0, tol=1e-8)
        assert abs(report.C_star - optimal_C(A, B3, m)) <= 1e-8

    def test_newton_trace(self):
        import json

        report = numeric_stationary_search(A, B3, 2.0, sigma2_0=-0.4, tol=1e-8)
        trace = report.newton_trace
        assert len(trace) == report.iterations == 8
        # every step but the last starts above tol; the last follows the gradient test
        norms = [step.gradient_norm for step in trace]
        assert min(norms[:-1]) > 1e-8 >= norms[-1]
        assert all(step.step_norm > 0.0 for step in trace)
        # the first full step from the guess C = 1 leaves the admissible region
        assert [step.backtracks for step in trace] == [1] + [0] * 7
        rows = json.loads(json.dumps(report.as_dict()))["newton_trace"]
        assert rows[0] == {
            "gradient_norm": norms[0], "step_norm": trace[0].step_norm, "backtracks": 1,
        }

    def test_iteration_budget_enforced(self):
        with pytest.raises(NoConvergence):
            numeric_stationary_search(A, B1, 1.0, guess_C=5.0, max_iter=1)

    def test_bad_inputs(self):
        with pytest.raises(NullSeparation):
            numeric_stationary_search(A, np.array([1.0, 1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(SpacelikeSeparation):
            numeric_stationary_search(A, np.array([0.2, 1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ZeroMass):
            numeric_stationary_search(A, B1, 0.0)
        with pytest.raises(ZeroDuration):
            numeric_stationary_search(A, B1, 1.0, guess_C=-2.0)
        with pytest.raises(ValueError):
            numeric_stationary_search(A, B1, 1.0, branch=3)

    def test_guess_within_the_floor_of_the_pole_is_moved(self):
        # D(1.5) = 5e-13 is positive but under DENOMINATOR_FLOOR: the heuristic
        # guess must step back toward c = 0 rather than start on the pole
        s2 = -(1.0 - 5e-13) / 3.0
        report = numeric_stationary_search(A, B2, 1.0, sigma2_0=s2)
        assert report.C_star == pytest.approx(optimal_C(A, B2, 1.0), abs=1e-8)

    def test_guess_past_the_pole_is_refused(self):
        with pytest.raises(FlowSingularity) as info:
            numeric_stationary_search(A, B1, 1.0, sigma2_0=-0.5, guess_C=1.5)
        assert info.value.c_star == 1.0
        with pytest.raises(FlowSingularity) as info:
            numeric_stationary_search(A, B1, 1.0, sigma2_0=0.5, guess_C=1.5, branch=-1)
        assert info.value.c_star == -1.0
