import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveline import phase_functional
from waveline.errors import BadGrid, DegenerateQ, FlowSingularity
from waveline.phase_flow import FlowInitialData, sample_closed_form
from waveline.phase_functional import (
    consistency_gap,
    log_duration,
    phase_difference,
    phase_eval_c,
    phase_eval_q,
    phase_geometry,
    predicted_phase_offset,
    resample_on_log_clock,
    shift_point,
)
from waveline.stationarity import optimal_sigma1
from waveline.worldline import perturb_interior, straight_line

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])
C_RUN = 0.9407443861113389  # sqrt(3.54)/2


class TestLogDuration:
    def test_doubling(self):
        assert log_duration(0.5, 1.0) == pytest.approx(np.log(2.0))

    def test_flat_curvature_gives_zero(self):
        assert log_duration(0.0, 7.0) == 0.0

    def test_negative_curvature_is_negative(self):
        assert log_duration(-0.25, 1.0) == pytest.approx(np.log(0.5))

    def test_singular(self):
        with pytest.raises(FlowSingularity):
            log_duration(-0.5, 1.0)


class TestShiftPoint:
    def test_degenerate_q(self):
        with pytest.raises(DegenerateQ):
            shift_point(A, B, 0.0)

    def test_from_origin(self):
        # a = 0 leaves x_tilde = -b / (e^Q - 1)
        np.testing.assert_allclose(shift_point(A, B, np.log(2.0)), -B, atol=1e-14)

    def test_centered_pair_has_zero_shift(self):
        a = np.array([1.0, 0.2, 0.0, -0.1])
        q = np.log(2.0)
        np.testing.assert_allclose(shift_point(a, 2.0 * a, q), np.zeros(4), atol=1e-14)

    @given(st.floats(-0.35, 1.5), st.floats(0.3, 1.2))
    @settings(max_examples=80)
    def test_equals_minus_sigma1_over_sigma2_at_stationarity(self, s2, C):
        if abs(s2) < 1e-3 or 1.0 + 2.0 * s2 * C < 0.3:
            return
        geo = phase_geometry(s2, A, B, C)
        s1 = optimal_sigma1(s2, A, B, C)
        np.testing.assert_allclose(geo.x_tilde, -s1 / s2, atol=1e-12)


class TestPhaseEvaluation:
    def test_zero_coefficients_give_zero_phase(self):
        w = straight_line(A, B, 1.0, 200)
        flow = sample_closed_form(FlowInitialData(np.zeros(4), 0.0), w.grid)
        assert phase_eval_c(w, flow) == 0.0

    def test_flat_curvature_phase_is_linear_functional(self):
        # integrand sigma1 . x over the straight line: sigma1 . (a+b)/2 * C
        w = straight_line(A, B, 0.8, 4000)
        s1 = np.array([1.0, 0.2, -0.1, 0.4])
        flow = sample_closed_form(FlowInitialData(s1, 0.0), w.grid)
        expected = 0.8 * (s1[0] * 1.0 - s1[1] * 0.3 - s1[2] * 0.15 - s1[3] * 0.05)
        assert phase_eval_c(w, flow) == pytest.approx(expected, abs=1e-12)

    def test_q_phase_vanishes_on_the_center(self):
        q = np.linspace(0.0, 0.7, 50)
        x_tilde = np.array([0.3, 0.1, 0.0, 0.0])
        pts = np.broadcast_to(x_tilde, (50, 4))
        assert phase_eval_q(pts, q, x_tilde) == 0.0

    def test_q_phase_constant_offset(self):
        q = np.linspace(0.0, 0.8, 51)
        pts = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (51, 4))
        # (1/4) * 1 * 0.8
        assert phase_eval_q(pts, q, np.zeros(4)) == pytest.approx(0.2, abs=1e-14)

    def test_q_phase_signed_for_negative_duration(self):
        q = np.linspace(0.0, -0.5, 40)
        pts = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (40, 4))
        assert phase_eval_q(pts, q, np.zeros(4)) == pytest.approx(-0.125, abs=1e-14)


class TestResampling:
    def test_endpoints_and_monotonicity(self):
        w = perturb_interior(straight_line(A, B, C_RUN, 500), 0.3, seed=2)
        q, pts = resample_on_log_clock(w, 0.5)
        assert q[0] == 0.0
        assert q[-1] == pytest.approx(log_duration(0.5, C_RUN), abs=1e-14)
        np.testing.assert_allclose(pts[0], A, atol=1e-12)
        np.testing.assert_allclose(pts[-1], B, atol=1e-10)

    def test_respects_requested_resolution(self):
        # the q grid has as many nodes as the lattice
        w = straight_line(A, B, 1.0, 37)
        q, pts = resample_on_log_clock(w, 0.4)
        assert q.shape == (38,)
        assert pts.shape == (38, 4)
        _, cols = resample_on_log_clock(w, 0.4, values=np.ones((38, 3)))
        assert cols.shape == (38, 3)

    def test_degenerate_curvature(self):
        w = straight_line(A, B, 1.0, 50)
        with pytest.raises(DegenerateQ):
            resample_on_log_clock(w, 0.0)

    @pytest.mark.parametrize("shape", [(50, 4), (52, 4), (51,)])
    def test_values_must_match_the_lattice(self, shape):
        w = straight_line(A, B, 1.0, 50)
        with pytest.raises(BadGrid):
            resample_on_log_clock(w, 0.5, values=np.ones(shape))


def spline_bound(n):
    """Relative gap allowed between the log-clock spline and scipy's.

    The float lattice nodes i*h are uniform only to eps*N of a spacing:
    scipy splines the rounded nodes, waveline the exactly uniform lattice.
    On O(1) noise one spacing moves the spline by O(1), so the two may
    differ by a few eps*N; below N = 100 the solves' own roundoff sets it.
    """
    return 4.0 * np.finfo(float).eps * max(n, 100)


def spline_inputs(n):
    """A perturbed world line (4 columns) and O(1) noise in 1, 4 and 6 columns."""
    w = perturb_interior(straight_line(A, B, C_RUN, n), 0.3, seed=3)
    rng = np.random.default_rng(n)
    return w, [w.points] + [rng.standard_normal((n + 1, k)) for k in (1, 4, 6)]


def worst_spline_gap(w, sigma2_0, values):
    """Largest column-wise |waveline - CubicSpline| over max|column|."""
    from scipy.interpolate import CubicSpline

    q, got = resample_on_log_clock(w, sigma2_0, values=values)
    c = np.clip(np.expm1(q) / (2.0 * sigma2_0), 0.0, w.C)
    want = CubicSpline(w.grid, values, axis=0)(c)
    return max(
        np.abs(got[:, j] - want[:, j]).max() / np.abs(values[:, j]).max()
        for j in range(values.shape[1])
    )


class TestLogClockSpline:
    @pytest.mark.parametrize("sigma2_0", [0.5, -0.3])
    @pytest.mark.parametrize("n", [2, 3, 8, 100, 10000])
    def test_matches_scipy_not_a_knot_per_column(self, n, sigma2_0):
        w, inputs = spline_inputs(n)
        for values in inputs:
            assert worst_spline_gap(w, sigma2_0, values) <= spline_bound(n)

    def test_natural_ends_miss_the_bound(self, monkeypatch):
        # a plausible slip: M[0] = M[N] = 0 in place of the not-a-knot ends
        def natural(y, h):
            m = np.zeros_like(y)
            m[:, 1:-1] = phase_functional._solve_141(
                (6.0 / (h * h)) * (y[:, 2:] - 2.0 * y[:, 1:-1] + y[:, :-2])
            )
            return m

        monkeypatch.setattr(phase_functional, "_not_a_knot_curvatures", natural)
        w, inputs = spline_inputs(100)
        for values in inputs[1:]:
            assert worst_spline_gap(w, 0.5, values) > 1e6 * spline_bound(100)


class TestConsistency:
    def test_gap_small_on_perturbed_line(self):
        base = straight_line(A, B, C_RUN, 4000)
        w = perturb_interior(base, 0.3 * np.sqrt(3.54), seed=8)
        assert consistency_gap(w, 0.5) <= 1e-6

    def test_gap_small_for_decaying_curvature(self):
        base = straight_line(A, B, C_RUN, 4000)
        w = perturb_interior(base, 0.3, seed=8)
        assert consistency_gap(w, -0.3) <= 1e-6

    def test_difference_is_trajectory_independent(self):
        base = straight_line(A, B, C_RUN, 2000)
        diffs = [
            phase_difference(perturb_interior(base, 0.4, seed=k), 0.5)
            for k in range(1, 6)
        ]
        assert np.std(diffs) <= 1e-7 * (1.0 + abs(np.mean(diffs)))

    def test_predicted_offset_formula(self):
        geo = phase_geometry(0.5, A, B, C_RUN)
        want = 0.25 * geo.Q * (
            geo.x_tilde[0] ** 2 - np.sum(geo.x_tilde[1:] ** 2)
        )
        assert predicted_phase_offset(0.5, A, B, C_RUN) == pytest.approx(want, abs=1e-15)

    def test_measured_difference_approaches_predicted_offset(self):
        w = straight_line(A, B, C_RUN, 8000)
        measured = phase_difference(w, 0.5)
        predicted = predicted_phase_offset(0.5, A, B, C_RUN)
        assert measured == pytest.approx(predicted, abs=1e-7)
