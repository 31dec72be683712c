import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveline.errors import BadGrid, FlowSingularity, GridMismatch
from waveline.phase_flow import (
    DENOMINATOR_FLOOR,
    FlowCoefficients,
    FlowInitialData,
    checked_denominator,
    denominator,
    flow_rhs,
    flow_to_rows,
    frozen_coefficients,
    integrate_flow,
    require_shared_grid,
    rk4_step,
    sample_closed_form,
)
from waveline.worldline import lattice

S1 = np.array([1.0, -0.5, 0.25, 0.75])

curvatures = st.floats(-0.45, 2.0, allow_nan=False)


class TestRhs:
    def test_example(self):
        ds1, ds2 = flow_rhs(np.array([1.0, 0, 0, 0]), 3.0)
        np.testing.assert_array_equal(ds1, [-6.0, 0, 0, 0])
        assert ds2 == -18.0

    def test_zero_curvature_freezes_everything(self):
        ds1, ds2 = flow_rhs(S1, 0.0)
        np.testing.assert_array_equal(ds1, np.zeros(4))
        assert ds2 == 0.0


class TestClosedForm:
    def test_halving_at_unit_time(self):
        init = FlowInitialData(S1, 0.5)
        flow = sample_closed_form(init, np.linspace(0.0, 1.0, 3))  # D = 1, 1.5, 2
        np.testing.assert_allclose(flow.sigma1[-1], S1 / 2.0)
        np.testing.assert_allclose(flow.sigma2, [0.5, 0.5 / 1.5, 0.25])

    def test_zero_curvature_is_constant(self):
        init = FlowInitialData(S1, 0.0)
        flow = sample_closed_form(init, np.linspace(0.0, 123.0, 5))
        np.testing.assert_array_equal(flow.sigma1, np.broadcast_to(S1, (5, 4)))
        np.testing.assert_array_equal(flow.sigma2, np.zeros(5))

    def test_pole_location(self):
        # a decaying curvature meets its pole at c* = -1/(2 sigma2_0); a
        # growing one has no pole on c >= 0
        with pytest.raises(FlowSingularity) as info:
            checked_denominator(-0.5, lattice(2.0, 4))
        assert info.value.c_star == pytest.approx(1.0)
        grid = lattice(100.0, 4)
        assert np.array_equal(checked_denominator(0.25, grid), denominator(0.25, grid))

    def test_checked_denominator_prints_a_plain_c(self):
        with pytest.raises(FlowSingularity) as info:
            checked_denominator(-0.5, np.float64(1.0))
        assert str(info.value) == "flow is singular at c=1.0 (D=0.0, pole at c*=1.0)"
        assert info.value.c_star == 1.0
        d = checked_denominator(-0.25, np.float64(1.0))
        assert type(d) is float and d == 0.5

    def test_checked_denominator_names_the_first_node_on_a_grid(self):
        # one array in, one array out; the first node at or under the floor raises
        grid = np.array([0.0, 0.5, 1.0, 1.5])
        d = checked_denominator(-0.25, grid)
        assert isinstance(d, np.ndarray) and np.array_equal(d, denominator(-0.25, grid))
        with pytest.raises(FlowSingularity) as info:
            checked_denominator(-0.4, grid)
        assert str(info.value) == (
            "flow is singular at c=1.5 (D=-0.20000000000000018, pole at c*=1.25)"
        )
        assert type(info.value.c_star) is float

    def test_raises_at_pole_with_location(self):
        init = FlowInitialData(S1, -0.5)
        with pytest.raises(FlowSingularity) as info:
            sample_closed_form(init, np.linspace(0.0, 1.0, 11))
        assert info.value.c_star == pytest.approx(1.0)
        with pytest.raises(FlowSingularity):
            sample_closed_form(init, np.linspace(0.0, 1.5, 11))

    def test_sampling_detects_pole_inside_grid(self):
        init = FlowInitialData(S1, -0.5)
        with pytest.raises(FlowSingularity):
            sample_closed_form(init, np.linspace(0, 2, 21))

    @given(curvatures, st.floats(0.05, 0.9))
    @settings(max_examples=80)
    def test_direction_preserved(self, s2_0, c):
        # sigma1 only rescales: D(c) * sigma1(c) recovers the initial vector
        init = FlowInitialData(S1, s2_0)
        grid = np.linspace(0.0, c, 5)
        d = denominator(s2_0, grid)
        if d.min() <= 0.05:
            return
        flow = sample_closed_form(init, grid)
        s1 = np.broadcast_to(S1, (5, 4))
        np.testing.assert_allclose(d[:, None] * flow.sigma1, s1, atol=1e-12)
        np.testing.assert_allclose(d * flow.sigma2, s2_0, atol=1e-12)

    @given(curvatures)
    @settings(max_examples=50)
    def test_closed_form_solves_the_ode(self, s2_0):
        # centered finite difference of the exact solution vs the rhs
        init = FlowInitialData(S1, s2_0)
        c, h = 0.4, 1e-6
        if denominator(s2_0, c + h) <= 0.05:
            return
        flow = sample_closed_form(init, np.array([c - h, c, c + h]))
        ds1, ds2 = flow_rhs(flow.sigma1[1], flow.sigma2[1])
        np.testing.assert_allclose((flow.sigma1[2] - flow.sigma1[0]) / (2 * h), ds1, atol=1e-6)
        assert (flow.sigma2[2] - flow.sigma2[0]) / (2 * h) == pytest.approx(ds2, abs=1e-6)


class TestIntegrator:
    @pytest.mark.parametrize("s2_0", [-0.4, 0.0, 0.5, 2.0])
    def test_matches_closed_form(self, s2_0):
        init = FlowInitialData(S1, s2_0)
        (num,) = integrate_flow([init], 1.0, 1000)
        exact = sample_closed_form(init, num.grid)
        err = max(
            np.abs(num.sigma1 - exact.sigma1).max(),
            np.abs(num.sigma2 - exact.sigma2).max(),
        )
        assert err <= 1e-10

    def test_zero_curvature_is_exact(self):
        init = FlowInitialData(S1, 0.0)
        (num,) = integrate_flow([init], 1.0, 100)
        assert np.abs(num.sigma1 - S1).max() == 0.0
        assert np.abs(num.sigma2).max() == 0.0

    def test_fourth_order_contraction(self):
        init = FlowInitialData(S1, 2.0)

        def err(n):
            (num,) = integrate_flow([init], 1.0, n)
            exact = sample_closed_form(init, num.grid)
            return np.abs(num.sigma2 - exact.sigma2).max()

        ratio = err(250) / err(500)
        assert 8.0 < ratio < 32.0

    def test_refuses_singular_interval(self):
        init = FlowInitialData(S1, -0.5)
        with pytest.raises(FlowSingularity) as info:
            integrate_flow([init], 2.0, 100)
        assert info.value.c_star == pytest.approx(1.0)

    def test_near_pole_guard(self):
        # pole sits just past C: the up-front check passes, the running
        # denominator guard must not trip for a regular-but-stiff run
        init = FlowInitialData(S1, -0.49)
        (num,) = integrate_flow([init], 1.0, 2000)
        exact = sample_closed_form(init, num.grid)
        assert np.abs(num.sigma2 - exact.sigma2).max() < 1e-4

    def test_bad_grid_arguments(self):
        init = FlowInitialData(S1, 0.5)
        with pytest.raises(BadGrid):
            integrate_flow([init], 1.0, 1)
        with pytest.raises(BadGrid):
            integrate_flow([init], -1.0, 100)



def scalar_rk4(init, C, N):
    """One initial datum stepped alone as a (5,) state: the pre-batching loop."""
    grid = np.linspace(0.0, float(C), N + 1)
    h = grid[1] - grid[0]

    def rhs(y):
        ds1, ds2 = flow_rhs(y[:4], y[4])
        return np.concatenate([ds1, [ds2]])

    y = np.concatenate([init.sigma1_0, [init.sigma2_0]])
    s1 = np.empty((N + 1, 4))
    s2 = np.empty(N + 1)
    s1[0], s2[0] = y[:4], y[4]
    for i in range(N):
        y = rk4_step(rhs, y, h)
        s1[i + 1], s2[i + 1] = y[:4], y[4]
    return grid, s1, s2


class TestBatchedIntegrator:
    SIGMA2 = (-0.49, -0.4, 0.0, 0.5, 2.0)

    @pytest.mark.parametrize("n", [4, 250, 1000])
    def test_rows_match_scalar_loop_bit_for_bit(self, n):
        inits = [FlowInitialData(S1 * (k + 1), s2) for k, s2 in enumerate(self.SIGMA2)]
        flows = integrate_flow(inits, 1.0, n)
        assert len(flows) == len(inits)
        for init, flow in zip(inits, flows):
            grid, s1, s2 = scalar_rk4(init, 1.0, n)
            assert np.array_equal(flow.grid, grid)
            assert np.array_equal(flow.sigma1, s1)
            assert np.array_equal(flow.sigma2, s2)

    def test_one_singular_row_refuses_the_batch(self):
        inits = [FlowInitialData(S1, 0.5), FlowInitialData(S1, -0.7)]
        with pytest.raises(FlowSingularity) as info:
            integrate_flow(inits, 1.0, 100)
        assert info.value.c_star == pytest.approx(1.0 / 1.4)

    def test_closed_form_refuses_the_grids_the_integrator_refuses(self):
        # c* inside the lattice, D within the floor at C, and a regular lattice
        for s2_0 in (-0.5, -0.49999999999998, -0.49):
            init = FlowInitialData(S1, s2_0)
            messages = []
            for run in (
                lambda: sample_closed_form(init, lattice(1.0, 100)),
                lambda: integrate_flow([init], 1.0, 100),
            ):
                try:
                    run()
                except FlowSingularity as exc:
                    messages.append(str(exc))
                else:
                    messages.append(None)
            assert messages[0] == messages[1], s2_0
            assert (messages[0] is None) == (s2_0 == -0.49), s2_0

    def test_pole_just_past_C_is_refused_with_a_plain_c(self):
        # c* = 1 + 4e-14 lies past C, but D(1) = 4e-14 is under the floor
        # at the last node
        init = FlowInitialData(S1, -0.49999999999998)
        c_star = -1.0 / (2.0 * init.sigma2_0)
        assert c_star > 1.0
        with pytest.raises(FlowSingularity) as info:
            integrate_flow([init], 1.0, 200)
        assert str(info.value) == (
            f"flow is singular at c=1.0 (D=3.9968028886505635e-14, pole at c*={c_star!r})"
        )
        assert info.value.c_star == c_star

    def test_closed_form_pole_message_prints_a_plain_c(self):
        # the closed form refuses the grids the integrator refuses, in its words
        for s2_0, C, message in (
            (-0.5, 2.0, "flow is singular at c=1.0 (D=0.0, pole at c*=1.0)"),
            (
                -0.49999999999998,
                1.0,
                "flow is singular at c=1.0 (D=3.9968028886505635e-14, "
                "pole at c*=1.00000000000004)",
            ),
        ):
            init = FlowInitialData(S1, s2_0)
            for refuse in (
                lambda: sample_closed_form(init, lattice(C, 4)),
                lambda: integrate_flow([init], C, 4),
            ):
                with pytest.raises(FlowSingularity) as info:
                    refuse()
                assert str(info.value) == message


class TestContainersAndControls:
    def test_frozen_coefficients_are_constant(self):
        init = FlowInitialData(S1, 0.7)
        froz = frozen_coefficients(init, np.linspace(0, 1, 11))
        assert np.ptp(froz.sigma2) == 0.0
        np.testing.assert_array_equal(froz.sigma1[4], S1)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            require_shared_grid(np.linspace(0, 1, 11), np.linspace(0, 1, 12))
        with pytest.raises(GridMismatch):
            require_shared_grid(np.linspace(0, 1, 11), np.linspace(0, 1.1, 11))

    def test_grid_match_tolerance_scales_down_with_the_lattice(self):
        # from a unit extent up the node tolerance stays 1e-12
        unit = np.linspace(0, 1, 11)
        require_shared_grid(unit, unit + 5e-13)
        with pytest.raises(GridMismatch):
            require_shared_grid(1e6 * unit, 1e6 * unit + 2e-12)
        # on a tiny lattice an absolute 1e-12 would match any two of them
        tiny = 1e-300 * unit
        require_shared_grid(tiny, tiny.copy())
        with pytest.raises(GridMismatch):
            require_shared_grid(tiny, 2.0 * tiny)

    def test_coefficients_validate_shapes(self):
        g = np.linspace(0, 1, 5)
        with pytest.raises(BadGrid):
            FlowCoefficients(grid=g, sigma1=np.zeros((4, 4)), sigma2=np.zeros(5))
        with pytest.raises(BadGrid):
            FlowCoefficients(grid=np.zeros(1), sigma1=np.zeros((1, 4)), sigma2=np.zeros(1))

    def test_rows_layout(self):
        init = FlowInitialData(S1, 0.5)
        flow = sample_closed_form(init, np.linspace(0, 1, 5))
        rows = flow_to_rows(flow)
        assert rows.shape == (5, 6)
        assert rows[0, 0] == 0.0 and rows[-1, 5] == pytest.approx(0.25)

    def test_initial_data_validates(self):
        with pytest.raises(ValueError):
            FlowInitialData(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            FlowInitialData(S1, np.nan)

    def test_denominator_floor_is_tiny(self):
        # documented guard level used by the singularity checks
        assert DENOMINATOR_FLOOR == 1e-12
