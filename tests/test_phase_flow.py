import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveline.errors import BadGrid, FlowSingularity, GridMismatch
from waveline.phase_flow import (
    DENOMINATOR_FLOOR,
    FlowCoefficients,
    FlowInitialData,
    checked_denominator,
    closed_form_errors,
    denominator,
    flow_to_rows,
    frozen_coefficients,
    integrate_flow,
    require_shared_grid,
    sample_closed_form,
)
from waveline.worldline import lattice

S1 = np.array([1.0, -0.5, 0.25, 0.75])

curvatures = st.floats(-0.45, 2.0, allow_nan=False)


def flow_rhs(sigma1, sigma2):
    """Right-hand side of the coefficient system at one instant: the oracle for RK4."""
    sigma1 = np.asarray(sigma1, dtype=float)
    return -2.0 * sigma2 * sigma1, -2.0 * sigma2 * sigma2


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

    @pytest.mark.parametrize("s2_0", [1e308, -1e308, 9e307, -9e307])
    def test_curvature_past_half_the_float_range(self, s2_0):
        # 2 sigma2_0 overflows here: D(0) stays exactly 1, a D past the float
        # range is an infinity of its sign, and nothing warns
        d = denominator(s2_0, np.array([0.0, 1e-3, 1.0]))
        assert d[0] == 1.0 and d[1] == 1.0 + 2.0 * (s2_0 * 1e-3)
        assert d[2] == np.copysign(np.inf, s2_0)
        if s2_0 < 0:
            with pytest.raises(FlowSingularity) as info:
                checked_denominator(s2_0, lattice(1.0, 1000))
            assert info.value.c_star == -0.5 / s2_0 > 0.0
            assert str(info.value).startswith("flow is singular at c=0.001 ")

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

    def test_closed_form_errors_are_each_rows_own_bit_for_bit(self):
        # rows with their own sigma1_0: one D call serves them all, with the
        # bits of each row's sample_closed_form and its largest |exact|
        inits = [FlowInitialData(S1, -0.4), FlowInitialData(-3.0 * S1, 0.5),
                 FlowInitialData(S1 / 7.0, 0.0), FlowInitialData(S1, 2.0)]
        nums = integrate_flow(inits, 1.0, 200)
        errs, peaks = closed_form_errors(inits, nums)
        for init, num, err, peak in zip(inits, nums, errs, peaks):
            exact = sample_closed_form(init, num.grid)
            assert err == (
                float(np.abs(num.sigma1 - exact.sigma1).max()),
                float(np.abs(num.sigma2 - exact.sigma2).max()),
            )
            assert peak == max(np.abs(exact.sigma1).max(), np.abs(exact.sigma2).max())
        with pytest.raises(GridMismatch):
            closed_form_errors(inits[:2], [nums[0], *integrate_flow(inits[1:2], 1.0, 100)])

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
    """One initial datum stepped alone as a (5,) state by the textbook RK4 step."""
    grid = np.linspace(0.0, float(C), N + 1)
    h = grid[1] - grid[0]

    def rhs(y):
        ds1, ds2 = flow_rhs(y[:4], y[4])
        return np.concatenate([ds1, [ds2]])

    def step(y):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.concatenate([init.sigma1_0, [init.sigma2_0]])
    s1 = np.empty((N + 1, 4))
    s2 = np.empty(N + 1)
    s1[0], s2[0] = y[:4], y[4]
    for i in range(N):
        y = step(y)
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

    @pytest.mark.parametrize("n_max", [1000, 600])
    def test_mixed_step_counts_match_lone_calls_bit_for_bit(self, n_max):
        # four counts in no order, an overflowing column among them; with
        # n_max = 600 no datum takes the full N steps
        cases = [(-0.4, 250), (0.0, 500), (2.0, 2), (1e150, 250), (0.5, 500),
                 (-0.49, 500), (3.0, 250), (1.0, 500 if n_max < 1000 else 1000)]
        inits = [FlowInitialData(S1 * (k + 1), s2) for k, (s2, _) in enumerate(cases)]
        steps = [n for _, n in cases]
        flows = integrate_flow(inits, 1.0, 1000, steps)
        assert len(flows) == len(inits)
        for init, n, flow in zip(inits, steps, flows):
            (alone,) = integrate_flow([init], 1.0, n)
            assert np.array_equal(flow.grid, alone.grid)
            assert np.array_equal(flow.sigma1, alone.sigma1, equal_nan=True), init.sigma2_0
            assert np.array_equal(flow.sigma2, alone.sigma2, equal_nan=True), init.sigma2_0
            assert flow.sigma1.flags.f_contiguous and flow.sigma2.flags.c_contiguous
        assert not np.isfinite(flows[3].sigma2).all()

    def test_mixed_counts_refuse_a_pole_on_its_own_lattice(self):
        # c* = 1/1.4 = 0.714: the first node past it is 0.75 on N = 4 and 0.8 on N = 10
        pole = FlowInitialData(S1, -0.7)
        with pytest.raises(FlowSingularity) as alone:
            integrate_flow([pole], 1.0, 4)
        with pytest.raises(FlowSingularity) as mixed:
            integrate_flow([FlowInitialData(S1, 0.5), pole], 1.0, 10, [10, 4])
        assert str(mixed.value) == str(alone.value)
        assert str(mixed.value).startswith("flow is singular at c=0.75 ")

    @pytest.mark.parametrize(
        "n_inits, steps",
        [(1, [1]), (1, [0]), (1, [101]), (2, [100, 1]), (2, [2, 101]), (1, [100, 100])],
    )
    def test_step_counts_outside_two_to_n_raise(self, n_inits, steps):
        # the last case gives two counts for one datum
        with pytest.raises(BadGrid):
            integrate_flow([FlowInitialData(S1, 0.5)] * n_inits, 1.0, 100, steps)

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


# Curvatures of either sign from 1e-320 up, pole-free on [0, 1]: a
# negative one stays above -1/2, a positive one reaches 1e308, past where
# its square, then its every stage, leaves the float range.
magnitudes = st.floats(1e-320, 1e308)
pole_free = st.one_of(magnitudes, st.floats(1e-320, 0.4999).map(lambda v: -v))


@st.composite
def mixed_batches(draw):
    """(inits, N, steps): up to six data on mixed step counts in [2, N]."""
    n = draw(st.integers(2, 40))
    rows = draw(st.lists(st.tuples(pole_free, st.integers(2, n)), min_size=1, max_size=6))
    inits = [FlowInitialData(S1 * (k + 1), s2) for k, (s2, _) in enumerate(rows)]
    return inits, n, [steps for _, steps in rows]


class TestFoldedWeights:
    """The step weights carry the right-hand side's -2 (``rk4_weights``):
    every row is still the textbook RK4 of -2 sigma2 y, bit for bit, while
    the textbook step stays in the float range."""

    @given(mixed_batches())
    @example(([FlowInitialData(S1, s2) for s2 in (9.6e153, 1.2e154, 1.7e308, 1e-160)], 8,
              [8, 4, 8, 2]))
    @example(([FlowInitialData(S1, s2) for s2 in (-1e-160, 5e-324, -0.49999999, 1e200)], 8,
              [3, 8, 8, 5]))
    # the textbook sum k1 + 2 k2 + 2 k3 + k4 overflows on the first step;
    # the folded one is half of it and still finite
    @example(([FlowInitialData(S1, 1.4440517193613641e20)], 12, [12]))
    @settings(max_examples=80, deadline=None)
    def test_every_row_is_the_textbook_step(self, batch):
        inits, n, steps = batch
        flows = integrate_flow(inits, 1.0, n, steps)
        for init, count, flow in zip(inits, steps, flows):
            with np.errstate(over="ignore", invalid="ignore"):
                grid, s1, s2 = scalar_rk4(init, 1.0, count)
            assert np.array_equal(flow.grid, grid)
            got, want = np.c_[flow.sigma1, flow.sigma2], np.c_[s1, s2]
            kept = np.isfinite(want).all(axis=1)
            # bit for bit on every node the textbook step keeps in range ...
            assert np.array_equal(got[kept], want[kept]), init.sigma2_0
            # ... and a row it takes out of the range leaves the range too,
            # so the flow suite's NumericalOverflow verdict is the same; the
            # folded step has twice the headroom, so a node of that row may
            # stay finite where the textbook one overflowed
            assert np.isfinite(got).all() == kept.all(), init.sigma2_0

    @pytest.mark.parametrize(
        "s2s, steps, message",
        [
            # two singular rows after a regular one: -0.7 comes first in
            # input order, though -0.9 steps longer and leads the columns
            ((0.5, -0.7, -0.9), (10, 4, 10),
             "flow is singular at c=0.75 (D=-0.04999999999999982, "
             "pole at c*=0.7142857142857143)"),
            # the two swapped: -0.9 raises, named on its own 4-step lattice
            ((0.5, -0.9, -0.7), (10, 4, 10),
             "flow is singular at c=0.75 (D=-0.3500000000000001, "
             "pole at c*=0.5555555555555556)"),
        ],
    )
    def test_first_singular_row_in_input_order_raises(self, s2s, steps, message):
        inits = [FlowInitialData(S1, s2) for s2 in s2s]
        with pytest.raises(FlowSingularity) as info:
            integrate_flow(inits, 1.0, 10, steps)
        assert str(info.value) == message
        first = next(s2 for s2 in s2s if s2 < -0.5)
        assert info.value.c_star == -0.5 / first


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
