import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveline.errors import FlowSingularity, GridMismatch, ZeroDuration
from waveline.eigenvalue import (
    RealCoefficients,
    WaveParameters,
    constant_real_part,
    lambda_boundary_form,
    lambda_closed_form,
    lambda_lattice,
    predicted_action_eigenvalue,
    reality_residual,
)
from waveline.phase_flow import FlowInitialData, sample_closed_form
from waveline.worldline import perturb_interior, straight_line

A = np.zeros(4)
B1 = np.array([1.0, 0.0, 0.0, 0.0])


def make_flow(s1, s2, C, N):
    init = FlowInitialData(np.asarray(s1, dtype=float), s2)
    return init, sample_closed_form(init, np.linspace(0.0, C, N + 1))


class TestClosedForm:
    def test_free_functional_is_mass_term(self):
        init = FlowInitialData(np.zeros(4), 0.0)
        assert lambda_closed_form(init, A, B1, 2.0, 0.7) == 4.0 * 0.7

    def test_flat_curvature_example(self):
        # sigma1.(b-a) - sigma1.sigma1 C + m^2 C = 1 - 0.5 + 0.5
        init = FlowInitialData(B1.copy(), 0.0)
        assert lambda_closed_form(init, A, B1, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_duration_rejected(self):
        init = FlowInitialData(np.zeros(4), 0.0)
        with pytest.raises(ZeroDuration):
            lambda_closed_form(init, A, B1, 1.0, 0.0)

    def test_pole_message_prints_a_plain_c(self):
        init = FlowInitialData(np.zeros(4), -0.5)
        with pytest.raises(FlowSingularity) as info:
            lambda_closed_form(init, A, B1, 1.0, np.float64(1.0))
        assert str(info.value) == "flow is singular at c=1.0 (D=0.0)"
        assert info.value.c_star == 1.0

    @given(
        st.floats(-0.3, 1.5),
        st.floats(0.3, 1.2),
        st.floats(0.2, 2.0),
    )
    @settings(max_examples=60)
    def test_agrees_with_boundary_form(self, s2, C, m):
        if 1.0 + 2.0 * s2 * C < 0.3:
            return
        s1 = np.array([0.6, -0.2, 0.3, 0.1])
        init, flow = make_flow(s1, s2, C, 40000)
        closed = lambda_closed_form(init, A, B1, m, C)
        boundary = lambda_boundary_form(flow, A, B1, m).total
        # only the quadrature of sigma1.sigma1 separates the two forms
        assert closed == pytest.approx(boundary, abs=5e-9)


class TestBoundaryForm:
    def test_breakdown_fields(self):
        init, flow = make_flow(B1, 0.0, 0.5, 100)
        br = lambda_boundary_form(flow, A, B1, 1.0)
        assert br.boundary == pytest.approx(1.0)  # sigma1 . b
        assert br.quadrature == pytest.approx(-0.5)  # -|sigma1|^2 C
        assert br.mass == pytest.approx(0.5)
        assert br.total == br.boundary + br.quadrature + br.mass

    def test_dict_roundtrip(self):
        init, flow = make_flow(B1, 0.3, 1.0, 50)
        d = lambda_boundary_form(flow, A, B1, 1.0).as_dict()
        assert set(d) == {"boundary", "quadrature", "mass", "total"}
        assert d["total"] == pytest.approx(d["boundary"] + d["quadrature"] + d["mass"])


class TestLattice:
    def test_straight_line_flat_curvature(self):
        init, flow = make_flow(B1, 0.0, 0.5, 10000)
        w = straight_line(A, B1, 0.5, 10000)
        assert lambda_lattice(w, flow, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_worldline_independence_at_fixed_n(self):
        init, flow = make_flow(B1, 0.5, 0.5, 10000)
        w0 = straight_line(A, B1, 0.5, 10000)
        lam0 = lambda_lattice(w0, flow, 1.0)
        for seed in (1, 2, 3):
            w = perturb_interior(w0, 0.3, seed=seed)
            assert lambda_lattice(w, flow, 1.0) == pytest.approx(lam0, abs=1e-6)

    def test_three_forms_on_one_parameter_set(self):
        s1 = np.array([0.4, 0.1, -0.3, 0.2])
        a = np.array([0.1, -0.2, 0.05, 0.3])
        b = a + np.array([1.7, 0.3, -0.2, 0.1])
        init, flow = make_flow(s1, 0.8, 0.9, 10000)
        w = straight_line(a, b, 0.9, 10000)
        closed = lambda_closed_form(init, a, b, 1.1, 0.9)
        boundary = lambda_boundary_form(flow, a, b, 1.1).total
        lattice = lambda_lattice(w, flow, 1.1)
        assert boundary == pytest.approx(closed, abs=1e-7)
        assert lattice == pytest.approx(closed, abs=1e-6)

    def test_grid_mismatch_rejected(self):
        init, flow = make_flow(B1, 0.0, 0.5, 100)
        w = straight_line(A, B1, 0.5, 101)
        with pytest.raises(GridMismatch):
            lambda_lattice(w, flow, 1.0)

    def test_real_part_grid_mismatch_rejected(self):
        init, flow = make_flow(B1, 0.0, 0.5, 100)
        w = straight_line(A, B1, 0.5, 100)
        real = constant_real_part(np.zeros(4), 0.0, np.linspace(0.0, 0.5, 102))
        with pytest.raises(GridMismatch):
            lambda_lattice(w, flow, 1.0, real)

    def test_real_part_adds_the_modulus_terms(self):
        # constant r1, r2 on a straight line: the added integrand is
        # hb^2 (|r1 + r2 x|^2 + 4 r2 / dc), integrated here independently
        init, flow = make_flow(B1, 0.4, 0.8, 200)
        w = straight_line(A, B1, 0.8, 200)
        r1, r2, hb = np.array([0.05, 0.02, -0.01, 0.03]), 0.1, 0.7
        real = constant_real_part(r1, r2, w.grid)
        rp = r1 + r2 * w.points
        extra = hb * hb * (rp[:, 0] ** 2 - (rp[:, 1:] ** 2).sum(axis=1) + 4.0 * r2 / w.dc)
        expected = lambda_lattice(w, flow, 1.0) + np.trapezoid(extra, w.grid)
        assert lambda_lattice(w, flow, 1.0, real, hb) == pytest.approx(expected, rel=1e-12)

    def test_full_reduces_to_phase_only_when_real_part_vanishes(self):
        init, flow = make_flow(B1, 0.4, 0.8, 500)
        w = perturb_interior(straight_line(A, B1, 0.8, 500), 0.2, seed=4)
        real = constant_real_part(np.zeros(4), 0.0, w.grid)
        assert lambda_lattice(w, flow, 1.0, real, 1.0) == lambda_lattice(w, flow, 1.0)


class TestRealityResidual:
    def test_zero_for_flat_phase_and_no_modulus(self):
        init, flow = make_flow(B1, 0.0, 1.0, 100)
        w = straight_line(A, B1, 1.0, 100)
        real = constant_real_part(np.zeros(4), 0.0, w.grid)
        assert reality_residual(flow, real, w) == 0.0

    def test_delta_term_dominates_for_zero_modulus(self):
        # residual = -4/dc * integral sigma2 dc = -(4N/C) * ln(D)/2
        init, flow = make_flow(np.zeros(4), 0.5, 1.0, 100)
        w = straight_line(A, B1, 1.0, 100)
        real = constant_real_part(np.zeros(4), 0.0, w.grid)
        expected = -(4.0 * 100 / 1.0) * 0.5 * np.log(2.0)
        assert reality_residual(flow, real, w) == pytest.approx(expected, abs=1e-2)

    def test_enters_predicted_imaginary_part(self):
        init = FlowInitialData(np.array([0.3, 0.0, 0.0, 0.0]), 0.2)
        params = WaveParameters(init, m=1.0, hbar_tilde=0.7,
                                r1_0=np.array([0.05, 0.0, 0.0, 0.0]), r2_0=0.1)
        w = straight_line(A, B1, 1.0, 32)
        flow = sample_closed_form(init, w.grid)
        real = constant_real_part(params.r1_0, params.r2_0, w.grid)
        z = predicted_action_eigenvalue(params, w)
        assert z.imag == pytest.approx(-0.7 * reality_residual(flow, real, w), rel=1e-12)
        assert z.real == pytest.approx(
            lambda_lattice(w, flow, 1.0, real, 0.7), rel=1e-12
        )


class TestContainers:
    def test_real_coefficients_validate(self):
        g = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            RealCoefficients(grid=g, r1=np.zeros((4, 4)), r2=np.zeros(5))

    def test_wave_parameters_validate(self):
        init = FlowInitialData(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            WaveParameters(init, m=-1.0)
        with pytest.raises(ValueError):
            WaveParameters(init, m=1.0, hbar_tilde=0.0)
