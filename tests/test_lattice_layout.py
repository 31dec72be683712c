"""Lattice arrays are column-major, and the layout changes no result.

Every constructor of an (N+1, 4) lattice array stores it column-major, so
each component is one contiguous column.  The arithmetic on each element
is the same as on row-major storage, so the results below are held to
row-major formulas kept here as the oracle, bit for bit (``array_equal``),
not to a tolerance.
"""

import numpy as np
import pytest

from waveline.eigenvalue import (
    WaveParameters,
    lambda_boundary_form,
    lambda_lattice,
    lattice_expansion,
    lattice_integrand,
)
from waveline.minkowski import dot
from waveline.phase_flow import (
    FlowCoefficients,
    FlowInitialData,
    frozen_coefficients,
    integrate_flow,
    sample_closed_form,
)
from waveline.phase_functional import phase_difference, phase_geometry, resample_on_log_clock
from waveline.stationarity import optimal_C, optimal_sigma1
from waveline.worldline import (
    Worldline,
    interior_modes,
    lattice,
    perturb_interior,
    straight_line,
    velocities,
)

A = np.array([0.1, -0.2, 0.05, 0.3])
B = np.array([2.1, 0.4, 0.35, 0.4])
M = 1.3
C_RUN = optimal_C(A, B, M)
INIT = FlowInitialData(optimal_sigma1(0.5, A, B, C_RUN), 0.5)
N = 400


def row_major(arr):
    out = np.ascontiguousarray(arr)
    assert out.flags.c_contiguous
    return out


def dot_row_major(u, v):
    """The contraction as one sum over the space axis, the row-major formula."""
    u = np.asarray(u)
    v = np.asarray(v)
    dtype = np.result_type(u, v, float)
    u = u.astype(dtype, copy=False)
    v = v.astype(dtype, copy=False)
    out = u[..., 0] * v[..., 0] - np.sum(u[..., 1:] * v[..., 1:], axis=-1)
    return out.item() if out.ndim == 0 else out


def integrand_row_major(w, flow, params=None):
    x = row_major(w.points)
    sp = row_major(flow.sigma1) + flow.sigma2[:, None] * x
    xdot = np.gradient(x, w.dc, axis=0, edge_order=2)
    lam = dot_row_major(xdot, sp) - dot_row_major(sp, sp)
    if params is None:
        return lam, None
    # the constant modulus coefficients sampled on every node
    r1 = row_major(np.broadcast_to(params.r1_0, x.shape))
    r2 = np.full(w.N + 1, params.r2_0)
    rp = r1 + r2[:, None] * x
    hb2 = params.hbar_tilde * params.hbar_tilde
    lam = lam + hb2 * (dot_row_major(rp, rp) + 4.0 * r2 / w.dc)
    return lam, dot_row_major(xdot, rp) - 2.0 * dot_row_major(sp, rp) - 4.0 * flow.sigma2 / w.dc


def boundary_row_major(flow, a, b, m):
    s1 = row_major(flow.sigma1)
    bracket = (
        dot_row_major(s1[-1], b)
        + 0.5 * flow.sigma2[-1] * dot_row_major(b, b)
        - dot_row_major(s1[0], a)
        - 0.5 * flow.sigma2[0] * dot_row_major(a, a)
    )
    quad = -float(np.trapezoid(dot_row_major(s1, s1), flow.grid))
    return bracket + quad + m * m * flow.C


def expansion_row_major(w, flow, modes):
    half = 0.5 * np.diff(w.grid)
    weights = np.zeros(w.grid.size)
    weights[:-1] += half
    weights[1:] += half
    x = row_major(w.points)
    s2 = flow.sigma2
    sp = row_major(flow.sigma1) + s2[:, None] * x
    dmodes = np.gradient(modes, w.dc, axis=0, edge_order=2)
    xdot = np.gradient(x, w.dc, axis=0, edge_order=2)
    ws2 = weights * s2
    g = dmodes.T @ (weights[:, None] * sp) + modes.T @ (ws2[:, None] * (xdot - 2.0 * sp))
    cross = dmodes.T @ (ws2[:, None] * modes)
    q = 0.5 * (cross + cross.T) - modes.T @ ((ws2 * s2)[:, None] * modes)
    return g, q


def phase_difference_row_major(w, sigma2_0):
    x = row_major(w.points)
    flow = sample_closed_form(
        FlowInitialData(optimal_sigma1(sigma2_0, w.a, w.b, w.C), sigma2_0), w.grid
    )
    geo = phase_geometry(sigma2_0, w.a, w.b, w.C)
    # the spline reads its samples from a row-major copy of the points
    q_grid, pts_q = resample_on_log_clock(w, sigma2_0, values=x)
    d = pts_q - geo.x_tilde
    phase_q = float(np.trapezoid(0.25 * dot_row_major(d, d), q_grid))
    integrand = dot_row_major(row_major(flow.sigma1), x) + 0.5 * flow.sigma2 * dot_row_major(x, x)
    return phase_q - float(np.trapezoid(integrand, w.grid))


def assert_lattice_layout(arr, n=N):
    assert arr.shape == (n + 1, 4)
    assert arr.flags.f_contiguous


@pytest.fixture
def base():
    return straight_line(A, B, C_RUN, N)


@pytest.fixture
def perturbed(base):
    return perturb_interior(base, 0.4, 17)


class TestConstructorsAreColumnMajor:
    def test_world_lines(self, base, perturbed):
        assert_lattice_layout(base.points)
        assert_lattice_layout(perturbed.points)
        from_rows = Worldline(base.C, base.N, row_major(perturbed.points))
        assert_lattice_layout(from_rows.points)
        assert np.array_equal(from_rows.points, perturbed.points)

    def test_flow_coefficients(self, base):
        assert_lattice_layout(sample_closed_form(INIT, base.grid).sigma1)
        assert_lattice_layout(frozen_coefficients(INIT, base.grid).sigma1)
        (alone,) = integrate_flow([INIT], C_RUN, N)
        assert_lattice_layout(alone.sigma1)
        for flow in integrate_flow([INIT, FlowInitialData(np.ones(4), -0.2)], C_RUN, N):
            assert_lattice_layout(flow.sigma1)
            assert flow.sigma2.flags.c_contiguous
        exact = sample_closed_form(INIT, base.grid)
        rows = FlowCoefficients(base.grid, row_major(exact.sigma1), exact.sigma2)
        assert_lattice_layout(rows.sigma1)


class TestDotMatchesTheRowMajorSum:
    @pytest.mark.parametrize("shape", [(4,), (N + 1, 4), (5, 6, 4)])
    @pytest.mark.parametrize("kind", ["float", "complex"])
    def test_every_layout_pair(self, shape, kind):
        rng = np.random.default_rng(3)

        def draw():
            if kind == "complex":
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return rng.standard_normal(shape)

        u, v = draw(), draw()
        want = dot_row_major(u, v)
        for left, right in [
            (u, v),
            (np.asfortranarray(u), v),
            (u, np.asfortranarray(v)),
            (np.asfortranarray(u), np.asfortranarray(v)),
        ]:
            got = dot(left, right)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_a_vector_against_a_stack(self):
        # the probe's modulus exponent contracts the constant r1_0 with every node
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(4), rng.standard_normal((N + 1, 4))
        for left, right in ((u, v), (v, u), (u, np.asfortranarray(v))):
            assert np.array_equal(dot(left, right), dot_row_major(left, right))


class TestLatticeResultsMatchTheRowMajorFormulas:
    @pytest.mark.parametrize("coefficients_for", [sample_closed_form, frozen_coefficients])
    def test_lambda_lattice(self, perturbed, coefficients_for):
        flow = coefficients_for(INIT, perturbed.grid)
        params = WaveParameters(
            INIT, M, hbar_tilde=0.7, r1_0=[0.05, 0.02, -0.01, 0.03], r2_0=0.1
        )
        lam, _ = integrand_row_major(perturbed, flow)
        want = float(np.trapezoid(lam, perturbed.grid)) + M * M * perturbed.C
        assert lambda_lattice(perturbed, flow, M) == want
        got = lattice_integrand(perturbed, flow, params)
        for got_part, want_part in zip(got, integrand_row_major(perturbed, flow, params)):
            assert np.array_equal(got_part, want_part)

    def test_lambda_boundary_form(self, base):
        for flow in (sample_closed_form(INIT, base.grid), *integrate_flow([INIT], C_RUN, N)):
            assert lambda_boundary_form(flow, A, B, M).total == boundary_row_major(flow, A, B, M)

    @pytest.mark.parametrize("coefficients_for", [sample_closed_form, frozen_coefficients])
    def test_lattice_expansion(self, perturbed, coefficients_for):
        flow = coefficients_for(INIT, perturbed.grid)
        modes = interior_modes(perturbed)
        got = lattice_expansion(perturbed, flow, modes)
        want = expansion_row_major(perturbed, flow, modes)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("sigma2_0", [0.5, -0.3])
    def test_phase_difference(self, base, perturbed, sigma2_0):
        for w in (base, perturbed):
            assert phase_difference(w, sigma2_0) == phase_difference_row_major(w, sigma2_0)


class TestKernelsMatchTheirNumpyFormulas:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(3, 4), (N + 1, 4), (N + 1, 6)])
    def test_velocities_are_np_gradient_in_the_input_layout(self, order, shape):
        w = straight_line(A, B, C_RUN, shape[0] - 1)
        f = np.array(np.random.default_rng(5).standard_normal(shape), order=order)
        got = velocities(w, f)
        assert np.array_equal(got, np.gradient(f, w.dc, axis=0, edge_order=2))
        # an F-ordered result for the C-ordered mode matrix would change the
        # BLAS summation order in lattice_expansion
        assert got.flags.c_contiguous == f.flags.c_contiguous
        assert got.flags.f_contiguous == f.flags.f_contiguous
        assert np.array_equal(velocities(w), np.gradient(w.points, w.dc, axis=0, edge_order=2))

    @pytest.mark.parametrize("n", [2, 7, N])
    def test_straight_line_is_the_broadcast_formula(self, n):
        t = np.linspace(0.0, 1.0, n + 1)
        want = (A[:, None] + t * (B - A)[:, None]).T
        want[0], want[-1] = A, B
        points = straight_line(A, B, C_RUN, n).points
        assert_lattice_layout(points, n)
        assert np.array_equal(points, want)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, N, 9_999, 10_000, 200_000])
    def test_lattice_is_np_linspace_byte_for_byte(self, n):
        # from the smallest subnormal, where C/N underflows to 0 and linspace
        # takes its zero-step branch, to 1e200
        durations = [5e-324, 1e-323, 3e-320, 2.2250738585072014e-308, 1e-300, 1e-5,
                     C_RUN, 1.0, 3.7, 1e5, 1e200, *np.logspace(-323, 200, 40).tolist()]
        for c in durations:
            assert lattice(c, n).tobytes() == np.linspace(0.0, c, n + 1).tobytes(), c

    @pytest.mark.parametrize("n", [2, 7, N, 10_000])
    def test_straight_line_is_the_per_column_fill(self, n):
        # the broadcast fill of lattice(1, n) against b - a, against the
        # column-by-column fill it replaced; tobytes tells -0.0 from 0.0
        rng = np.random.default_rng(n)
        for a, b in [(A, B)] + [tuple(rng.uniform(-3.0, 3.0, (2, 4))) for _ in range(6)]:
            t = np.linspace(0.0, 1.0, n + 1)
            want = np.empty((n + 1, 4), order="F")
            for k in range(4):
                np.multiply(t, (b - a)[k], out=want[:, k])
                want[:, k] += a[k]
            want[0], want[-1] = a, b
            got = straight_line(a, b, C_RUN, n).points
            assert got.tobytes(order="F") == want.tobytes(order="F")
