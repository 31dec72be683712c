import numpy as np
import pytest

from waveline.errors import BadGrid
from waveline.worldline import (
    Worldline,
    normalization_modes,
    perturb_interior,
    perturbation_coefficients,
    straight_line,
    velocities,
)

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])


class TestConstruction:
    def test_straight_line_pins_endpoints_exactly(self):
        w = straight_line(A, B, 1.0, 17)
        assert np.array_equal(w.points[0], A)
        assert np.array_equal(w.points[-1], B)

    def test_midpoint(self):
        w = straight_line(A, B, 1.0, 10)
        np.testing.assert_allclose(w.points[5], 0.5 * B, atol=1e-15)

    def test_grid_and_spacing(self):
        w = straight_line(A, B, 2.0, 4)
        np.testing.assert_allclose(w.grid, [0, 0.5, 1.0, 1.5, 2.0])
        assert w.dc == 0.5

    def test_grid_is_built_once_and_read_only(self):
        w = straight_line(A, B, 1.0, 10)
        assert w.grid is w.grid
        with pytest.raises(ValueError):
            w.grid[3] = 1.0

    def test_points_are_read_only(self):
        w = straight_line(A, B, 1.0, 10)
        with pytest.raises(ValueError):
            w.points[3] = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(C=0.0, N=10, points=np.zeros((11, 4))),
            dict(C=-1.0, N=10, points=np.zeros((11, 4))),
            dict(C=1.0, N=1, points=np.zeros((2, 4))),
            dict(C=1.0, N=10, points=np.zeros((10, 4))),
            dict(C=1.0, N=10, points=np.zeros((11, 3))),
            dict(C=np.nan, N=10, points=np.zeros((11, 4))),
        ],
    )
    def test_bad_grid(self, kwargs):
        with pytest.raises(BadGrid):
            Worldline(**kwargs)

    def test_non_finite_points(self):
        pts = np.zeros((11, 4))
        pts[5, 2] = np.inf
        with pytest.raises(BadGrid):
            Worldline(1.0, 10, pts)


class TestVelocities:
    def test_constant_on_straight_line(self):
        w = straight_line(A, B, 2.0, 50)
        v = velocities(w)
        np.testing.assert_allclose(v, np.broadcast_to(B / 2.0, v.shape), atol=1e-13)

    def test_exact_for_quadratic(self):
        # second-order stencils differentiate quadratics exactly,
        # at the edges included
        c = np.linspace(0.0, 1.0, 21)
        pts = np.outer(3.0 * c + 1.5 * c**2, [1.0, 0.0, 0.0, 0.0])
        pts[:, 1] = 2.0 - c**2
        w = Worldline(1.0, 20, pts)
        v = velocities(w)
        np.testing.assert_allclose(v[:, 0], 3.0 + 3.0 * c, atol=1e-12)
        np.testing.assert_allclose(v[:, 1], -2.0 * c, atol=1e-12)

    def test_single_node_matches_bulk(self):
        # one-sided second-order stencils at the ends, central in the bulk
        w = perturb_interior(straight_line(A, B, 1.0, 30), 0.4, seed=3)
        x, h = w.points, w.dc
        all_v = velocities(w)
        np.testing.assert_allclose(all_v[0], (-3 * x[0] + 4 * x[1] - x[2]) / (2 * h), atol=1e-14)
        np.testing.assert_allclose(all_v[30], (3 * x[30] - 4 * x[29] + x[28]) / (2 * h), atol=1e-14)
        for i in (1, 15, 29):
            np.testing.assert_allclose(all_v[i], (x[i + 1] - x[i - 1]) / (2 * h), atol=1e-14)


class TestPerturbation:
    def test_endpoints_untouched(self):
        base = straight_line(A, B, 1.0, 64)
        w = perturb_interior(base, 0.5, seed=11)
        assert np.array_equal(w.points[0], base.points[0])
        assert np.array_equal(w.points[-1], base.points[-1])
        assert not np.array_equal(w.points[32], base.points[32])

    def test_deterministic_in_seed(self):
        base = straight_line(A, B, 1.0, 64)
        w1 = perturb_interior(base, 0.5, seed=11)
        w2 = perturb_interior(base, 0.5, seed=11)
        np.testing.assert_array_equal(w1.points, w2.points)
        w3 = perturb_interior(base, 0.5, seed=12)
        assert not np.array_equal(w1.points, w3.points)

    def test_amplitude_sets_peak_displacement(self):
        base = straight_line(A, B, 1.0, 2048)
        w = perturb_interior(base, 0.37, seed=5)
        peak = np.linalg.norm(w.points - base.points, axis=1).max()
        assert peak == pytest.approx(0.37, rel=1e-10)

    def test_same_seed_names_same_continuum_field(self):
        # coarse samples must lie on the fine trajectory, not near it
        fine = perturb_interior(straight_line(A, B, 1.0, 1000), 0.3, seed=9)
        coarse = perturb_interior(straight_line(A, B, 1.0, 100), 0.3, seed=9)
        np.testing.assert_allclose(coarse.points, fine.points[::10], atol=1e-12)

    def test_zero_amplitude_is_identity(self):
        base = straight_line(A, B, 1.0, 32)
        w = perturb_interior(base, 0.0, seed=11)
        np.testing.assert_array_equal(w.points, base.points)

    @pytest.mark.parametrize("C", [1e-3, 1.3, 1e5])
    def test_peak_is_the_largest_norm_bit_for_bit(self, C):
        # the column-by-column sum of squares must round as np.linalg.norm's
        # row sum does, or the scale of every perturbation field moves
        reference = normalization_modes(C)
        for seed in range(2000):
            coef, peak = perturbation_coefficients(seed, C, reference=reference)
            assert peak == np.linalg.norm(reference @ coef, axis=1).max(), (C, seed)
