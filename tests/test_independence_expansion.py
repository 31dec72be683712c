"""The exact quadratic expansion behind the independence spread, against the direct path.

The verify suite never rebuilds a perturbed world line for the independence
checks: it expands the lattice eigenvalue around the base line once per
lattice.  These tests hold that expansion to the direct computation
``lambda_lattice(perturb_interior(...))`` seed by seed, for flowing and for
frozen coefficients.
"""

import numpy as np
import pytest

from waveline.checks import independence_spread
from waveline.eigenvalue import expansion_deltas, lambda_lattice, lattice_expansion
from waveline.minkowski import interval_squared
from waveline.phase_flow import FlowInitialData, frozen_coefficients, sample_closed_form
from waveline.stationarity import optimal_C, optimal_sigma1
from waveline.worldline import (
    field_peaks,
    interior_modes,
    normalization_modes,
    perturb_interior,
    seed_coefficients,
    seed_displacements,
    straight_line,
)

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])
M = 1.0
SEEDS = range(8, 14)
C_RUN = optimal_C(A, B, M)
AMP = 0.3 * np.sqrt(interval_squared(A, B))
INIT = FlowInitialData(optimal_sigma1(0.5, A, B, C_RUN), 0.5)


def one_seed(seed):
    """``(coef, peak)`` of one seed, each taken alone as perturb_interior takes them."""
    coef = seed_coefficients(seed)
    return coef, field_peaks(coef[None], normalization_modes(C_RUN))[0]


@pytest.mark.parametrize("coefficients_for", [sample_closed_form, frozen_coefficients])
@pytest.mark.parametrize("n", [8, 100, 1000])
def test_expansion_matches_direct_quadrature_per_seed(n, coefficients_for):
    base = straight_line(A, B, C_RUN, n)
    flow = coefficients_for(INIT, base.grid)
    lam0 = lambda_lattice(base, flow, M)
    g, q = lattice_expansion(base, flow, interior_modes(base))
    reduced = expansion_deltas(g, q, seed_displacements(AMP, SEEDS, C_RUN))
    for seed, delta in zip(SEEDS, reduced):
        direct = lambda_lattice(perturb_interior(base, AMP, seed), flow, M) - lam0
        assert abs(delta - direct) <= 1e-12 * max(1.0, abs(lam0)), seed


@pytest.mark.parametrize("coefficients_for", [sample_closed_form, frozen_coefficients])
def test_spread_matches_direct_spread(coefficients_for):
    base = straight_line(A, B, C_RUN, 200)
    flow = coefficients_for(INIT, base.grid)
    lams = [lambda_lattice(perturb_interior(base, AMP, s), flow, M) for s in SEEDS]
    lams.append(lambda_lattice(base, flow, M))
    displacements = seed_displacements(AMP, SEEDS, C_RUN)
    spread = independence_spread(base, flow, M, displacements, interior_modes(base))
    assert spread == pytest.approx(np.ptp(lams), rel=1e-10, abs=1e-14)


def test_displacements_reproduce_perturb_interior():
    base = straight_line(A, B, C_RUN, 50)
    stack = seed_displacements(AMP, SEEDS, C_RUN)
    for seed, coef in zip(SEEDS, stack):
        moved = perturb_interior(base, AMP, seed).points - base.points
        np.testing.assert_allclose(interior_modes(base) @ coef, moved, rtol=0, atol=1e-14)


def test_shared_normalization_table_keeps_displacements_bit_identical():
    # seed_displacements builds the 2049-point sine table once per call; each
    # seed's scaled coefficients must equal those of a per-seed table exactly
    expected = []
    for seed in SEEDS:
        coef, peak = one_seed(seed)
        expected.append((AMP / peak) * coef)
    np.testing.assert_array_equal(seed_displacements(AMP, SEEDS, C_RUN), np.array(expected))


@pytest.mark.parametrize("amplitude", [AMP, 0.0])
@pytest.mark.parametrize("seeds", [range(3, 4), range(1, 18), range(8, 208)])
def test_batched_peaks_keep_displacements_bit_identical(seeds, amplitude):
    # seed_displacements takes the peaks of several seeds per product; each
    # seed's scaled coefficients must equal those of the one-seed path
    # exactly, signed zeros included, whichever chunk the seed falls in and
    # however full its chunk is
    expected = []
    for seed in seeds:
        coef, peak = one_seed(seed)
        expected.append((amplitude / peak) * coef)
    stack = seed_displacements(amplitude, seeds, C_RUN)
    assert stack.shape == (len(seeds), 6, 4)
    assert stack.tobytes() == np.array(expected).tobytes()


def test_zero_amplitude_gives_zero_displacements():
    assert not np.any(seed_displacements(0.0, SEEDS, C_RUN))


def test_perturb_interior_unchanged_by_shared_helper():
    # The field as perturb_interior built it before the coefficient helper
    # was factored out; the phase artifacts depend on these exact bits.
    base = straight_line(A, B, C_RUN, 300)
    for seed in SEEDS:
        coef = np.random.default_rng(seed).standard_normal((6, 4))
        k = np.arange(1, 7)

        def field(c):
            return np.sin(np.pi * np.outer(c / base.C, k)) @ coef

        ref = field(np.linspace(0.0, base.C, 2049))
        peak = np.linalg.norm(ref, axis=1).max()
        expected = base.points.copy()
        expected[1:-1] += (AMP / peak) * field(base.grid[1:-1])
        np.testing.assert_array_equal(perturb_interior(base, AMP, seed).points, expected)
