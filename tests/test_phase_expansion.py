"""The exact quadratic expansion behind the phase trajectory spread, against the direct path.

The phase suite splines the base line and its six sine-mode columns once
and takes every trajectory's phase_q - phase_c from
``phase_functional.phase_expansion``, anchored at the base line's own
difference, which the expansion computes from the same splined events.  These tests hold that expansion to
the direct ``phase_difference(perturb_interior(...))`` path seed by seed.
"""

import numpy as np
import pytest

from waveline import phase_functional
from waveline.eigenvalue import expansion_deltas
from waveline.minkowski import interval_squared
from waveline.phase_functional import phase_difference, phase_expansion
from waveline.stationarity import optimal_C
from waveline.worldline import (
    interior_modes,
    perturb_interior,
    seed_displacements,
    straight_line,
)

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])
SEEDS = range(8, 14)
C_RUN = optimal_C(A, B, 1.0)
AMP = 0.3 * np.sqrt(interval_squared(A, B))


def expanded_differences(base, sigma2_0, seeds=SEEDS, amplitude=AMP):
    anchor, g, q = phase_expansion(base, sigma2_0, interior_modes(base))
    coefs = seed_displacements(amplitude, seeds, base.C)
    return anchor + expansion_deltas(g, q, coefs)


def worst_miss(base, sigma2_0):
    """Largest |expanded - direct| over SEEDS, in units of the 1e-12 bound."""
    worst = 0.0
    for seed, d in zip(SEEDS, expanded_differences(base, sigma2_0)):
        direct = phase_difference(perturb_interior(base, AMP, seed), sigma2_0)
        worst = max(worst, abs(d - direct) / (1e-12 * max(1.0, abs(direct))))
    return worst


@pytest.mark.parametrize("sigma2_0", [-0.3, 0.5, 2.0])
@pytest.mark.parametrize("n", [8, 100, 1000])
def test_expansion_matches_direct_difference_per_seed(n, sigma2_0):
    assert worst_miss(straight_line(A, B, C_RUN, n), sigma2_0) <= 1.0


def test_relative_std_matches_direct_one():
    # the quantity phase_trajectory_independence thresholds
    base = straight_line(A, B, C_RUN, 1000)
    seeds = range(1, 21)
    direct = np.array(
        [phase_difference(perturb_interior(base, AMP, s), 0.5) for s in seeds]
    )
    diffs = expanded_differences(base, 0.5, seeds)

    def rel_std(d):
        return d.std() / (1.0 + abs(d.mean()))

    assert rel_std(direct) > 0.0
    assert rel_std(diffs) == pytest.approx(rel_std(direct), rel=1e-6)


@pytest.mark.parametrize("sigma2_0", [-0.3, 0.5, 2.0])
@pytest.mark.parametrize("n", [100, 1000])
def test_anchor_is_the_direct_difference_bit_for_bit(n, sigma2_0):
    # the expansion reuses its splined base line for the anchor; the value
    # must be the one phase_difference computes on its own
    base = straight_line(A, B, C_RUN, n)
    anchor, _, _ = phase_expansion(base, sigma2_0, interior_modes(base))
    direct = phase_difference(base, sigma2_0)
    assert np.float64(anchor).tobytes() == np.float64(direct).tobytes()


def test_zero_coefficients_return_the_anchor():
    base = straight_line(A, B, C_RUN, 100)
    anchor, g, q = phase_expansion(base, 0.5, interior_modes(base))
    assert anchor == phase_difference(base, 0.5)
    assert g.shape == (6, 4) and q.shape == (6, 6)
    assert anchor + expansion_deltas(g, q, np.zeros((3, 6, 4)))[0] == anchor
    np.testing.assert_array_equal(
        expanded_differences(base, 0.5, amplitude=0.0), np.full(len(SEEDS), anchor)
    )


def test_continuum_modes_in_place_of_splined_ones_miss_the_oracle(monkeypatch):
    # The identity holds only for the splined mode columns: the continuum
    # sine at the q nodes is a plausible slip and must fail the bound.
    resample = phase_functional.resample_on_log_clock

    def continuum_modes(w, sigma2_0, values=None):
        q_grid, out = resample(w, sigma2_0, values)
        if values is None:
            return q_grid, out
        c = np.expm1(q_grid) / (2.0 * sigma2_0)
        k = np.arange(1, values.shape[1] + 1)
        return q_grid, np.sin(np.pi * np.outer(c / w.C, k))

    monkeypatch.setattr(phase_functional, "resample_on_log_clock", continuum_modes)
    assert worst_miss(straight_line(A, B, C_RUN, 8), 0.5) > 1e3
