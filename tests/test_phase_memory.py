"""The phase suite's lattice work in bounded memory.

The log-clock spline builds and solves its curvature system inside one
(k, N+1) array with one scratch buffer, and evaluates the cubic with at
most two working buffers besides its output; the phase suite drops each
lattice-sized array after its last reader.  The bounds are the traced
peaks measured at N = 20 000 with that done, plus 10 %.
"""

import numpy as np
import pytest

from waveline import checks
from waveline.config import load_config
from waveline.phase_functional import resample_on_log_clock
from waveline.stationarity import optimal_C
from waveline.worldline import MODES, interior_modes, perturb_interior, straight_line

from conftest import traced_peak

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])
N = 20_000

# Measured 3 751 414 bytes: the output and two working buffers of (N+1, 6)
# doubles (960 048 bytes each), plus the node vectors.  The spline that
# copied its right-hand side and recurrence inputs peaked at 6 564 640.
MODE_SPLINE_PEAK = 4_127_000
# Measured 6 963 196 bytes, against 11 375 889 with the copying spline and
# the perturbed line, flow samples and splined base line kept to the end.
PHASE_SUITE_PEAK = 7_660_000


def base_line():
    return straight_line(A, B, optimal_C(A, B, 1.0), N)


def test_mode_spline_peak():
    base = base_line()
    modes = interior_modes(base)
    (_, points), peak = traced_peak(resample_on_log_clock, base, 0.5, modes)
    assert points.shape == (N + 1, MODES) and points.flags.c_contiguous
    assert peak <= MODE_SPLINE_PEAK


def test_phase_suite_peak():
    result, peak = traced_peak(checks.phase_suite, load_config(overrides={"N": N}))
    assert [c.passed for c in result.checks] == [True] * 3
    assert peak <= PHASE_SUITE_PEAK


@pytest.mark.parametrize("columns", [None, MODES, 1])
@pytest.mark.parametrize("n", [2, 3, 8, 1000])
def test_points_are_c_ordered(n, columns):
    # the g and Q products read the mode columns row by row; F-ordered
    # events would change their BLAS summation order
    w = perturb_interior(straight_line(A, B, 0.94, n), 0.3, seed=5)
    values = None if columns is None else np.random.default_rng(n).standard_normal((n + 1, columns))
    _, points = resample_on_log_clock(w, 0.5, values=values)
    assert points.shape == (n + 1, 4 if columns is None else columns)
    assert points.flags.c_contiguous
