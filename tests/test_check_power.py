"""Each check can fail: a plausible slip in the algebra it guards makes it fail.

Every case patches one slip into the package and runs the suite that holds
the named checks on the QUICK config; the same run without the slip passes
those checks.  phase_trajectory_independence is not used here: it already
fails on QUICK (its 1e-8 bound does not scale with N).
"""

import numpy as np
import pytest

from waveline import checks, eigenvalue, phase_flow, phase_functional
from waveline.config import load_config

from conftest import QUICK


def flipped_flow_sign(monkeypatch):
    # d(sigma1)/dc = +2 sigma2 sigma1: the sigma1 equation with sigma2's sign flipped
    step = phase_flow.rk4_step
    sign = np.array([-1.0, -1.0, -1.0, -1.0, 1.0])
    monkeypatch.setattr(
        phase_flow, "rk4_step", lambda f, y, h: step(lambda z: sign * f(z), y, h)
    )


def dropped_delta0(monkeypatch):
    # the reality quadrature without its -4 sigma2 delta(0) term, delta(0) -> 1/dc
    residual = eigenvalue.reality_residual

    def without_delta0(flow, params, w):
        return residual(flow, params, w) + float(np.trapezoid(4.0 * flow.sigma2 / w.dc, w.grid))

    monkeypatch.setattr(eigenvalue, "reality_residual", without_delta0)


def frozen_ladder(monkeypatch):
    # the independence ladder fed constant coefficients instead of the flow
    monkeypatch.setattr(checks, "sample_closed_form", phase_flow.frozen_coefficients)


def one_sided_stencil(monkeypatch):
    # dx/dc by a first-order forward difference, the last node by the backward one
    def forward(w, values=None):
        v = w.points if values is None else values
        d = np.diff(v, axis=0) / w.dc
        return np.concatenate([d, d[-1:]])

    monkeypatch.setattr(eigenvalue, "velocities", forward)


def swapped_x_tilde(monkeypatch):
    # x_tilde = -(a - e^Q b) / (e^Q - 1): the endpoints' roles swapped
    shift = phase_functional.shift_point
    monkeypatch.setattr(phase_functional, "shift_point", lambda a, b, q: shift(b, a, q))


CASES = {
    "flow-rhs-sign": (
        flipped_flow_sign, checks.flow_suite,
        tuple(f"flow_accuracy[sigma2_0={s2:g}]" for s2 in (-0.4, 0.5, 2.0)),
    ),
    "delta0": (
        dropped_delta0, checks.operator_suite,
        ("operator_phase_only", "operator_imaginary_part"),
    ),
    "frozen-ladder": (
        frozen_ladder, checks.lambda_suite, ("lambda_worldline_independence_order",),
    ),
    "one-sided-stencil": (
        one_sided_stencil, checks.lambda_suite, ("lambda_worldline_independence_order",),
    ),
    "x-tilde": (
        swapped_x_tilde, checks.phase_suite,
        ("phase_two_clock_consistency", "phase_center_identity"),
    ),
}


def statuses(suite, names):
    found = {c.name: c.passed for c in suite(load_config(overrides=QUICK)).checks}
    return [found[name] for name in names]


@pytest.mark.parametrize("case", list(CASES))
def test_slip_fails_its_check(monkeypatch, case):
    slip, suite, names = CASES[case]
    assert statuses(suite, names) == [True] * len(names)
    slip(monkeypatch)
    assert statuses(suite, names) == [False] * len(names)
