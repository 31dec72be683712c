"""Each check can fail: a plausible slip in the algebra it guards makes it fail.

Every case patches one slip into the package and runs the suite that holds
the named checks on the QUICK config, or on GENERIC where the default
geometry (a = 0, m = 1) hides the slip; the same run without the slip
passes those checks.  phase_trajectory_independence is not used here: it
already fails on QUICK (its 1e-8 bound does not scale with N).
"""

import numpy as np
import pytest

from waveline import (
    checks, config, eigenvalue, minkowski, phase_flow, phase_functional, stationarity,
)
from waveline.config import load_config

from conftest import GENERIC, QUICK


def flipped_flow_sign(monkeypatch):
    # d(sigma1)/dc = +2 sigma2 sigma1: the sigma1 equation with sigma2's sign flipped
    rhs = phase_flow.batched_rhs

    def flipped(y, out):
        rhs(y, out)
        out[:4] *= -1.0  # the sigma1 rows of the (5, K) state

    monkeypatch.setattr(phase_flow, "batched_rhs", flipped)


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


def center_without_e_q(monkeypatch):
    # x_tilde = -(b - a) / (e^Q - 1): the e^Q weight on a dropped
    def dropped(a, b, q):
        return -(np.asarray(b, dtype=float) - np.asarray(a, dtype=float)) / np.expm1(q)

    monkeypatch.setattr(phase_functional, "shift_point", dropped)


def sigma1_without_d(monkeypatch):
    # sigma1_0 = (b - a) / (2C): the factor D on a dropped, at every lookup site
    def dropped(sigma2_0, a, b, C):
        return (np.asarray(b, dtype=float) - np.asarray(a, dtype=float)) / (2.0 * C)

    for module in (stationarity, config, checks, phase_functional):
        monkeypatch.setattr(module, "optimal_sigma1", dropped)


def reduced_lambda_with_m(monkeypatch):
    # lambda(C) = (b-a).(b-a)/(4C) + m C: the mass term's m^2 as m
    def slipped(C, a, b, m):
        return stationarity.timelike_interval_squared(a, b) / (4.0 * C) + m * C

    for module in (stationarity, checks):
        monkeypatch.setattr(module, "reduced_lambda", slipped)


def action_with_m_squared(monkeypatch):
    # S = +/- m^2 sqrt((b-a)^2): the classical action's m as m^2
    action = minkowski.classical_action

    def slipped(a, b, m, branch=1):
        return m * action(a, b, m, branch=branch)

    for module in (minkowski, checks):
        monkeypatch.setattr(module, "classical_action", slipped)


def modulus_with_hbar(monkeypatch):
    # the modulus terms of lambda_lattice weighted by hbar_tilde, not its square
    lattice = eigenvalue.lambda_lattice

    def slipped(w, flow, m, params=None):
        phase_only = lattice(w, flow, m)
        if params is None:
            return phase_only
        return phase_only + (lattice(w, flow, m, params) - phase_only) / params.hbar_tilde

    for module in (eigenvalue, checks):
        monkeypatch.setattr(module, "lambda_lattice", slipped)


CASES = {
    "flow-rhs-sign": (
        flipped_flow_sign, checks.flow_suite,
        tuple(f"flow_accuracy[sigma2_0={s2:g}]" for s2 in (-0.4, 0.5, 2.0)), QUICK,
    ),
    "delta0": (
        dropped_delta0, checks.operator_suite,
        ("operator_phase_only", "operator_imaginary_part"), QUICK,
    ),
    "frozen-ladder": (
        frozen_ladder, checks.lambda_suite, ("lambda_worldline_independence_order",), QUICK,
    ),
    "one-sided-stencil": (
        one_sided_stencil, checks.lambda_suite, ("lambda_worldline_independence_order",),
        QUICK,
    ),
    "x-tilde": (
        swapped_x_tilde, checks.phase_suite,
        ("phase_two_clock_consistency", "phase_center_identity"), QUICK,
    ),
    "center-without-e^Q": (
        center_without_e_q, checks.phase_suite,
        ("phase_two_clock_consistency", "phase_center_identity"), GENERIC,
    ),
    "sigma1-without-D": (
        sigma1_without_d, checks.verify_suite,
        ("curvature_degeneracy", "phase_two_clock_consistency", "phase_center_identity"),
        GENERIC,
    ),
    "reduced-lambda-m": (
        reduced_lambda_with_m, checks.stationarity_suite,
        ("classical_limit_identity[branch=+1]", "classical_limit_identity[branch=-1]"), GENERIC,
    ),
    "action-m^2": (
        action_with_m_squared, checks.stationarity_suite,
        ("stationary_eigenvalue", "classical_limit_identity[branch=+1]",
         "classical_limit_identity[branch=-1]"),
        GENERIC,
    ),
    "modulus-hbar": (
        modulus_with_hbar, checks.operator_suite, ("operator_phase_and_modulus",), GENERIC,
    ),
}


def statuses(suite, names, overrides):
    found = {c.name: c.passed for c in suite(load_config(overrides=overrides)).checks}
    return [found[name] for name in names]


@pytest.mark.parametrize("case", list(CASES))
def test_slip_fails_its_check(monkeypatch, case):
    slip, suite, names, overrides = CASES[case]
    assert statuses(suite, names, overrides) == [True] * len(names)
    slip(monkeypatch)
    assert statuses(suite, names, overrides) == [False] * len(names)
