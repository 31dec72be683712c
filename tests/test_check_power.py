"""Each check can fail: a plausible slip in the algebra it guards makes it fail.

Every case patches one slip into the package and runs the suite that holds
the named checks on the QUICK config, or on GENERIC where the default
geometry (a = 0, m = 1) hides the slip, or on the default config; the same
run without the slip passes those checks.  Every check a passing ``verify``
reports has a case here, or a reason in UNGUARDED why it has none.
"""

import functools

import numpy as np
import pytest

from waveline import (
    checks, config, eigenvalue, minkowski, phase_flow, phase_functional, stationarity,
)
from waveline.config import load_config

from conftest import GENERIC, QUICK, matches


def flipped_flow_sign(monkeypatch):
    # d(sigma1)/dc = +2 sigma2 sigma1: the sigma1 equation with sigma2's sign flipped
    rhs = phase_flow.batched_rhs

    def flipped(y, out):
        rhs(y, out)
        out[:4] *= -1.0  # the sigma1 rows of the (5, K) state

    monkeypatch.setattr(phase_flow, "batched_rhs", flipped)


def dropped_delta0(monkeypatch):
    # the reality integrand without its -4 sigma2 delta(0) term, delta(0) -> 1/dc
    integrand = eigenvalue.lattice_integrand

    def without_delta0(w, flow, params=None):
        lam, res = integrand(w, flow, params)
        return lam, None if res is None else res + 4.0 * flow.sigma2 / w.dc

    monkeypatch.setattr(eigenvalue, "lattice_integrand", without_delta0)


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
    # the modulus terms of the real integrand weighted by hbar_tilde, not its square
    integrand = eigenvalue.lattice_integrand

    def slipped(w, flow, params=None):
        lam, res = integrand(w, flow, params)
        if params is None:
            return lam, res
        phase_only, _ = integrand(w, flow)
        return phase_only + (lam - phase_only) / params.hbar_tilde, res

    monkeypatch.setattr(eigenvalue, "lattice_integrand", slipped)


FIXED_STEP_HBAR = 1e-6


def fixed_probe_step(monkeypatch):
    # the operator probe at the fixed step 1e-4 on the case's hbar_tilde
    monkeypatch.setattr(eigenvalue, "OPERATOR_STEP", 1e-4 / FIXED_STEP_HBAR)


def closed_form_with_m(monkeypatch):
    # lambda = ... + m C: the closed form's mass term m^2 C as m C, at every lookup site
    closed = eigenvalue.lambda_closed_form

    def slipped(init, a, b, m, C):
        return closed(init, a, b, m, C) - m * m * C + m * C

    for module in (eigenvalue, checks, stationarity):
        monkeypatch.setattr(module, "lambda_closed_form", slipped)


def duration_without_half(monkeypatch):
    # C* = sqrt((b-a).(b-a)) / m: the stationary duration's 1/2 dropped
    duration = stationarity.optimal_C

    def slipped(a, b, m, branch=1):
        return 2.0 * duration(a, b, m, branch=branch)

    for module in (stationarity, config, checks):
        monkeypatch.setattr(module, "optimal_C", slipped)


def fourth_stage_at_half_step(monkeypatch):
    # RK4's k4 taken at y + (h/2) k3, not y + h k3: the step drops to first order
    rhs = phase_flow.batched_rhs

    def stepper(h, half, sixth, shape):
        k1, k2, k3, k4 = np.empty((4,) + shape)

        def step(y, out):
            rhs(y, k1)
            rhs(y + half * k1, k2)
            rhs(y + half * k2, k3)
            rhs(y + half * k3, k4)
            out[...] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        return step

    monkeypatch.setattr(phase_flow, "_rk4_stepper", stepper)


def operator_mass_with_m(monkeypatch):
    # the probe's analytic mass term m C, not m^2 C, at every lookup site
    probe = eigenvalue.apply_action_operator

    def slipped(params, w):
        return probe(params, w) - params.m * params.m * w.C + params.m * w.C

    for module in (eigenvalue, checks):
        monkeypatch.setattr(module, "apply_action_operator", slipped)


def metric_x3_sign(monkeypatch):
    # the invariant product u0 v0 - u1 v1 - u2 v2 + u3 v3: the metric's x3
    # sign flipped, at every lookup site
    dot = minkowski.dot

    def slipped(u, v):
        return dot(u, v) + 2.0 * u[..., 3] * v[..., 3]

    for module in (minkowski, eigenvalue, phase_functional):
        monkeypatch.setattr(module, "dot", slipped)


def flowing_control(monkeypatch):
    # the negative control's ladder fed the flowing coefficients it should freeze
    monkeypatch.setattr(checks, "frozen_coefficients", phase_flow.sample_closed_form)


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
    # phase_trajectory_independence fails on QUICK (its 1e-8 bound does not
    # scale with N), so its case runs at the default config
    "x-tilde-default-N": (
        swapped_x_tilde, checks.phase_suite, ("phase_trajectory_independence",), {},
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
    # at hbar_tilde = 1e-6 a fixed step turns the phase by radians per probe
    "operator-fixed-step": (
        fixed_probe_step, checks.operator_suite, ("operator_phase_only",),
        {**QUICK, "N": 50, "hbar_tilde": FIXED_STEP_HBAR},
    ),
    "closed-form-m": (
        closed_form_with_m, checks.lambda_suite, ("lambda_three_form_agreement",), QUICK,
    ),
    "duration-half": (
        duration_without_half, checks.stationarity_suite, ("stationary_duration",), QUICK,
    ),
    "rk4-fourth-stage": (
        fourth_stage_at_half_step, checks.flow_suite, ("flow_step_halving_contraction",), QUICK,
    ),
    "operator-mass-m": (
        operator_mass_with_m, checks.operator_suite,
        ("operator_exact_free", "operator_phase_only", "operator_phase_and_modulus"), GENERIC,
    ),
    # only the operator's value checks see a wrong metric: the three-form,
    # classical-limit and stationary checks take dot on both of their sides
    "metric-x3-sign": (
        metric_x3_sign, checks.operator_suite,
        ("operator_phase_only", "operator_phase_and_modulus", "operator_imaginary_part"), {},
    ),
    "flowing-control": (
        flowing_control, functools.partial(checks.lambda_suite, with_control=True),
        ("lambda_violation_detected",), QUICK,
    ),
}

# Checks of a passing verify with no case above, each with the reason: none now
UNGUARDED = {}


def statuses(suite, names, overrides):
    found = {c.name: c.passed for c in suite(load_config(overrides=overrides)).checks}
    return [found[name] for name in names]


@pytest.mark.parametrize("case", list(CASES))
def test_slip_fails_its_check(monkeypatch, case):
    slip, suite, names, overrides = CASES[case]
    assert statuses(suite, names, overrides) == [True] * len(names)
    slip(monkeypatch)
    assert statuses(suite, names, overrides) == [False] * len(names)


def test_every_check_of_a_passing_verify_has_a_case_or_a_reason():
    # names that appear only when a measurement raises are not in a passing run
    reported = [c.name for c in checks.verify_suite(load_config()).checks]
    emitted = [p for p in checks.CHECK_NAMES["verify"] if any(matches(n, p) for n in reported)]
    guarded = [name for *_, names, _ in CASES.values() for name in names]
    for pattern in emitted:
        covered = any(matches(name, pattern) for name in guarded)
        assert covered != (pattern in UNGUARDED), pattern
    assert set(UNGUARDED) <= set(emitted)
