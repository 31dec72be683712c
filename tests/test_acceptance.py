"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines.  Each
test pins the tolerance it must meet and its runtime budget; the budgets
are generous on purpose (they guard against algorithmic regressions, not
machine jitter).
"""

import json
import time

import numpy as np

from waveline.cli import main
from waveline.eigenvalue import (
    WaveParameters,
    apply_action_operator,
    lambda_boundary_form,
    lambda_closed_form,
    lambda_lattice,
    predicted_action_eigenvalue,
)
from waveline.minkowski import classical_action, interval_squared
from waveline.phase_flow import (
    FlowInitialData,
    frozen_coefficients,
    integrate_flow,
    sample_closed_form,
)
from waveline.phase_functional import phase_difference, predicted_phase_offset
from waveline.stationarity import (
    numeric_stationary_search,
    optimal_C,
    optimal_sigma1,
    stationary_lambda,
)
from waveline.worldline import perturb_interior, straight_line

A = np.zeros(4)
B = np.array([2.0, 0.6, 0.3, 0.1])


def report(label, value, tol, elapsed, budget):
    status = "PASS" if value <= tol else "FAIL"
    print(f"{status}: {label}  value={value:.3e}  tol={tol:.0e}  ({elapsed:.2f}s)")
    assert value <= tol, f"{label}: {value:.3e} > {tol:.0e}"
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over the {budget}s budget"


def test_flow_fidelity():
    # RK4 vs closed form: <= 1e-10 relative at N=1000 over four curvatures,
    # with ~16x error contraction per lattice doubling
    t0 = time.perf_counter()
    s1 = np.array([1.0, -0.5, 0.25, 0.75])
    worst = 0.0
    contraction = []
    for s2 in (-0.4, 0.0, 0.5, 2.0):
        init = FlowInitialData(s1, s2)
        errs = {}
        for n in (500, 1000):
            (num,) = integrate_flow([init], 1.0, n)
            exact = sample_closed_form(init, num.grid)
            scale1 = np.maximum(1.0, np.abs(exact.sigma1))
            scale2 = np.maximum(1.0, np.abs(exact.sigma2))
            errs[n] = max(
                float((np.abs(num.sigma1 - exact.sigma1) / scale1).max()),
                float((np.abs(num.sigma2 - exact.sigma2) / scale2).max()),
            )
        worst = max(worst, errs[1000])
        if errs[1000] > 0:
            contraction.append(errs[500] / errs[1000])
    elapsed = time.perf_counter() - t0
    report("flow fidelity (max rel err, N=1000)", worst, 1e-10, elapsed, 1.0)
    assert contraction, "every curvature integrated exactly; no contraction measured"
    ratio = max(contraction)
    print(f"PASS: flow error contraction per N doubling  ratio={ratio:.2f} (expect ~16)")
    assert 8.0 < ratio < 32.0


def test_three_way_lambda_agreement():
    # closed form vs boundary form vs straight-line lattice at N=1e4,
    # 50 random admissible parameter sets, <= 1e-6 relative
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        c = rng.uniform(0.3, 1.2)
        while True:
            s2 = rng.uniform(-0.25, 1.2)
            if 1.0 + 2.0 * s2 * c >= 0.4:
                break
        init = FlowInitialData(rng.uniform(-1, 1, 4), s2)
        a = rng.uniform(-0.5, 0.5, 4)
        b = a + np.concatenate([[rng.uniform(1.0, 2.2)], rng.uniform(-0.4, 0.4, 3)])
        m = rng.uniform(0.2, 1.8)
        w = straight_line(a, b, c, 10000)
        flow = sample_closed_form(init, w.grid)
        vals = np.array(
            [
                lambda_closed_form(init, a, b, m, c),
                lambda_boundary_form(flow, a, b, m).total,
                lambda_lattice(w, flow, m),
            ]
        )
        worst = max(worst, float(np.ptp(vals)) / max(1.0, np.abs(vals).max()))
    elapsed = time.perf_counter() - t0
    report("three-way lambda agreement (50 sets, N=1e4)", worst, 1e-6, elapsed, 5.0)


def test_worldline_independence():
    # spread over 100 interior perturbations must contract with order >= 2
    # across N in {1e2, 1e3, 1e4}; frozen coefficients must NOT contract
    t0 = time.perf_counter()
    c_run = optimal_C(A, B, 1.0)
    s2 = 0.5
    init = FlowInitialData(optimal_sigma1(s2, A, B, c_run), s2)
    amp = 0.3 * np.sqrt(interval_squared(A, B))

    def spreads(coeffs):
        out = []
        for n in (100, 1000, 10000):
            base = straight_line(A, B, c_run, n)
            flow = coeffs(init, base.grid)
            lams = [
                lambda_lattice(perturb_interior(base, amp, seed=k), flow, 1.0)
                for k in range(1, 101)
            ]
            out.append(np.ptp(lams))
        return np.array(out)

    ns = np.array([100, 1000, 10000])
    flowing = spreads(sample_closed_form)
    order = -np.polyfit(np.log(ns), np.log(flowing), 1)[0]
    elapsed = time.perf_counter() - t0
    status = "PASS" if order >= 2.0 else "FAIL"
    print(
        f"{status}: worldline independence order={order:.2f} (expect >= 2), "
        f"spreads={[f'{s:.2e}' for s in flowing]}  ({elapsed:.2f}s)"
    )
    assert order >= 2.0
    assert elapsed < 20.0

    frozen = spreads(frozen_coefficients)
    frozen_order = -np.polyfit(np.log(ns), np.log(frozen), 1)[0]
    print(
        f"PASS: negative control stays trajectory-dependent "
        f"(order={frozen_order:.3f}, final spread={frozen[-1]:.2e})"
    )
    assert frozen_order < 1.0, "frozen coefficients must fail the contraction"
    assert frozen[-1] > 1e-2, "frozen-coefficient spread must stay macroscopic"


def test_classical_limit_recovery():
    # numeric stationary search reproduces C* and lambda* to 1e-8 for five
    # random timelike pairs on both branches; analytic identity to 1e-12
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_c, worst_lam, worst_ident = 0.0, 0.0, 0.0
    for _ in range(5):
        a = rng.uniform(-1, 1, 4)
        b = a + np.concatenate([[rng.uniform(0.8, 2.5)], rng.uniform(-0.3, 0.3, 3)])
        m = rng.uniform(0.4, 2.0)
        for branch in (1, -1):
            found = numeric_stationary_search(a, b, m, branch=branch)
            worst_c = max(worst_c, abs(found.C_star - optimal_C(a, b, m, branch=branch)))
            worst_lam = max(
                worst_lam,
                abs(found.lambda_star - classical_action(a, b, m, branch=branch)),
            )
            worst_ident = max(
                worst_ident,
                abs(
                    stationary_lambda(a, b, m, branch=branch)
                    - classical_action(a, b, m, branch=branch)
                ),
            )
    elapsed = time.perf_counter() - t0
    report("classical recovery: C* (5 pairs x 2 branches)", worst_c, 1e-8, elapsed, 2.0)
    print(f"PASS: classical recovery: lambda*  value={worst_lam:.3e}  tol=1e-08")
    assert worst_lam <= 1e-8
    print(f"PASS: stationary_lambda == classical_action  value={worst_ident:.3e}  tol=1e-12")
    assert worst_ident <= 1e-12


def test_curvature_degeneracy():
    # after re-solving sigma1_0, lambda must not depend on sigma2_0:
    # 9-value D>0 grid, drift <= 1e-9
    t0 = time.perf_counter()
    c_star = optimal_C(A, B, 1.0)
    lams = []
    for x in (-0.8, -0.4, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        s2 = x / (2.0 * c_star)  # D(C*) = 1 + x > 0 across the grid
        init = FlowInitialData(optimal_sigma1(s2, A, B, c_star), s2)
        lams.append(lambda_closed_form(init, A, B, 1.0, c_star))
    drift = float(np.ptp(lams))
    elapsed = time.perf_counter() - t0
    report("curvature degeneracy (9-value grid)", drift, 1e-9, elapsed, 1.0)


def test_operator_oracle():
    # finite-difference (I Psi)/Psi at N=16 matches the predicted
    # lambda - i*hb*(reality residual) to 1e-4 relative; free case exact
    t0 = time.perf_counter()
    w = straight_line(A, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 16)

    free = WaveParameters(FlowInitialData(np.zeros(4), 0.0), m=1.0)
    exact_gap = abs(apply_action_operator(free, w) - (1.0 + 0.0j))
    assert exact_gap == 0.0
    print("PASS: operator oracle, sigma=r=0 reproduces m^2 C exactly")

    worst = 0.0
    for r1, r2 in ((np.zeros(4), 0.0), (np.array([0.05, 0.02, -0.01, 0.03]), 0.1)):
        params = WaveParameters(
            FlowInitialData(np.array([0.3, 0.0, 0.0, 0.0]), 0.2),
            m=1.0,
            r1_0=r1,
            r2_0=r2,
        )
        predicted = predicted_action_eigenvalue(params, w)
        rel = abs(apply_action_operator(params, w) - predicted) / max(1.0, abs(predicted))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report("operator oracle (N=16, sigma-only and sigma+r)", worst, 1e-4, elapsed, 30.0)


def test_phase_functional_consistency():
    # two-clock identity gap <= 1e-6 at N=1e4; the raw difference is the
    # same constant for every trajectory to 1e-8 relative stddev
    t0 = time.perf_counter()
    c_run = optimal_C(A, B, 1.0)
    amp = 0.3 * np.sqrt(interval_squared(A, B))
    base = straight_line(A, B, c_run, 10000)
    measured = phase_difference(perturb_interior(base, amp, seed=1), 0.5)
    gap = abs(measured - predicted_phase_offset(0.5, A, B, c_run))
    diffs = np.array(
        [phase_difference(perturb_interior(base, amp, seed=k), 0.5) for k in range(1, 21)]
    )
    rel_std = float(diffs.std()) / (1.0 + abs(float(diffs.mean())))
    elapsed = time.perf_counter() - t0
    report("phase consistency gap (N=1e4)", gap, 1e-6, elapsed, 5.0)
    print(f"PASS: phase offset trajectory-independence  value={rel_std:.3e}  tol=1e-08")
    assert rel_std <= 1e-8


def test_full_verify_suite(tmp_path):
    # the shipped CLI must pass everything, in one minute, reproducibly
    t0 = time.perf_counter()
    out1 = tmp_path / "v1"
    code = main(["verify", "--out", str(out1)])
    elapsed = time.perf_counter() - t0
    payload = json.loads((out1 / "run_report.json").read_text())
    status = "PASS" if code == 0 and payload["overall"] == "pass" else "FAIL"
    print(f"{status}: full verify suite  ({len(payload['checks'])} checks, {elapsed:.2f}s)")
    assert code == 0
    assert payload["overall"] == "pass"
    assert elapsed < 60.0

    out2 = tmp_path / "v2"
    assert main(["verify", "--out", str(out2)]) == 0
    assert (out1 / "run_report.json").read_bytes() == (out2 / "run_report.json").read_bytes()
    print("PASS: verify report is byte-identical across reruns")
