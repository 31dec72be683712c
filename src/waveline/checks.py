"""Verification suites behind the command-line interface.

Each suite runs one family of checks against the thresholds in the run
configuration and returns CheckResult rows plus any artifacts (CSV/JSON
payloads) worth writing next to the report.  The suites are deliberately
independent of argparse so tests and library callers can drive them directly.
"""

import functools
import math

import numpy as np

from .errors import FlowSingularity, NotMeasured, NumericalOverflow, WavelineError, float_errors_as
from .eigenvalue import (
    WaveParameters,
    apply_action_operator,
    expansion_deltas,
    lambda_boundary_form,
    lambda_closed_form,
    lambda_lattice,
    lattice_expansion,
    predicted_action_eigenvalue,
)
from .minkowski import classical_action, interval_squared
from .phase_flow import (
    FlowInitialData,
    checked_denominator,
    closed_form_errors,
    denominator,
    flow_to_rows,
    frozen_coefficients,
    integrate_flow,
    sample_closed_form,
)
from .phase_functional import (
    consistency_gap,
    phase_difference,  # no caller here: perfbench/spans.py wraps it at this site
    phase_expansion,
    phase_geometry,
    predicted_phase_offset,
)
from .report import (
    CheckResult,
    failed_check,
    floor_check,
    margin_ratio,
    threshold_check,
    window_check,
    write_csv,
    write_json,
)
from .stationarity import (
    numeric_stationary_search,
    optimal_C,
    optimal_sigma1,
    reduced_lambda,
    stationary_lambda,
)
from .values import REQUIRED, Record
from .worldline import (
    interior_modes,
    lattice,
    perturb_interior,
    seed_displacements,
    straight_line,
)

# Fixed benchmark for integrator fidelity: one decaying, one flat, two
# growing curvatures on the unit duration, plus a generic sigma1_0.
FLOW_BENCH_SIGMA2 = (-0.4, 0.0, 0.5, 2.0)
FLOW_BENCH_SIGMA1 = (1.0, -0.5, 0.25, 0.75)
FLOW_BENCH_C = 1.0

OPERATOR_SIGMA1 = (0.3, 0.0, 0.0, 0.0)
OPERATOR_SIGMA2 = 0.2
OPERATOR_R1 = (0.05, 0.02, -0.01, 0.03)
OPERATOR_R2 = 0.1

# Contraction window for halving the RK4 step: ~2**4 with slack for
# error-constant drift between rungs.
CONTRACTION_LO, CONTRACTION_HI = 8.0, 32.0
# Errors one rung under the top below this many eps of the largest exact
# sample leave the top rung's, for any ratio in the contraction window, at
# the level of rounding, which no step halving contracts.
ROUNDOFF_EPS = 16.0


class SuiteResult(Record):
    """A suite's CheckResult rows and its artifacts, payloads by file name."""

    FIELDS = dict.fromkeys(("checks", "artifacts"), REQUIRED)
    __slots__ = tuple(FIELDS)

    def write_artifacts(self, out_dir):
        """Write each artifact by its suffix: a ``.csv`` payload is ``(header, rows)``."""
        for name, payload in self.artifacts.items():
            path = f"{out_dir}/{name}"
            if name.endswith(".csv"):
                write_csv(path, *payload)
            else:
                write_json(path, payload)


def _merge(*suites):
    """One SuiteResult of the suites' checks and artifacts, in the order given."""
    checks, artifacts = [], {}
    for s in suites:
        checks.extend(s.checks)
        artifacts.update(s.artifacts)
    return SuiteResult(checks, artifacts)


def _amplitude(cfg):
    ds2 = interval_squared(cfg.a, cfg.b)
    return cfg.amplitude * np.sqrt(max(ds2, 0.0))


def _n_ladder(n):
    """Three lattice sizes a decade apart, capped by the configured N."""
    return sorted({max(8, n // 100), max(8, n // 10), n})


# --------------------------------------------------------------------------
# flow fidelity


def _overflow(init, n):
    """The NumericalOverflow of an RK4 row of ``init`` that left the float range on n steps."""
    return NumericalOverflow(
        f"RK4 flow for sigma2_0={init.sigma2_0!r} leaves the float range on N={n} steps"
    )


def flow_suite(cfg):
    """RK4 against the exact flow on the fixed unit-duration benchmark.

    Every curvature on every ladder rung, and the flow.csv trace on the top
    rung, is integrated in a single call of n_top loop iterations; a
    curvature whose interval holds the pole is left out of it and fails its
    own check only.  Each rung's exact samples come from one closed form
    over all its curvatures.
    """
    tol = cfg.tolerances.flow_tol
    sigma2_set = cfg.sigma2_values or FLOW_BENCH_SIGMA2
    n_top = max(8, min(cfg.N, 1000))
    ladder = sorted({max(4, n_top // 4), max(4, n_top // 2), n_top})
    inits = [FlowInitialData(np.array(FLOW_BENCH_SIGMA1), s2) for s2 in sigma2_set]
    trace_init = FlowInitialData(np.array(FLOW_BENCH_SIGMA1), cfg.sigma2_0)

    # Every rung ends at the same C and D is linear in c, so one lattice's
    # pole screen holds for the whole ladder: the FlowSingularity a
    # curvature meets on it, else None.
    grid = lattice(FLOW_BENCH_C, n_top)

    def screen(init):
        try:
            checked_denominator(init.sigma2_0, grid)
        except FlowSingularity as exc:
            return exc
        return None

    screens = [screen(init) for init in inits]
    live = [k for k, err in enumerate(screens) if err is None]
    trace_error = screen(trace_init)

    # rung by rung, then the trace riding along on the top rung
    batch = [inits[k] for _ in ladder for k in live]
    steps = [n for n in ladder for _ in live]
    if trace_error is None:
        batch.append(trace_init)
        steps.append(n_top)
    nums = integrate_flow(batch, FLOW_BENCH_C, n_top, steps) if batch else []
    errs = [{} for _ in inits]
    samples = dict.fromkeys(ladder, 0.0)  # each rung's largest |exact sample| of a measured row
    trace = nums.pop() if trace_error is None else None
    for n in ladder if live else ():
        rung_errs, peaks = closed_form_errors([inits[k] for k in live], nums[:len(live)])
        del nums[:len(live)]  # each rung's results go once measured
        for k, err, peak in zip(live, rung_errs, peaks):
            # a row that left the float range (its exact samples are finite
            # off the pole) fails its own check with the first rung it left
            # it on; its finer rungs are ignored
            if screens[k] is None and not (math.isfinite(err[0]) and math.isfinite(err[1])):
                screens[k] = _overflow(inits[k], n)
            if screens[k] is None:
                errs[k][n] = max(err)
                samples[n] = max(samples[n], peak)

    checks, err_rows = [], []
    for k, s2 in enumerate(sigma2_set):
        err_rows.extend((s2, n, e) for n, e in errs[k].items())
        name = f"flow_accuracy[sigma2_0={s2:g}]"
        if screens[k] is not None:
            checks.append(failed_check(name, screens[k]))
        else:
            checks.append(threshold_check(name, errs[k][n_top], tol))

    worst = {n: max([0.0] + [e[n] for e in errs if n in e]) for n in ladder}
    below = ladder[-2]
    floor = ROUNDOFF_EPS * float(np.finfo(float).eps) * samples[below]
    if worst[n_top] == 0:
        # RK4 is exact on a flat flow, and a screened row has no error at
        # all: a zero error on the top rung leaves nothing to contract.
        exact_rows = sum(n_top in e for e in errs)
        unmeasured = NotMeasured(
            f"worst RK4 error on N={n_top} is 0: {exact_rows} curvature(s) integrated "
            f"exactly, {len(errs) - exact_rows} screened by the pole or the float range"
        )
        checks.append(failed_check("flow_step_halving_contraction", unmeasured))
    elif worst[below] < floor:
        # a ratio inside the window would put the top rung's error at a
        # couple of eps, where rounding, not the step, sets it
        unmeasured = NotMeasured(
            f"worst RK4 error on N={below} is {worst[below]!r}, under the roundoff floor "
            f"{floor!r} ({ROUNDOFF_EPS:g} eps times the largest exact sample {samples[below]!r})"
        )
        checks.append(failed_check("flow_step_halving_contraction", unmeasured))
    else:
        ratio = worst[below] / worst[n_top]
        checks.append(
            window_check(
                "flow_step_halving_contraction", ratio, CONTRACTION_LO, CONTRACTION_HI
            )
        )

    artifacts = {
        "flow_errors.csv": (("sigma2_0", "N", "max_abs_error"), err_rows),
    }
    if trace_error is None and not (
        np.isfinite(trace.sigma1).all() and np.isfinite(trace.sigma2).all()
    ):
        trace_error = _overflow(trace_init, n_top)
    if trace_error is not None:
        checks.append(failed_check(f"flow_trace[sigma2_0={cfg.sigma2_0:g}]", trace_error))
    else:
        exact = sample_closed_form(trace_init, trace.grid)
        rows = np.column_stack([flow_to_rows(trace), exact.sigma1, exact.sigma2])
        artifacts["flow.csv"] = (
            ("c", "sigma1_0", "sigma1_1", "sigma1_2", "sigma1_3", "sigma2",
             "exact_sigma1_0", "exact_sigma1_1", "exact_sigma1_2",
             "exact_sigma1_3", "exact_sigma2"),
            rows.tolist(),
        )

    return SuiteResult(checks, artifacts)


# --------------------------------------------------------------------------
# eigenvalue agreement and world-line independence


def _random_lambda_set(rng):
    """One random (init, a, b, m, C) with the flow regular on [0, C]."""
    c = rng.uniform(0.3, 1.2)
    while True:
        s2 = rng.uniform(-0.25, 1.2)
        if denominator(s2, c) >= 0.4:
            break
    s1 = rng.uniform(-1.0, 1.0, size=4)
    a = rng.uniform(-0.5, 0.5, size=4)
    delta = np.concatenate([[rng.uniform(1.0, 2.2)], rng.uniform(-0.4, 0.4, size=3)])
    m = rng.uniform(0.2, 1.8)
    return FlowInitialData(s1, s2), a, a + delta, m, c


def lambda_agreement_checks(cfg):
    """Closed form vs boundary form vs lattice over random parameter sets."""
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.n_lambda_sets):
        init, a, b, m, c = _random_lambda_set(rng)
        w = straight_line(a, b, c, cfg.N)
        flow = sample_closed_form(init, w.grid)
        values = np.array(
            [
                lambda_closed_form(init, a, b, m, c),
                lambda_boundary_form(flow, a, b, m).total,
                lambda_lattice(w, flow, m),
            ]
        )
        spread = (values.max() - values.min()) / max(1.0, np.abs(values).max())
        worst = max(worst, float(spread))
    return [
        threshold_check(
            "lambda_three_form_agreement",
            worst,
            cfg.tolerances.lambda_tol,
            detail=f"max relative spread over {cfg.n_lambda_sets} random parameter sets",
        )
    ]


def independence_spread(base, flow, m, displacements, modes):
    """Spread of the lattice eigenvalue over ``base`` and its displaced copies.

    Every copy's eigenvalue comes from the exact quadratic expansion of
    :func:`lambda_lattice` around ``base`` (see
    :func:`waveline.eigenvalue.lattice_expansion`), anchored at the base
    line's own lattice eigenvalue.  ``modes`` is ``interior_modes(base)``.
    """
    # sigma2 ~ 1e300 squares past the float range in the expansion's weights,
    # and m, C and amplitude ~ 1e200 carry the eigenvalues themselves past it
    context = f"lattice expansion at sigma2_0={float(flow.sigma2[0])!r}"
    with float_errors_as(NumericalOverflow, context):
        g, q = lattice_expansion(base, flow, modes)
        lam0 = lambda_lattice(base, flow, m)
        lams = np.append(lam0 + expansion_deltas(g, q, displacements), lam0)
    if not np.isfinite(lams).all():
        raise NumericalOverflow(f"{context}: an eigenvalue leaves the float range")
    return float(np.ptp(lams))


def _curved_sigma2(cfg):
    """The run's sigma2_0, or 0.5 when it is zero, and a detail note on the swap.

    A flat flow leaves the frozen control nothing to violate and collapses
    the logarithmic clock, so those measurements run on a curved one.
    """
    if abs(cfg.sigma2_0) > 1e-9:
        return cfg.sigma2_0, ""
    return 0.5, "sigma2_0=0 replaced by 0.5"


def _noted(detail, note):
    """``detail`` with ``note`` appended in brackets, or ``note`` alone."""
    return f"{detail} [{note}]" if detail and note else detail or note


def _displacements(cfg, count):
    """Displacement stack of the ``count`` seeds after ``cfg.seed``, at the run's amplitude."""
    seeds = range(cfg.seed + 1, cfg.seed + 1 + count)
    return seed_displacements(_amplitude(cfg), seeds, cfg.run_duration())


def _run_rungs(cfg):
    """``(line, modes)``: the run's straight line on ``n`` steps and its mode table.

    Each is built on first use and kept for the rest of one suite call, so
    the flowing ladder, the frozen control and the breakdown share them; a
    build that raised is tried again by its next user and raises the same.
    """

    @functools.cache
    def line(n):
        return straight_line(cfg.a, cfg.b, cfg.run_duration(), n)

    @functools.cache
    def modes(n):
        table = interior_modes(line(n))
        table.setflags(write=False)  # every user reads the one table
        return table

    return line, modes


def _independence_ladder(cfg, coefficients_for, displacements, rungs):
    """Spreads of the lattice eigenvalue over the N ladder, and their fitted order.

    ``coefficients_for(init, grid)`` supplies the coefficient samples, so the
    same machinery measures both the flowing (should be independent) and the
    frozen (negative control, must not be) cases.  ``rungs`` is
    :func:`_run_rungs`'s pair.  Returns ``(ns, spreads, order)``.
    """
    s2, _ = _curved_sigma2(cfg)
    c_run = cfg.run_duration()
    init = FlowInitialData(optimal_sigma1(s2, cfg.a, cfg.b, c_run), s2)
    ns = _n_ladder(cfg.N)
    if len(ns) < 2:  # N = 8: one lattice, and a line through one point has no slope
        raise NotMeasured(f"lattice ladder {ns} has one size; an order needs two")
    line, modes = rungs
    spreads = []
    for n in ns:
        base = line(n)
        flow = coefficients_for(init, base.grid)
        spreads.append(independence_spread(base, flow, cfg.m, displacements, modes(n)))
    if min(spreads) <= 0:
        # Perturbations that move nothing (zero amplitude) measure nothing;
        # an exactly zero spread is not evidence of independence.
        raise NotMeasured(f"perturbation spreads {spreads} include zero")
    slope = np.polyfit(np.log(ns), np.log(spreads), 1)[0]
    return ns, spreads, float(-slope)


def independence_checks(cfg, displacements, rungs):
    """Eigenvalue must stop caring about the interior as the lattice refines."""
    ns, spreads, order = _independence_ladder(cfg, sample_closed_form, displacements, rungs)
    check = floor_check(
        "lambda_worldline_independence_order",
        order,
        2.0,
        detail=_noted(
            "fitted convergence order of the perturbation spread", _curved_sigma2(cfg)[1]
        ),
    )
    return [check], {
        "lambda_spreads.csv": (("N", "perturbation_spread"), list(zip(ns, spreads)))
    }


def violation_control_checks(cfg, displacements, rungs):
    """Meta-check: the independence measurement must catch frozen coefficients."""
    ns, spreads, order = _independence_ladder(cfg, frozen_coefficients, displacements, rungs)
    floor = 10.0 * cfg.tolerances.lambda_tol
    detected = order < 1.0 and spreads[-1] > floor
    check = CheckResult(
        name="lambda_violation_detected",
        passed=bool(detected),
        value=spreads[-1],
        tolerance=floor,
        detail=_noted(
            f"frozen-coefficient spread must stay large (order {order:.2f})",
            _curved_sigma2(cfg)[1],
        ),
        margin=max(margin_ratio(floor, spreads[-1]), margin_ratio(order, 1.0)),
    )
    return [check], {
        "lambda_control_spreads.csv": (("N", "frozen_spread"), list(zip(ns, spreads)))
    }


def lambda_suite(cfg, with_control=False):
    checks = []
    artifacts = {}
    try:
        checks.extend(lambda_agreement_checks(cfg))
    except WavelineError as exc:
        checks.append(failed_check("lambda_three_form_agreement", exc))

    # Both independence measurements share one set of seed displacements,
    # and they and the breakdown share the run's line on each lattice size.
    # The control shows the flowing measurement can fail, which says nothing
    # when that measurement measured nothing: then the control is not run.
    rungs = _run_rungs(cfg)
    try:
        displacements = _displacements(cfg, cfg.n_perturbations)
        found, written = independence_checks(cfg, displacements, rungs)
    except WavelineError as exc:
        checks.append(failed_check("lambda_worldline_independence_order", exc))
        if with_control:
            unmeasured = NotMeasured(f"the flowing ladder measured nothing ({checks[-1].detail})")
            checks.append(failed_check("lambda_violation_detected", unmeasured))
    else:
        checks.extend(found)
        artifacts.update(written)
        if with_control:
            try:
                found, written = violation_control_checks(cfg, displacements, rungs)
                checks.extend(found)
                artifacts.update(written)
            except WavelineError as exc:
                checks.append(failed_check("lambda_violation_detected", exc))

    try:
        c_run = cfg.run_duration()
        init = FlowInitialData(cfg.run_sigma1_0(), cfg.sigma2_0)
        w = rungs[0](cfg.N)  # the ladder's rung of N steps
        flow = sample_closed_form(init, w.grid)
        breakdown = lambda_boundary_form(flow, cfg.a, cfg.b, cfg.m)
        payload = breakdown.as_dict()
        payload["closed_form"] = lambda_closed_form(init, cfg.a, cfg.b, cfg.m, c_run)
        payload["lattice"] = lambda_lattice(w, flow, cfg.m)
        artifacts["lambda_breakdown.json"] = payload
    except WavelineError as exc:
        checks.append(failed_check("lambda_breakdown", exc))
    return SuiteResult(checks, artifacts)


# --------------------------------------------------------------------------
# stationarity and the classical limit


def _degeneracy_grid(c_star):
    # Nine curvatures spanning decay to strong growth, scaled so that
    # D(C*) = 1 + x stays safely positive for every entry.
    xs = (-0.8, -0.4, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    return tuple(x / (2.0 * c_star) for x in xs)


def stationarity_suite(cfg):
    tol = cfg.tolerances.stationarity_tol
    checks = []
    artifacts = {}
    try:
        c_exact = optimal_C(cfg.a, cfg.b, cfg.m, branch=cfg.branch)
        # A stationary point past the pole is out of the search's reach; name
        # it here rather than let the search fail on a step near the pole.
        checked_denominator(cfg.sigma2_0, c_exact)
        scan_grid = _degeneracy_grid(c_exact)
        # m ~ 1e200 squares past the float range in the objective's mass term
        with float_errors_as(NumericalOverflow, f"stationary search for m={cfg.m!r}"):
            report = numeric_stationary_search(
                cfg.a,
                cfg.b,
                cfg.m,
                sigma2_0=cfg.sigma2_0,
                tol=tol,
                branch=cfg.branch,
                sigma2_scan=scan_grid,
            )
        action = classical_action(cfg.a, cfg.b, cfg.m, branch=cfg.branch)
        checks.append(
            threshold_check("stationary_duration", abs(report.C_star - c_exact), tol)
        )
        checks.append(
            threshold_check("stationary_eigenvalue", abs(report.lambda_star - action), tol)
        )
        lam0 = report.sigma2_scan[0][1]
        worst = max(abs(lam - lam0) for _, lam in report.sigma2_scan)
        checks.append(
            threshold_check(
                "curvature_degeneracy",
                worst,
                cfg.tolerances.degeneracy_tol,
                detail=f"eigenvalue drift across {len(scan_grid)} curvature values at C*",
            )
        )
        for branch in (1, -1):
            gap = abs(
                stationary_lambda(cfg.a, cfg.b, cfg.m, branch=branch)
                - classical_action(cfg.a, cfg.b, cfg.m, branch=branch)
            )
            checks.append(
                threshold_check(f"classical_limit_identity[branch={branch:+d}]", gap, 1e-12)
            )

        artifacts["stationarity_report.json"] = report.as_dict()
        artifacts["sigma2_scan.csv"] = (
            ("sigma2_0", "lambda"),
            [(s, l) for s, l in report.sigma2_scan],
        )
        sweep = []
        for branch in (1, -1):
            cs = np.linspace(0.3, 2.5, 100) * optimal_C(cfg.a, cfg.b, cfg.m, branch)
            lams = reduced_lambda(cs, cfg.a, cfg.b, cfg.m)
            sweep.extend(zip([branch] * cs.size, cs.tolist(), lams.tolist()))
        artifacts["sweep_lambda_vs_C.csv"] = (("branch", "C", "lambda"), sweep)
    except WavelineError as exc:
        checks.append(failed_check("stationary_search", exc))
    return SuiteResult(checks, artifacts)


# --------------------------------------------------------------------------
# operator oracle


def operator_suite(cfg):
    """Probe the action operator by brute finite differences at small N.

    The probe coefficients are fixed small numbers (geometry, mass, and
    hbar_tilde still come from the configuration): the point is to test the
    coefficient algebra, and that test is parameter-independent.
    """
    tol = cfg.tolerances.operator_tol
    checks = []
    try:
        w = straight_line(cfg.a, cfg.b, cfg.run_duration(), cfg.operator_N)
        probe = FlowInitialData(np.array(OPERATOR_SIGMA1), OPERATOR_SIGMA2)
        cases = (
            (
                "operator_exact_free",
                WaveParameters(FlowInitialData(np.zeros(4), 0.0), cfg.m, cfg.hbar_tilde),
                1e-15,
            ),
            ("operator_phase_only", WaveParameters(probe, cfg.m, cfg.hbar_tilde), tol),
            (
                "operator_phase_and_modulus",
                WaveParameters(
                    probe, cfg.m, cfg.hbar_tilde, r1_0=np.array(OPERATOR_R1), r2_0=OPERATOR_R2
                ),
                tol,
            ),
        )
        for name, params, case_tol in cases:
            predicted = predicted_action_eigenvalue(params, w)
            probed = apply_action_operator(params, w)
            rel = abs(probed - predicted) / max(1.0, abs(predicted))
            checks.append(
                threshold_check(name, rel, case_tol, detail="relative to the predicted value")
            )
        # The imaginary part of the probe must reproduce the reality
        # quadrature; the last (richest) case's values serve for it.
        rel = abs(probed.imag - predicted.imag) / max(1.0, abs(predicted.imag))
        checks.append(
            threshold_check("operator_imaginary_part", rel, tol,
                            detail="imaginary part vs -hbar_tilde * reality quadrature")
        )
    except WavelineError as exc:
        checks.append(failed_check("operator_oracle", exc))
    return SuiteResult(checks, {})


# --------------------------------------------------------------------------
# phase functional consistency


def phase_suite(cfg):
    tol = cfg.tolerances.phase_tol
    s2, note = _curved_sigma2(cfg)
    checks = []
    artifacts = {}
    try:
        c_run = cfg.run_duration()
        amp = _amplitude(cfg)
        base = straight_line(cfg.a, cfg.b, c_run, cfg.N)
        # the perturbed line is built for this one check and gone after it
        gap = consistency_gap(perturb_interior(base, amp, cfg.seed + 1), s2)
        checks.append(threshold_check("phase_two_clock_consistency", gap, tol, detail=note))

        # Every trajectory's difference comes from the exact quadratic
        # expansion around the base line, anchored at its direct value.
        anchor, g, q = phase_expansion(base, s2, interior_modes(base))
        diffs = anchor + expansion_deltas(g, q, _displacements(cfg, cfg.n_phase_perturbations))
        mean = float(diffs.mean())
        name = "phase_trajectory_independence"
        try:
            if np.ptp(diffs) == 0:
                # One trajectory, or perturbations that move nothing, measure
                # nothing; the std of equal values is only the mean's roundoff.
                raise NotMeasured(f"phase_q - phase_c has zero spread over {diffs.size} seed(s)")
            # differences near 1e200 (a far endpoint) square past the float range
            with float_errors_as(NumericalOverflow, f"spread of {diffs.size} phase differences"):
                rel_std = float(diffs.std()) / (1.0 + abs(mean))
        except WavelineError as err:
            checks.append(failed_check(name, err))
        else:
            detail = f"relative std of phase_q - phase_c over {diffs.size} trajectories"
            checks.append(threshold_check(name, rel_std, 1e-8, detail=_noted(detail, note)))

        geo = phase_geometry(s2, cfg.a, cfg.b, c_run)
        s1_opt = optimal_sigma1(s2, cfg.a, cfg.b, c_run)
        ident = float(np.abs(geo.x_tilde + s1_opt / s2).max())
        checks.append(threshold_check("phase_center_identity", ident, 1e-12, detail=note))

        artifacts["phase_report.json"] = {
            "sigma2_0": s2,
            "Q": geo.Q,
            "x_tilde": [float(v) for v in geo.x_tilde],
            "measured_mean_difference": mean,
            "predicted_offset": float(predicted_phase_offset(s2, cfg.a, cfg.b, c_run)),
        }
    except WavelineError as exc:
        checks.append(failed_check("phase_consistency", exc))
    return SuiteResult(checks, artifacts)


# --------------------------------------------------------------------------


def verify_suite(cfg):
    """Every check family, plus the negative-control meta-check."""
    return _merge(
        flow_suite(cfg),
        lambda_suite(cfg, with_control=True),
        stationarity_suite(cfg),
        operator_suite(cfg),
        phase_suite(cfg),
    )


SUITES = {
    "flow": flow_suite,
    "lambda": lambda_suite,
    "stationary": stationarity_suite,
    "phase": phase_suite,
    "verify": verify_suite,
}

# Every check name each suite can emit, * standing for a swept parameter.
# The last names of a suite appear only when a measurement raised.
CHECK_NAMES = {
    "flow": (
        "flow_accuracy[sigma2_0=*]",
        "flow_step_halving_contraction",
        "flow_trace[sigma2_0=*]",
    ),
    "lambda": (
        "lambda_three_form_agreement",
        "lambda_worldline_independence_order",
        "lambda_breakdown",
    ),
    "stationary": (
        "stationary_duration",
        "stationary_eigenvalue",
        "curvature_degeneracy",
        "classical_limit_identity[branch=+1]",
        "classical_limit_identity[branch=-1]",
        "stationary_search",
    ),
    "operator": (
        "operator_exact_free",
        "operator_phase_only",
        "operator_phase_and_modulus",
        "operator_imaginary_part",
        "operator_oracle",
    ),
    "phase": (
        "phase_two_clock_consistency",
        "phase_trajectory_independence",
        "phase_center_identity",
        "phase_consistency",
    ),
}
# verify runs every suite, the lambda one with its negative-control meta-check
CHECK_NAMES["verify"] = (
    CHECK_NAMES["flow"]
    + CHECK_NAMES["lambda"]
    + ("lambda_violation_detected",)
    + CHECK_NAMES["stationary"]
    + CHECK_NAMES["operator"]
    + CHECK_NAMES["phase"]
)
