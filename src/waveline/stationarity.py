"""Stationary points of the eigenvalue over initial data and duration.

The eigenvalue lambda(sigma1_0, sigma2_0, C; a, b, m) from
:func:`waveline.eigenvalue.lambda_closed_form` is stationary, not extremal:
varying sigma1_0 at fixed C gives a saddle in general, and sigma2_0 is a
flat direction (every sigma2_0 with D(C) > 0 reaches the same stationary
value once sigma1_0 is re-solved).  The honest numerical treatment is
therefore root-finding on the gradient, and that is what
:func:`numeric_stationary_search` does: damped Newton on a finite-difference
gradient/Hessian in the five coordinates (sigma1_0, C) at fixed sigma2_0.

At the stationary point the eigenvalue reproduces the classical extremal
action +/- m sqrt((b-a).(b-a)) for timelike endpoint pairs, which is the
solver's main physics check.
"""

import numpy as np

from .errors import NoConvergence, NumericalOverflow, ZeroDuration, float_errors_as
from .eigenvalue import lambda_closed_form
from .minkowski import as_four_vector, timelike_interval_squared
from .phase_flow import DENOMINATOR_FLOOR, FlowInitialData, checked_denominator, denominator
from .values import REQUIRED, Record

GRAD_STEP = 1e-6  # relative finite-difference step for gradients
HESS_STEP = 1e-4  # relative finite-difference step for Hessians
MAX_ITER = 60
MAX_BACKTRACK = 30


class NewtonStep(Record):
    """One Newton iteration: its starting gradient norm, its step's norm, and
    how many times the step was halved to stay admissible."""

    FIELDS = dict.fromkeys(("gradient_norm", "step_norm", "backtracks"), REQUIRED)
    __slots__ = tuple(FIELDS)


class StationarityReport(Record):
    """Outcome of one stationary search plus the flat-direction scan."""

    FIELDS = {
        **dict.fromkeys(("sigma1_star", "C_star", "branch", "lambda_star", "gradient_norm",
                         "iterations", "converged"), REQUIRED),
        "sigma2_scan": (),
        "newton_trace": (),
    }
    __slots__ = tuple(FIELDS)

    def as_dict(self):
        d = {name: getattr(self, name) for name in self.__slots__}
        d["sigma1_star"] = list(self.sigma1_star)
        d["sigma2_scan"] = [list(pair) for pair in self.sigma2_scan]
        d["newton_trace"] = [
            {name: getattr(step, name) for name in step.__slots__} for step in self.newton_trace
        ]
        return d


def optimal_sigma1(sigma2_0, a, b, C):
    """The sigma1_0 that makes lambda stationary at fixed sigma2_0 and C.

    Solving d lambda / d sigma1_0 = 0 gives (b - a D) / (2 C) with
    D = 1 + 2 sigma2_0 C.  An infinite D raises no floating-point flag
    where every component of a is nonzero, so the result is tested too.
    """
    a = as_four_vector(a)
    b = as_four_vector(b)
    d = checked_denominator(sigma2_0, C)
    context = f"stationary sigma1_0 over C={C!r}"
    with float_errors_as(NumericalOverflow, context):
        s1 = (b - a * d) / (2.0 * C)
    if not np.isfinite(s1).all():
        raise NumericalOverflow(f"{context}: D={d!r} carries a component past the float range")
    return s1


def reduced_lambda(C, a, b, m):
    """lambda with sigma1_0 already re-solved: (b-a).(b-a)/(4C) + m^2 C.

    The sigma2_0 dependence cancels exactly in this substitution, which is
    the flat direction the scan in the report is checking.  ``C`` is one
    duration or an array of them; an array gives each entry's value, bit
    for bit as one call per entry would, and the endpoints are checked once.
    The interval is quartered, not C quadrupled: past C = DBL_MAX / 4, 4 C
    is an unflagged inf that would zero the first term.
    """
    if np.any(C == 0):
        raise ZeroDuration("reduced eigenvalue needs C != 0")
    return timelike_interval_squared(a, b) / 4.0 / C + m * m * C


def optimal_C(a, b, m, branch=1):
    """Stationary invariant duration: branch * sqrt((b-a).(b-a)) / (2 m).

    The numerator is halved, not the mass doubled: past m = DBL_MAX / 2,
    2 m is an unflagged inf that would make the duration 0.
    """
    ds2 = timelike_interval_squared(a, b)
    with float_errors_as(NumericalOverflow, f"stationary duration for m={m!r}"):
        return branch * np.sqrt(ds2) * 0.5 / m


def stationary_lambda(a, b, m, branch=1):
    """Eigenvalue at the stationary point; equals the classical action."""
    c_star = optimal_C(a, b, m, branch=branch)
    return reduced_lambda(c_star, a, b, m)


def _fd_gradient(f, z):
    """Central differences of ``f`` at ``z``, the 2n-point stencil in one call of ``f``.

    ``f`` takes a stack of points.  Rows 2k and 2k + 1 of the stencil step
    coordinate k up and down, and each difference keeps the bits of one
    call per point.
    """
    h = GRAD_STEP * (1.0 + np.abs(z))
    k = np.arange(z.size)
    points = np.repeat(z[None], 2 * z.size, axis=0)
    points[2 * k, k] += h
    points[2 * k + 1, k] -= h
    values = f(points)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def _fd_hessian(f, z):
    """Central second differences of ``f`` at ``z``, the whole stencil in one call of ``f``.

    The stencil is z, then for each i in turn z stepped by +h_i and -h_i,
    then for each j > i by h_i + h_j, h_i - h_j, h_j - h_i and -h_i - h_j:
    the order of one call per point, whose bits every entry keeps, since
    z - h is z + (-h) and z + 0 is z (a -0.0 turns +0.0, which the
    closed form's values do not read).
    """
    n = z.size
    hs = HESS_STEP * (1.0 + np.abs(z))
    e = np.diag(hs)
    moves = [np.zeros(n)]
    for i in range(n):
        moves += [e[i], -e[i]]
        for j in range(i + 1, n):
            moves += [e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j]]
    values = iter(f(z + np.array(moves)))
    f0 = next(values)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (next(values) - 2.0 * f0 + next(values)) / hs[i] ** 2
        for j in range(i + 1, n):
            pp, pm, mp, mm = next(values), next(values), next(values), next(values)
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hs[i] * hs[j])
    return hess


def numeric_stationary_search(
    a,
    b,
    m,
    sigma2_0=0.0,
    tol=1e-9,
    branch=1,
    sigma2_scan=(),
):
    """Find the stationary (sigma1_0, C) by damped Newton on the gradient.

    The five search coordinates are the components of sigma1_0 and C, at
    fixed sigma2_0 (the flat direction is excluded from the search and
    checked separately through ``sigma2_scan``).  Steps are halved until the
    candidate keeps branch * C > 0 and D(C) above DENOMINATOR_FLOOR, up to
    MAX_BACKTRACK times.  Once the gradient norm reaches ``tol`` the search
    takes one more Newton step and stops; running past MAX_ITER steps
    without reaching it raises NoConvergence.  The report's ``newton_trace``
    holds one :class:`NewtonStep` per step taken.  The endpoints are taken
    as strictly timelike, ``m`` as positive and ``branch`` as +1 or -1, as
    :func:`optimal_C` and ``RunConfig.validate`` ensure; none is tested here.

    ``sigma2_scan`` values are evaluated *analytically* around the found
    point: for each value the stationary sigma1_0 is re-solved at C_star and
    the closed-form eigenvalue recorded, exposing the degeneracy.
    """
    a = as_four_vector(a)
    b = as_four_vector(b)
    sigma2_0 = float(sigma2_0)
    # Start at half the time separation.  The start must keep D(C) above the
    # floor; when the pole sits on this branch's side, start three quarters
    # of the way toward it.
    c0 = branch * float(0.5 * abs(b[0] - a[0]))
    if denominator(sigma2_0, c0) <= DENOMINATOR_FLOOR:
        c0 = branch * 0.75 * abs(0.5 / sigma2_0)

    def objective(z):
        # one point (5,) or a stack (P, 5) of them, as lambda_closed_form takes
        init = FlowInitialData(sigma1_0=z[..., :4], sigma2_0=sigma2_0)
        return lambda_closed_form(init, a, b, m, z[..., 4])

    def admissible(z):
        c = z[4]
        return branch * c > 0 and denominator(sigma2_0, c) > DENOMINATOR_FLOOR

    # Warm-start sigma1_0 at its conditional stationary point for the
    # starting C.  Starting from sigma1_0 = 0 instead leaves the Hessian
    # exactly singular when sigma2_0 = 0 (lambda is linear in C there).
    z = np.concatenate([optimal_sigma1(sigma2_0, a, b, c0), [c0]])

    grad = _fd_gradient(objective, z)
    trace = []
    final = False
    while not final:
        gradient_norm = np.linalg.norm(grad)
        # Passing the gradient test leaves C off C* by about the gradient over
        # d2 lambda/dC2, more than tol where that curvature is small (m << 1);
        # one more Newton step takes the error to second order.
        final = gradient_norm <= tol
        if not final and len(trace) >= MAX_ITER:
            raise NoConvergence(
                f"gradient norm {gradient_norm:.3e} after {MAX_ITER} iterations"
            )
        hess = _fd_hessian(objective, z)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Hessian: {exc}") from exc
        for backtracks in range(MAX_BACKTRACK):
            if admissible(z + step):
                break
            step = 0.5 * step
        else:
            raise NoConvergence("step kept leaving the admissible region")
        z = z + step
        grad = _fd_gradient(objective, z)
        trace.append(NewtonStep(float(gradient_norm), float(np.linalg.norm(step)), backtracks))

    c_star = float(z[4])
    scan = []
    for s2 in sigma2_scan:
        s1 = optimal_sigma1(s2, a, b, c_star)
        lam = lambda_closed_form(FlowInitialData(s1, float(s2)), a, b, m, c_star)
        scan.append((float(s2), float(lam)))

    return StationarityReport(
        sigma1_star=z[:4].copy(),
        C_star=c_star,
        branch=branch,
        lambda_star=float(objective(z)),
        gradient_norm=float(np.linalg.norm(grad)),
        iterations=len(trace),
        converged=True,
        sigma2_scan=tuple(scan),
        newton_trace=tuple(trace),
    )
