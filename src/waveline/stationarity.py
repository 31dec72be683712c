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

from .errors import NoConvergence, NumericalOverflow, ZeroDuration, ZeroMass, float_errors_as
from .eigenvalue import lambda_closed_form
from .minkowski import as_four_vector, timelike_interval_squared
from .phase_flow import DENOMINATOR_FLOOR, FlowInitialData, checked_denominator, denominator
from .values import REQUIRED, Record

GRAD_STEP = 1e-6  # relative finite-difference step for gradients
HESS_STEP = 1e-4  # relative finite-difference step for Hessians
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
    D = 1 + 2 sigma2_0 C.
    """
    if C == 0:
        raise ZeroDuration("stationary sigma1_0 needs C != 0")
    a = as_four_vector(a)
    b = as_four_vector(b)
    d = checked_denominator(sigma2_0, C)
    with float_errors_as(NumericalOverflow, f"stationary sigma1_0 over C={C!r}"):
        return (b - a * d) / (2.0 * C)


def reduced_lambda(C, a, b, m):
    """lambda with sigma1_0 already re-solved: (b-a).(b-a)/(4C) + m^2 C.

    The sigma2_0 dependence cancels exactly in this substitution, which is
    the flat direction the scan in the report is checking.  ``C`` is one
    duration or an array of them; an array gives each entry's value, bit
    for bit as one call per entry would, and the endpoints are checked once.
    """
    if np.any(C == 0):
        raise ZeroDuration("reduced eigenvalue needs C != 0")
    return timelike_interval_squared(a, b) / (4.0 * C) + m * m * C


def optimal_C(a, b, m, branch=1):
    """Stationary invariant duration: branch * sqrt((b-a).(b-a)) / (2 m)."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if m <= 0:
        raise ZeroMass("stationary duration needs m > 0")
    ds2 = timelike_interval_squared(a, b)
    with float_errors_as(NumericalOverflow, f"stationary duration for m={m!r}"):
        return branch * np.sqrt(ds2) / (2.0 * m)


def stationary_lambda(a, b, m, branch=1):
    """Eigenvalue at the stationary point; equals the classical action."""
    c_star = optimal_C(a, b, m, branch=branch)
    return reduced_lambda(c_star, a, b, m)


def _fd_gradient(f, z):
    g = np.empty(z.size)
    for k in range(z.size):
        h = GRAD_STEP * (1.0 + abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        g[k] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def _fd_hessian(f, z):
    n = z.size
    hs = HESS_STEP * (1.0 + np.abs(z))
    hess = np.empty((n, n))
    f0 = f(z)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                zp, zm = z.copy(), z.copy()
                zp[i] += hs[i]
                zm[i] -= hs[i]
                hess[i, i] = (f(zp) - 2.0 * f0 + f(zm)) / hs[i] ** 2
            else:
                zpp, zpm, zmp, zmm = z.copy(), z.copy(), z.copy(), z.copy()
                zpp[[i, j]] += [hs[i], hs[j]]
                zpm[i] += hs[i]
                zpm[j] -= hs[j]
                zmp[i] -= hs[i]
                zmp[j] += hs[j]
                zmm[[i, j]] -= [hs[i], hs[j]]
                hess[i, j] = hess[j, i] = (
                    f(zpp) - f(zpm) - f(zmp) + f(zmm)
                ) / (4.0 * hs[i] * hs[j])
    return hess


def numeric_stationary_search(
    a,
    b,
    m,
    sigma2_0=0.0,
    guess_C=None,
    tol=1e-9,
    branch=1,
    max_iter=60,
    sigma2_scan=(),
):
    """Find the stationary (sigma1_0, C) by damped Newton on the gradient.

    The five search coordinates are the components of sigma1_0 and C, at
    fixed sigma2_0 (the flat direction is excluded from the search and
    checked separately through ``sigma2_scan``).  Steps are halved until the
    candidate keeps branch * C > 0 and D(C) above DENOMINATOR_FLOOR, up to
    MAX_BACKTRACK times.  Once the gradient norm reaches ``tol`` the search
    takes one more Newton step and stops; running past ``max_iter`` steps
    without reaching it raises NoConvergence.  The report's ``newton_trace``
    holds one :class:`NewtonStep` per step taken.

    ``sigma2_scan`` values are evaluated *analytically* around the found
    point: for each value the stationary sigma1_0 is re-solved at C_star and
    the closed-form eigenvalue recorded, exposing the degeneracy.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if m <= 0:
        raise ZeroMass("stationary search needs m > 0")
    a = as_four_vector(a)
    b = as_four_vector(b)
    timelike_interval_squared(a, b)  # fail early on bad endpoint pairs
    sigma2_0 = float(sigma2_0)
    if guess_C is None:
        guess_C = 0.5 * abs(b[0] - a[0])
        # The heuristic guess must keep D(C) above the floor; when the pole
        # sits on this branch's side, start three quarters of the way toward it.
        if denominator(sigma2_0, branch * guess_C) <= DENOMINATOR_FLOOR:
            guess_C = 0.75 * abs(0.5 / sigma2_0)
    if not (guess_C > 0) or not np.isfinite(guess_C):
        raise ZeroDuration(f"guess_C must be positive and finite, got {guess_C!r}")

    def objective(z):
        init = FlowInitialData(sigma1_0=z[:4], sigma2_0=sigma2_0)
        return lambda_closed_form(init, a, b, m, z[4])

    def admissible(z):
        c = z[4]
        return branch * c > 0 and denominator(sigma2_0, c) > DENOMINATOR_FLOOR

    c0 = branch * float(guess_C)
    # Warm-start sigma1_0 at its conditional stationary point for the
    # guessed C, which also refuses a guess at or past the pole.  Starting
    # from sigma1_0 = 0 instead leaves the Hessian exactly singular when
    # sigma2_0 = 0 (lambda is linear in C there).
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
        if not final and len(trace) >= max_iter:
            raise NoConvergence(
                f"gradient norm {gradient_norm:.3e} after {max_iter} iterations"
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
