"""Two coordinate systems for the phase, and the bridge between them.

The phase accumulated along a world line can be written either on the
invariant clock c with the flowing coefficients,

    phase_c = integral( sigma1(c).x + (1/2) sigma2(c) x.x ) dc,

or, after trading c for the logarithmic clock q = ln D(c) and completing
the square around the shifted center x_tilde, as the purely geometric

    phase_q = (1/4) integral( (x - x_tilde).(x - x_tilde) ) dq .

Because sigma1(c)/sigma2(c) is constant along the flow, the two differ by
the *trajectory-independent* constant (Q/4) x_tilde.x_tilde, where
Q = ln D(C) is the total logarithmic duration.  The consistency gap
measured here is the failure of that identity on a sampled world line; it
should vanish at second order in the lattice spacing for any trajectory.
"""

import numpy as np

from .eigenvalue import phase_gradient, trapezoid_weights
from .errors import BadGrid, DegenerateQ, NumericalOverflow, float_errors_as
from .minkowski import as_four_vector, dot
from .phase_flow import (
    FlowInitialData,
    checked_denominator,
    require_shared_grid,
    sample_closed_form,
)
from .stationarity import optimal_sigma1
from .values import Frozen, set_field

# |Q| below this leaves the rescaled clock with no room to tick.
Q_FLOOR = 1e-12


class PhaseGeometry(Frozen):
    """Logarithmic duration and shifted center for one coefficient choice."""

    __slots__ = ("Q", "x_tilde")

    def __init__(self, Q, x_tilde):
        set_field(self, "Q", Q)
        set_field(self, "x_tilde", x_tilde)


def log_duration(sigma2_0, C):
    """Q = ln(1 + 2 sigma2_0 C); requires the flow regular on [0, C]."""
    return float(np.log(checked_denominator(sigma2_0, C)))


def shift_point(a, b, Q):
    """Center x_tilde = -(b - e^Q a) / (e^Q - 1) of the rescaled-clock phase.

    This is where the stationary phase parks its quadratic: for the
    stationary sigma1_0 one has x_tilde = -sigma1_0 / sigma2_0 exactly.
    Q = 0 (no curvature) leaves the center undefined.
    """
    if abs(Q) < Q_FLOOR:
        raise DegenerateQ(f"|Q|={abs(Q):g} leaves the shifted center undefined")
    a = as_four_vector(a)
    b = as_four_vector(b)
    em1 = np.expm1(Q)
    return -(b - (em1 + 1.0) * a) / em1


def phase_geometry(sigma2_0, a, b, C):
    q = log_duration(sigma2_0, C)
    return PhaseGeometry(Q=q, x_tilde=shift_point(a, b, q))


def phase_eval_c(w, flow):
    """Invariant-clock phase quadrature for a sampled world line."""
    require_shared_grid(w.grid, flow.grid)
    x = w.points
    integrand = dot(flow.sigma1, x) + 0.5 * flow.sigma2 * dot(x, x)
    return float(np.trapezoid(integrand, w.grid))


def phase_eval_q(points, q_grid, x_tilde):
    """Rescaled-clock phase: (1/4) integral (x - x_tilde)^2 dq, signed in Q.

    ``points`` are the events resampled at the q nodes; a decreasing
    ``q_grid`` (sigma2_0 < 0, so Q < 0) yields the correctly signed value.
    """
    d = np.asarray(points, dtype=float) - as_four_vector(x_tilde)
    return float(np.trapezoid(0.25 * dot(d, d), np.asarray(q_grid, dtype=float)))


# Rows of the (1, 4, 1) elimination whose pivot still differs from its
# limit 2 + sqrt(3); the gap shrinks by (2 - sqrt(3))**2 ~ 0.07 a row.
_PIVOT_ROWS = 32
# Terms kept of each first-order recurrence: every factor is at most
# 1/(2 + sqrt(3)) ~ 0.268 in size, and 0.268**64 ~ 1e-37.
_SCAN_TERMS = 64


def _linear_recurrence(z, c):
    """y with y[:, j] = z[:, j] + c[j] y[:, j-1] along the last axis, c[0] = 0.

    Recursive doubling over every row of ``z`` at once, dropping the terms
    past the first ``_SCAN_TERMS``.
    """
    z = z.copy()
    c = c.copy()
    s = 1
    while s < min(z.shape[-1], _SCAN_TERMS):
        z[:, s:] += c[s:] * z[:, :-s]
        c[s:] *= c[:-s]
        s *= 2
    return z


def _solve_141(b):
    """x with x[:, j-1] + 4 x[:, j] + x[:, j+1] = b[:, j], zero outside 0..n-1."""
    n = b.shape[-1]
    # LU pivots d[j] = 4 - 1/d[j-1] from d[0] = 4; past the head they are the limit
    d = np.full(n, 2.0 + np.sqrt(3.0))
    pivot = 4.0
    for j in range(min(n, _PIVOT_ROWS)):
        d[j] = pivot
        pivot = 4.0 - 1.0 / pivot
    inv = 1.0 / d
    y = _linear_recurrence(b, np.append(0.0, -inv[:-1]))  # forward elimination
    x = _linear_recurrence((inv * y)[:, ::-1], np.append(0.0, -inv[-2::-1]))  # back substitution
    return x[:, ::-1]


def _not_a_knot_curvatures(y, h):
    """Second derivatives at the nodes of the not-a-knot cubic spline through ``y``.

    ``y`` is (k, N+1), one sampled column per row, on the uniform nodes
    i*h with N >= 2.  The continuity rows

        M[i-1] + 4 M[i] + M[i+1] = 6 (y[i+1] - 2 y[i] + y[i-1]) / h^2

    with the not-a-knot ends M[0] = 2 M[1] - M[2] and M[N] = 2 M[N-1] - M[N-2]
    (de Boor, A Practical Guide to Splines, ch. 4) turn rows 1 and N-1 into
    6 M = rhs, leaving a (1, 4, 1) system for M[2..N-2].  N = 2 gives the
    parabola through the three points, N = 3 the cubic through the four.
    """
    r = (6.0 / (h * h)) * (y[:, 2:] - 2.0 * y[:, 1:-1] + y[:, :-2])
    if y.shape[-1] == 3:
        return np.repeat(r / 6.0, 3, axis=-1)
    m = np.empty_like(y)
    m[:, 1] = r[:, 0] / 6.0
    m[:, -2] = r[:, -1] / 6.0
    b = r[:, 1:-1].copy()
    if b.size:
        b[:, 0] -= m[:, 1]
        b[:, -1] -= m[:, -2]
        m[:, 2:-2] = _solve_141(b)
    m[:, 0] = 2.0 * m[:, 1] - m[:, 2]
    m[:, -1] = 2.0 * m[:, -2] - m[:, -3]
    return m


def resample_on_log_clock(w, sigma2_0, values=None):
    """World-line events at uniform q nodes, via not-a-knot cubic spline in c.

    Returns (q_grid, points) on as many q nodes as the lattice has c nodes.
    The map c(q) = expm1(q) / (2 sigma2_0) sends [0, Q] onto [0, C]
    monotonically for either sign of sigma2_0.  Given ``values``, an
    (N+1, k) array of samples on the lattice of ``w``, those are resampled
    in place of ``w.points``.  The spline is linear in the samples, column
    by column.
    """
    q_total = log_duration(sigma2_0, w.C)
    if abs(q_total) < Q_FLOOR:
        raise DegenerateQ("sigma2_0 = 0 collapses the logarithmic clock")
    q_grid = np.linspace(0.0, q_total, w.N + 1)
    c_of_q = np.clip(np.expm1(q_grid) / (2.0 * float(sigma2_0)), 0.0, w.C)
    y = (w.points if values is None else np.asarray(values, dtype=float)).T
    if y.ndim != 2 or y.shape[1] != w.N + 1:
        raise BadGrid(f"samples of shape {y.T.shape} do not match N={w.N}")
    # h**2 leaves the float range on extreme lattice spacings (C ~ 1e200)
    with float_errors_as(BadGrid, f"cannot spline the world line over C={w.C!r}"):
        h = np.float64(w.dc)
        m = _not_a_knot_curvatures(y, h)
        i = np.minimum((c_of_q / h).astype(int), w.N - 1)
        # i*h is the lattice node bit for bit and within a factor 2 of c, so
        # c - i*h is exact and t keeps the digits c/h - i would lose to N
        t = (c_of_q - i * h) / h
        s = 1.0 - t
        bend = (h * h / 6.0) * s * t * ((1.0 + s) * m[:, i] + (1.0 + t) * m[:, i + 1])
        return q_grid, (s * y[:, i] + t * y[:, i + 1] - bend).T


def _stationary_setup(w, sigma2_0):
    """Flow samples with the stationary sigma1_0, and the phase geometry, for ``w``."""
    sigma1_0 = optimal_sigma1(sigma2_0, w.a, w.b, w.C)
    flow = sample_closed_form(FlowInitialData(sigma1_0, float(sigma2_0)), w.grid)
    return flow, phase_geometry(sigma2_0, w.a, w.b, w.C)


def _two_clock_difference(w, flow, geo, q_grid, pts_q):
    """phase_q - phase_c of ``w`` from its flow samples, geometry and log-clock events."""
    # x.x squares past the float range on a far-flung line (amplitude ~ 1e200)
    with float_errors_as(NumericalOverflow, f"phase difference over C={w.C!r}"):
        return phase_eval_q(pts_q, q_grid, geo.x_tilde) - phase_eval_c(w, flow)


def phase_difference(w, sigma2_0):
    """phase_q - phase_c for one world line, with the stationary sigma1_0.

    Across trajectories sharing endpoints this should be the constant
    (Q/4) x_tilde.x_tilde, up to quadrature error.
    """
    flow, geo = _stationary_setup(w, sigma2_0)
    q_grid, pts_q = resample_on_log_clock(w, sigma2_0)
    return _two_clock_difference(w, flow, geo, q_grid, pts_q)


def phase_expansion(base, sigma2_0, modes):
    """Exact quadratic expansion of :func:`phase_difference` in mode coefficients.

    Moving the nodes of ``base`` by ``modes @ coef``, where ``modes`` is
    (N+1, K) with zero endpoint rows and ``coef`` is (K, 4), changes the
    phase difference by exactly ``expansion_deltas(g, Q, coef)``, i.e.

        sum_mu eta_mu ( g[:, mu] . coef[:, mu] + coef[:, mu] . Q coef[:, mu] )

    with eta the metric diagonal.  This is an identity of the discrete
    functional: the cubic spline is linear in its samples, so the
    log-clock events are the resampled base plus the resampled mode
    columns times ``coef``, and both trapezoid rules are fixed weights.
    The endpoints, and with them sigma1_0 and x_tilde, do not move.
    Returns ``(anchor, g, Q)``: ``anchor`` is ``phase_difference(base,
    sigma2_0)`` bit for bit, from the splined base line already at hand,
    and ``g`` and ``Q`` have shapes (K, 4) and (K, K).
    """
    flow, geo = _stationary_setup(base, sigma2_0)
    q_grid, base_q = resample_on_log_clock(base, sigma2_0)
    # before the mode columns are splined, so its temporaries never coexist with theirs
    anchor = _two_clock_difference(base, flow, geo, q_grid, base_q)
    _, modes_q = resample_on_log_clock(base, sigma2_0, values=modes)
    wq = trapezoid_weights(q_grid)
    wc = trapezoid_weights(base.grid)
    sp = phase_gradient(flow, base.points)
    g = 0.5 * modes_q.T @ (wq[:, None] * (base_q - geo.x_tilde)) - modes.T @ (
        wc[:, None] * sp
    )
    q = 0.25 * modes_q.T @ (wq[:, None] * modes_q) - 0.5 * modes.T @ (
        (wc * flow.sigma2)[:, None] * modes
    )
    return anchor, g, q


def predicted_phase_offset(sigma2_0, a, b, C):
    """The trajectory-independent constant (Q/4) x_tilde.x_tilde."""
    geo = phase_geometry(sigma2_0, a, b, C)
    return 0.25 * geo.Q * dot(geo.x_tilde, geo.x_tilde)


def consistency_gap(w, sigma2_0):
    """|measured (phase_q - phase_c) - predicted offset| for one world line."""
    return abs(
        phase_difference(w, sigma2_0)
        - predicted_phase_offset(sigma2_0, w.a, w.b, w.C)
    )
