"""Action eigenvalue of the quadratic wave functional, three independent ways.

For the free particle the conjectured eigenfunctional is
Psi[x] = exp((i/hb) sigma + r) with quadratic integrands

    sigma[x] = integral( sigma1.x + (1/2) sigma2 x.x ) dc,
    r[x]     = integral( r1.x     + (1/2) r2     x.x ) dc,

all products Minkowski.  Applying the action operator (velocity term,
Laplacian term, and the m^2 c-integral) to Psi and dividing by Psi gives a
c-integral that is independent of the world line exactly when the
coefficients obey the flow of :mod:`waveline.phase_flow`.  This module
evaluates that eigenvalue

  * in closed form from the initial data,
  * from the boundary bracket left by integrating the velocity term by parts,
  * by direct quadrature on a sampled world line,

and backs all three with a brute-force oracle that finite-differences the
functional Psi on the lattice, node by node, without using any of the
algebra above.  Functional derivatives follow the lattice dictionary
delta/delta x(c_i) -> (1/dc) d/dx_i with delta(0) -> 1/dc.
"""

import numpy as np

from .errors import NumericalOverflow, NumericalUnderflow, ZeroDuration, float_errors_as
from .minkowski import METRIC_DIAG, as_four_vector, dot
from .phase_flow import (
    FlowInitialData,
    checked_denominator,
    require_shared_grid,
    sample_closed_form,
)
from .values import REQUIRED, Frozen, Record, set_field
from .worldline import velocities

# The operator probe's step in units of hbar_tilde, so that one step turns
# the phase (1/hbar_tilde) sigma by the same small angle at every quantum scale.
OPERATOR_STEP = 1e-4
# Wave-functional moduli below this are too flat to probe by differences.
MODULUS_FLOOR = 1e-300
# exp() of a real part above this overflows a double.
EXP_CEILING = float(np.log(np.finfo(float).max))


class WaveParameters(Frozen):
    """Everything defining one wave functional on a given world line."""

    __slots__ = ("flow_init", "m", "hbar_tilde", "r1_0", "r2_0")

    def __init__(self, flow_init, m, hbar_tilde=1.0, r1_0=(0.0, 0.0, 0.0, 0.0), r2_0=0.0):
        r1 = as_four_vector(r1_0)
        r1.setflags(write=False)
        if m < 0:
            raise ValueError("mass must be non-negative")
        if not (hbar_tilde > 0):
            raise ValueError("hbar_tilde must be positive")
        set_field(self, "flow_init", flow_init)
        set_field(self, "m", m)
        set_field(self, "hbar_tilde", hbar_tilde)
        set_field(self, "r1_0", r1)
        set_field(self, "r2_0", r2_0)


class LambdaBreakdown(Record):
    """Eigenvalue split into its boundary bracket, quadrature, and mass parts."""

    FIELDS = dict.fromkeys(("boundary", "quadrature", "mass"), REQUIRED)
    __slots__ = tuple(FIELDS)

    @property
    def total(self):
        return self.boundary + self.quadrature + self.mass

    def as_dict(self):
        return {**{name: getattr(self, name) for name in self.__slots__}, "total": self.total}


def lambda_closed_form(init, a, b, m, C):
    """Eigenvalue straight from the initial data, no quadrature at all.

    With D = 1 + 2 sigma2_0 C:

        lambda = sigma1_0 . (b/D - a) + (sigma2_0/2) (b.b/D - a.a)
                 - (sigma1_0 . sigma1_0) C / D + m^2 C.
    """
    if C == 0:
        raise ZeroDuration("eigenvalue needs a nonzero invariant duration")
    a = as_four_vector(a)
    b = as_four_vector(b)
    d = checked_denominator(init.sigma2_0, C)
    return (
        dot(init.sigma1_0, b / d - a)
        + 0.5 * init.sigma2_0 * (dot(b, b) / d - dot(a, a))
        - dot(init.sigma1_0, init.sigma1_0) * C / d
        + m * m * C
    )


def lambda_boundary_form(flow, a, b, m):
    """Eigenvalue from the boundary bracket plus the leftover quadrature.

    Integrating the velocity term by parts against the flow equations leaves

        [sigma1 . x + (1/2) sigma2 x.x] at C minus at 0
        - integral(sigma1 . sigma1) dc + m^2 C,

    where only the endpoint events a, b of the world line survive.
    """
    a = as_four_vector(a)
    b = as_four_vector(b)
    # sigma1 ~ 1/C squares past the float range on a tiny duration (C ~ 1e-300)
    with float_errors_as(NumericalOverflow, f"boundary form over C={flow.C!r}"):
        bracket = (
            dot(flow.sigma1[-1], b)
            + 0.5 * flow.sigma2[-1] * dot(b, b)
            - dot(flow.sigma1[0], a)
            - 0.5 * flow.sigma2[0] * dot(a, a)
        )
        quad = -float(np.trapezoid(dot(flow.sigma1, flow.sigma1), flow.grid))
    return LambdaBreakdown(boundary=float(bracket), quadrature=quad, mass=m * m * flow.C)


def phase_gradient(flow, x):
    """sigma1 + sigma2 x at each node of ``x``, the (N+1, 4) gradient of the phase."""
    out = flow.sigma2[:, None] * x
    out += flow.sigma1  # IEEE addition commutes: the sum is sigma1 + sigma2 x bit for bit
    return out


def lattice_integrand(w, flow, params=None):
    """Per-node integrand of (I Psi)/Psi predicted by the coefficient algebra.

    Returns two real (N+1,) arrays ``(lam, res)``, the node's integrand
    being lam - i hb res.  ``lam`` is xdot . sp - sp . sp with sp = sigma1
    + sigma2 x, plus, given WaveParameters, hb^2 [ rp . rp + 4 r2_0 delta(0) ]
    with rp = r1_0 + r2_0 x.  ``res``, whose quadrature must vanish for the
    eigenvalue to be real, is xdot . rp - 2 sp . rp - 4 sigma2 delta(0), or
    None without WaveParameters; delta(0) -> 1/dc on the lattice.  The two
    stay real, so each trapezoid sums in a real quadrature's order.
    Callers reduce them under float_errors_as: velocities ~ 1/dc overflow
    their products on a tiny lattice (C ~ 1e-300).
    """
    require_shared_grid(w.grid, flow.grid)
    x = w.points
    v = velocities(w)
    sp = phase_gradient(flow, x)
    lam = dot(v, sp)
    lam -= dot(sp, sp)  # in place: dot's result is fresh
    if params is None:
        return lam, None
    rp = params.r1_0 + params.r2_0 * x
    hb2 = params.hbar_tilde * params.hbar_tilde
    lam += hb2 * (dot(rp, rp) + 4.0 * params.r2_0 / w.dc)
    return lam, dot(v, rp) - 2.0 * dot(sp, rp) - 4.0 * flow.sigma2 / w.dc


def lambda_lattice(w, flow, m):
    """Eigenvalue by direct trapezoid quadrature on a sampled world line.

    Sums the real part of :func:`lattice_integrand`; the mass term is added
    analytically.  When the coefficients obey the flow this is independent
    of the interior of the world line up to the O(dc^2) quadrature error.
    """
    with float_errors_as(NumericalOverflow, f"lattice eigenvalue at dc={w.dc!r}"):
        lam, _ = lattice_integrand(w, flow)
        return float(np.trapezoid(lam, w.grid)) + m * m * w.C


def trapezoid_weights(grid):
    """Weights v with v @ y == np.trapezoid(y, grid) up to summation order."""
    half = 0.5 * np.diff(grid)
    weights = np.zeros(grid.size)
    weights[:-1] += half
    weights[1:] += half
    return weights


def lattice_expansion(w, flow, modes):
    """Exact quadratic expansion of :func:`lambda_lattice` in mode coefficients.

    Moving the nodes of ``w`` by ``modes @ coef``, where ``modes`` is
    (N+1, K) with zero endpoint rows and ``coef`` is (K, 4), changes the
    lattice eigenvalue by exactly

        sum_mu eta_mu ( g[:, mu] . coef[:, mu] + coef[:, mu] . Q coef[:, mu] )

    with eta the metric diagonal.  This is an identity of the discrete
    functional for any coefficient samples, flowing or not: the integrand is
    quadratic in the nodes, and the trapezoid weights, the velocity stencil
    and the metric are linear or diagonal.  Returns ``(g, Q)`` with shapes
    (K, 4) and (K, K), built in O(K^2 N).
    """
    require_shared_grid(w.grid, flow.grid)
    weights = trapezoid_weights(w.grid)
    s2 = flow.sigma2
    sp = phase_gradient(flow, w.points)
    dmodes = velocities(w, modes)
    ws2 = weights * s2
    g = dmodes.T @ (weights[:, None] * sp) + modes.T @ (
        ws2[:, None] * (velocities(w) - 2.0 * sp)
    )
    cross = dmodes.T @ (ws2[:, None] * modes)
    q = 0.5 * (cross + cross.T) - modes.T @ ((ws2 * s2)[:, None] * modes)
    return g, q


def expansion_deltas(g, q, coefs):
    """Eigenvalue changes for a (P, K, 4) stack of mode coefficients."""
    linear = np.einsum("pkm,km,m->p", coefs, g, METRIC_DIAG)
    quadratic = np.einsum("pkm,kl,plm,m->p", coefs, q, coefs, METRIC_DIAG)
    out = linear + quadratic
    # einsum raises no floating-point flag, so float_errors_as cannot see this
    if not np.isfinite(out).all():
        largest = float(np.abs(coefs).max())
        raise NumericalOverflow(
            f"expansion deltas leave the float range (largest coefficient {largest!r})"
        )
    return out


def predicted_action_eigenvalue(params, w):
    """(I Psi)/Psi predicted by the coefficient algebra: lambda_full - i hb R.

    R is the reality residual, the quadrature of :func:`lattice_integrand`'s
    ``res``.  Zero R means the modulus profile is compatible with the phase
    flow; the all-zero real part is *not* compatible unless sigma2
    vanishes, because of the delta(0) term.
    """
    flow = sample_closed_form(params.flow_init, w.grid)
    with float_errors_as(NumericalOverflow, f"lattice eigenvalue at dc={w.dc!r}"):
        lam, res = lattice_integrand(w, flow, params)
        lam = float(np.trapezoid(lam, w.grid)) + params.m * params.m * w.C
        res = float(np.trapezoid(res, w.grid))
    return complex(lam, -params.hbar_tilde * res)


def _cexpm1(z):
    """exp(z) - 1 for complex z without cancellation near z = 0.

    Splits into expm1(x) cos(y) - 2 sin^2(y/2) + i exp(x) sin(y); every term
    is O(z) small when z is, which is what keeps the second-difference
    (exp(dE+) + exp(dE-) - 2) accurate at step sizes around 1e-4.
    """
    x = np.real(z)
    if x > EXP_CEILING:
        raise NumericalOverflow(f"a probe step scales |Psi| by exp({x:.3g})")
    y = np.imag(z)
    s = np.sin(0.5 * y)
    return np.expm1(x) * np.cos(y) - 2.0 * s * s + 1j * np.exp(x) * np.sin(y)


def apply_action_operator(params, w):
    """Brute-force (I Psi)/Psi on the lattice, by finite differences.

    Treats the wave functional as a plain function of the 4(N+1) node
    coordinates and assembles the operator's c-integral by trapezoid rule
    from per-node integrands:

      * the first and second functional derivatives at interior nodes are
        probed by central differences in that node's four coordinates
        (scaled by the lattice dictionary's 1/dc per derivative), using
        exp(E + dE)/exp(E) = 1 + cexpm1(dE) with dE computed exactly from
        the node's own quadrature contribution;
      * endpoint nodes are pinned (the world line's ends are data, not
        variables), so a derivative probe cannot reach them: rows 0 and N
        are read from :func:`lattice_integrand` as lam - i hb res, the
        only rows taken from the algebra under test.  Everything the
        conjecture is actually tested on lives at the interior nodes.

    Each coordinate steps by h = OPERATOR_STEP * hbar_tilde.  Raises
    NumericalUnderflow when h squares below the smallest normal double (the
    second difference divides by h**2) or the functional's modulus is too
    small to difference meaningfully, and NumericalOverflow when one probe
    step scales it past the float range (a huge lattice spacing) or the
    1/dc**2 of the second difference does (a tiny one).
    """
    hb = params.hbar_tilde
    h = OPERATOR_STEP * hb
    if h * h < np.finfo(float).tiny:
        raise NumericalUnderflow(
            f"operator probe step h={h!r} at hbar_tilde={hb!r} squares below "
            "the smallest normal double"
        )
    flow = sample_closed_form(params.flow_init, w.grid)
    x = w.points
    v = velocities(w)
    dc = w.dc
    s1, s2 = flow.sigma1, flow.sigma2
    r1, r2 = params.r1_0, params.r2_0

    # Modulus exponent of Psi at the base point; differences divide by Psi.
    r_exponent = float(np.trapezoid(dot(r1, x) + 0.5 * r2 * dot(x, x), w.grid))
    if r_exponent < np.log(MODULUS_FLOOR):
        raise NumericalUnderflow(
            f"|Psi| ~ exp({r_exponent:.1f}) is below {MODULUS_FLOOR:g}"
        )

    def exponent_delta(i, mu, step):
        # Exact change of the exponent when x[i, mu] moves by `step`.  Only
        # node i's term of the quadrature sum changes, with trapezoid
        # weight 1 at the interior nodes this is called for.
        sgn = METRIC_DIAG[mu]
        df = sgn * step * (s1[i, mu] + s2[i] * (x[i, mu] + 0.5 * step))
        dg = sgn * step * (r1[mu] + r2 * (x[i, mu] + 0.5 * step))
        return dc * ((1j / hb) * df + dg)

    # 1/dc**2 leaves the float range on a tiny lattice (C ~ 1e-300)
    with float_errors_as(NumericalOverflow, f"operator probe at dc={dc!r}"):
        integrand = np.empty(w.N + 1, dtype=complex)
        for i in range(1, w.N):
            d1 = np.empty(4, dtype=complex)
            d2 = np.empty(4, dtype=complex)
            for mu in range(4):
                plus = _cexpm1(exponent_delta(i, mu, +h))
                minus = _cexpm1(exponent_delta(i, mu, -h))
                d1[mu] = (plus - minus) / (2.0 * h) / dc
                d2[mu] = (plus + minus) / (h * h) / (dc * dc)
            integrand[i] = (
                (hb / 1j) * np.sum(v[i] * d1)
                + hb * hb * np.sum(METRIC_DIAG * d2)
            )
        lam, res = lattice_integrand(w, flow, params)
        for i in (0, w.N):
            integrand[i] = complex(lam[i], -hb * res[i])

        # Mass term added analytically so the free functional is handled exactly.
        return complex(np.trapezoid(integrand, w.grid)) + params.m * params.m * w.C
