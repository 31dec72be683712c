"""Evolution of the quadratic phase coefficients along the world line.

The phase functional is quadratic in the event coordinates with a vector
coefficient sigma1(c) and a scalar curvature sigma2(c).  Consistency of
the eigenvalue problem forces the autonomous system

    d(sigma1)/dc = -2 sigma2 sigma1,      d(sigma2)/dc = -2 sigma2**2,

whose exact solution divides the initial data by D(c) = 1 + 2 sigma2_0 c.
For sigma2_0 < 0 the flow blows up at c* = -1 / (2 sigma2_0); everything
here refuses to step onto or past that pole.

Both the closed form and a fixed-step RK4 integrator are provided; their
agreement (and the RK4 error contracting like h^4) is one of the levers
the verification suite pulls.
"""

import math

import numpy as np

from .errors import BadGrid, FlowSingularity, GridMismatch
from .minkowski import as_four_vector
from .values import Frozen, set_field
from .worldline import lattice

# D(c) at or below this is treated as on top of the pole.
DENOMINATOR_FLOOR = 1e-12


class FlowInitialData(Frozen):
    """Coefficients at c = 0: a four-vector sigma1_0 and a scalar sigma2_0."""

    __slots__ = ("sigma1_0", "sigma2_0")

    def __init__(self, sigma1_0, sigma2_0):
        v = as_four_vector(sigma1_0)
        v.setflags(write=False)
        s2 = float(sigma2_0)
        if not np.isfinite(s2):
            raise ValueError("sigma2_0 must be finite")
        set_field(self, "sigma1_0", v)
        set_field(self, "sigma2_0", s2)


class FlowCoefficients(Frozen):
    """Coefficients sampled on a grid: sigma1 is (M, 4), column-major, and sigma2 is (M,)."""

    __slots__ = ("grid", "sigma1", "sigma2")

    def __init__(self, grid, sigma1, sigma2):
        g = np.asarray(grid, dtype=float)
        s1 = np.asarray(sigma1, dtype=float, order="F")
        s2 = np.asarray(sigma2, dtype=float, order="F")
        if g.ndim != 1 or g.size < 2:
            raise BadGrid(f"flow grid must be 1-d with >= 2 samples, got shape {g.shape}")
        if s1.shape != (g.size, 4) or s2.shape != (g.size,):
            raise BadGrid("coefficient arrays do not match the grid")
        for name, arr in (("grid", g), ("sigma1", s1), ("sigma2", s2)):
            arr.setflags(write=False)
            set_field(self, name, arr)

    @property
    def C(self):
        return float(self.grid[-1])


def require_shared_grid(g1, g2):
    """Raise GridMismatch unless the two lattices are identical.

    Nodes may differ by 1e-12 of the lattice's extent, capped at 1e-12, so
    a tiny lattice (C ~ 1e-300) is not matched to every other one.
    """
    if g1 is g2:  # one lattice object, as when flow samples come from w.grid
        return
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    atol = 1e-12 * min(1.0, float(np.abs(g1).max(initial=0.0)))
    if g1.shape != g2.shape or not np.allclose(g1, g2, rtol=0.0, atol=atol):
        raise GridMismatch("objects are sampled on different lattices")


def denominator(sigma2_0, c):
    """D(c) = 1 + 2 sigma2_0 c, the single scale factor of the exact flow.

    ``sigma2_0`` and ``c`` broadcast: a column of curvatures against a
    lattice gives every curvature's D in one pass.  Past |sigma2_0| =
    DBL_MAX / 2 the factor 2 sigma2_0 is infinite, and infinity times c = 0
    is NaN; there D is formed as 1 + 2 (sigma2_0 c), so D(0) is exactly 1
    and a D past the float range is an infinity of its sign, without a
    warning.  So is D wherever 2 sigma2_0 c leaves the range (sigma2_0 ~
    1e300 at c ~ 1e200): the product of the largest |2 sigma2_0| and |c|,
    taken in Python floats, which round alike and never warn, tells in
    advance.  Both forms give the same bits wherever the first is finite.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(sigma2_0, dtype=float)
    if math.isfinite(2.0 * _reach(s) * _reach(c)):
        return 1.0 + (2.0 * s) * c
    with np.errstate(over="ignore"):
        return 1.0 + 2.0 * (s * c)


def _reach(x):
    """The largest |x| as a Python float."""
    return abs(float(x)) if x.ndim == 0 else float(np.abs(x).max(initial=0.0))


def checked_denominator(sigma2_0, c):
    """D at one c (a float) or at every node of an array c, refusing the pole.

    D is linear with D(0) = 1, so a D at or below the floor puts the pole
    c* = -1 / (2 sigma2_0) between 0 and that node (on either side of 0);
    the first such node raises FlowSingularity with c*.
    """
    d = denominator(sigma2_0, c)
    below = d <= DENOMINATOR_FLOOR
    if below.any():
        k = np.argmax(below)  # flat index of the first node at or under the floor
        node, dk = float(np.ravel(c)[k]), float(np.ravel(d)[k])
        c_star = float(-0.5 / sigma2_0)  # -1 / (2 sigma2_0), whose 2 sigma2_0 may overflow
        raise FlowSingularity(
            f"flow is singular at c={node!r} (D={dk!r}, pole at c*={c_star!r})", c_star=c_star
        )
    return float(d) if d.ndim == 0 else d


def sample_closed_form(init, grid):
    """Exact flow on a whole grid as FlowCoefficients."""
    grid = np.asarray(grid, dtype=float)
    d = checked_denominator(init.sigma2_0, grid)
    return FlowCoefficients(
        grid=grid,
        sigma1=(init.sigma1_0[:, None] / d).T,
        sigma2=init.sigma2_0 / d,
    )


def closed_form_errors(inits, flows):
    """Each flow's largest |flow - exact| of sigma1 and of sigma2, and its largest |exact sample|.

    ``flows[k]`` runs from ``inits[k]``, and all share one grid.  One closed
    form serves them all: every curvature's D on the grid in one (K, M)
    ``denominator`` call; each row's exact samples are divided out of its D
    and overwritten in place by the errors, with the bits of
    ``sample_closed_form``.  |exact| peaks where D is smallest, at the
    row's largest |datum|.  Off the pole the exact samples are finite, so a
    non-finite error marks a flow that left the float range.
    """
    grid = flows[0].grid
    s1 = np.array([init.sigma1_0 for init in inits])
    s2 = np.array([init.sigma2_0 for init in inits])[:, None]
    d = denominator(s2, grid)
    peaks = np.maximum(np.abs(s1).max(axis=1), np.abs(s2[:, 0])) / d.min(axis=1)
    e1 = np.empty((4, grid.size))
    errs = []
    for dj, s1j, s2j, flow in zip(d, s1, s2, flows):
        require_shared_grid(flow.grid, grid)
        np.abs(np.subtract(flow.sigma1.T, np.divide(s1j[:, None], dj, e1), e1), e1)
        e2 = np.abs(np.subtract(flow.sigma2, np.divide(s2j, dj, dj), dj), dj)
        errs.append((float(e1.max()), float(e2.max())))
    return errs, peaks.tolist()


def frozen_coefficients(init, grid):
    """Constant-in-c coefficients (a deliberate violation of the flow).

    Useful as a negative control: for sigma2_0 != 0 these do not satisfy
    the evolution equations, so eigenvalue quadratures built on them must
    depend on the world line.
    """
    grid = np.asarray(grid, dtype=float)
    return FlowCoefficients(
        grid=grid,
        sigma1=np.broadcast_to(init.sigma1_0, (grid.size, 4)),
        sigma2=np.full(grid.size, init.sigma2_0),
    )


def batched_rhs(y, out):
    """sigma2 times each row of a (5, K) state of columns (sigma1, sigma2), into ``out``.

    The system's right-hand side is -2 times this; the -2 rides in the step
    weights of ``rk4_weights``.
    """
    np.multiply(y[4], y, out)


def rk4_weights(h):
    """The weights ``(h, half, sixth)`` of ``_rk4_stepper`` for a step ``h``, carrying the -2.

    The textbook step scales k = -2 sigma2 y by h/2, h and h/6; with k
    taken as sigma2 y the factors are -h, -2h and h/-3 (= -2 (h/6), since
    h/3 rounds to twice h/6).  A power of two commutes with rounding, so
    each product, each sum of k's and each step keeps the textbook bits
    while no stage over- or underflows.
    """
    return -2.0 * h, -h, h / -3.0


def _rk4_stepper(h, half, sixth, shape):
    """``step(y, out)``: one RK4 step of ``batched_rhs`` on a ``shape`` state.

    ``h``, ``half`` and ``sixth`` are ``rk4_weights``: scalars or arrays of
    ``shape``; the step runs in five preallocated buffers, and ``out`` may
    be ``y`` itself.
    """
    k1, k2, k3, k4, stage = np.empty((5,) + shape)
    rhs, add, mul = batched_rhs, np.add, np.multiply  # the last argument is out

    def step(y, out):
        rhs(y, k1)
        rhs(add(y, mul(half, k1, stage), stage), k2)
        rhs(add(y, mul(half, k2, stage), stage), k3)
        rhs(add(y, mul(h, k3, stage), stage), k4)
        # y + sixth (k1 + 2 k2 + 2 k3 + k4), the sum left to right, in k2
        add(k1, mul(2.0, k2, k2), k2)
        add(k2, mul(2.0, k3, k3), k2)
        add(k2, k4, k2)
        add(y, mul(sixth, k2, k2), out)

    return step


def integrate_flow(inits, C, N, steps=None):
    """Fixed-step RK4 solutions of the coefficient system over [0, C], in one loop.

    ``inits`` is a sequence of K FlowInitialData and ``steps`` their step
    counts, each in [2, N] (all N by default).  Datum k is integrated on
    ``lattice(C, steps[k])``, and a list of K FlowCoefficients comes back.
    All data step together as one component-major (5, K) state, row j
    holding component j of every datum, so each ufunc call runs over
    contiguous rows; each column sees exactly the arithmetic of a lone
    integration, so batching never changes a result.

    The columns are ordered longest count first, so the data still stepping
    are always a prefix.  While more than one count is live, a contiguous
    (5, live) state takes steps with (5, live) weights, each column's own
    ``rk4_weights``, and each count's slice is copied into its own
    (n+1, 5, K_n) path; when a count ends, the state is narrowed by a copy
    (a strided view would slow every ufunc call) and that count's
    FlowCoefficients are built and its path freed.  The last count steps
    straight into its path.  Each step is the textbook one, in its
    textbook order of operations, with the -2 of the right-hand side
    carried by the weights (see ``rk4_weights``).

    Every datum is checked against the pole before the first step: D is
    monotone in c, so a lattice holds a node at or under the floor exactly
    when its last node C does, and all data are tested there in one call.
    Only a datum that fails is scanned on its own lattice (see
    ``checked_denominator``); the first such in input order raises.  A
    column whose steps leave the float range comes back with non-finite
    samples and no warning; columns never mix, so the others are
    unaffected.
    """
    grid = lattice(C, N)
    steps = [N] * len(inits) if steps is None else list(steps)
    if len(steps) != len(inits):
        raise BadGrid(f"{len(steps)} step counts for {len(inits)} initial data")
    for n in steps:
        if not 2 <= n <= N:
            raise BadGrid(f"step count {n!r} outside [2, {N}]")
    grids = {n: grid if n == N else lattice(C, n) for n in steps}
    # D's rounding is monotone in c too, and every lattice ends at C
    d_end = denominator([row.sigma2_0 for row in inits], grid[-1])
    for k in np.flatnonzero(d_end <= DENOMINATOR_FLOOR):
        checked_denominator(inits[k].sigma2_0, grids[steps[k]])

    order = sorted(range(len(inits)), key=lambda k: -steps[k])
    counts = sorted(grids, reverse=True)
    bounds = np.cumsum([0] + [steps.count(n) for n in counts]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]  # columns of each count
    h = {n: g[1] - g[0] for n, g in grids.items()}
    weights = rk4_weights(np.array([h[steps[k]] for k in order]))

    y = np.array([np.append(inits[k].sigma1_0, inits[k].sigma2_0) for k in order])
    y = y.reshape(-1, 5).T.copy()
    paths = [np.empty((n + 1, 5, cols.stop - cols.start)) for n, cols in zip(counts, blocks)]
    for path, cols in zip(paths, blocks):
        path[0] = y[:, cols]
    flows = [None] * len(inits)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g in reversed(range(len(counts))):
            n = counts[g]
            if g:  # more than one count live: step the state, copy out each live block
                live = bounds[g + 1]
                step = _rk4_stepper(*(np.tile(w[:live], (5, 1)) for w in weights), y.shape)
                for i in range(done, n):
                    step(y, y)
                    for path, cols in zip(paths, blocks):
                        path[i + 1] = y[:, cols]
                y = y[:, : bounds[g]].copy()
            else:  # the longest count alone steps straight into its path
                path = paths[0]
                step = _rk4_stepper(*rk4_weights(h[n]), y.shape)
                for i in range(done, n):
                    step(path[i], path[i + 1])
            done = n
            # FlowCoefficients copy their samples, so the path goes at once;
            # paths keeps only the live counts' paths
            path = paths.pop()
            for j, k in enumerate(order[blocks[g]]):
                flows[k] = FlowCoefficients(
                    grid=grids[n], sigma1=path[:, :4, j], sigma2=path[:, 4, j]
                )
            del path
    return flows


def flow_to_rows(flow):
    """Rows (c, sigma1_0..sigma1_3, sigma2) ready for CSV output."""
    return np.column_stack([flow.grid, flow.sigma1, flow.sigma2])
