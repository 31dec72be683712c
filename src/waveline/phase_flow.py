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

    Past |sigma2_0| = DBL_MAX / 2 the factor 2 sigma2_0 is infinite, and
    infinity times c = 0 is NaN; there D is formed as 1 + 2 (sigma2_0 c),
    so D(0) is exactly 1 and a D past the float range is an infinity of its
    sign, without a warning.  So is D wherever 2 sigma2_0 c leaves the range
    (sigma2_0 ~ 1e300 at c ~ 1e200): the product at the largest |c|, taken
    in Python floats, which round alike and never warn, tells in advance.
    """
    c = np.asarray(c, dtype=float)
    two_s = 2.0 * float(sigma2_0)
    reach = abs(float(c)) if c.ndim == 0 else float(np.abs(c).max(initial=0.0))
    if math.isfinite(two_s * reach):
        return 1.0 + two_s * c
    with np.errstate(over="ignore"):
        return 1.0 + 2.0 * (sigma2_0 * c)


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
    """The system's right-hand side on a (5, K) state of columns (sigma1, sigma2), into ``out``."""
    # (-2 sigma2) times each component row, one column per initial datum
    np.multiply(-2.0 * y[4], y, out)


def _rk4_stepper(h, half, sixth, shape):
    """``step(y, out)``: one textbook RK4 step of ``batched_rhs`` on a ``shape`` state.

    ``h``, ``half`` and ``sixth`` are scalars or per-column rows; the step
    runs in five preallocated buffers, and ``out`` may be ``y`` itself.
    """
    k1, k2, k3, k4, stage = np.empty((5,) + shape)
    rhs, add, mul = batched_rhs, np.add, np.multiply  # the last argument is out

    def step(y, out):
        rhs(y, k1)
        rhs(add(y, mul(half, k1, stage), stage), k2)
        rhs(add(y, mul(half, k2, stage), stage), k3)
        rhs(add(y, mul(h, k3, stage), stage), k4)
        # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), the sum left to right, in k2
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
    (5, live) state takes steps with per-column rows of h, h/2 and h/6, and
    each count's slice is copied into its own (n+1, 5, K_n) path; when a
    count ends, the state is narrowed by a copy (a strided view would slow
    every ufunc call) and that count's FlowCoefficients are built and its
    path freed.  The last count steps straight into its path.  Each step is
    the textbook one, in its textbook order of operations.

    Every datum is checked against the pole at every node of its lattice
    before the first step (see ``checked_denominator``); the first singular
    one raises.  A column whose steps leave the float range comes back with
    non-finite samples and no warning; columns never mix, so the others are
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
    for row, n in zip(inits, steps):
        checked_denominator(row.sigma2_0, grids[n])

    order = sorted(range(len(inits)), key=lambda k: -steps[k])
    counts = sorted(grids, reverse=True)
    bounds = np.cumsum([0] + [steps.count(n) for n in counts]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]  # columns of each count
    h = {n: g[1] - g[0] for n, g in grids.items()}
    hs = np.array([h[steps[k]] for k in order])
    rows = (hs, 0.5 * hs, hs / 6.0)

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
                step = _rk4_stepper(*(r[: bounds[g + 1]] for r in rows), y.shape)
                for i in range(done, n):
                    step(y, y)
                    for path, cols in zip(paths, blocks):
                        path[i + 1] = y[:, cols]
                y = y[:, : bounds[g]].copy()
            else:  # the longest count alone steps straight into its path
                path = paths[0]
                step = _rk4_stepper(h[n], 0.5 * h[n], h[n] / 6.0, y.shape)
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
