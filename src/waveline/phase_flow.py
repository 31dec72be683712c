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

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadGrid, FlowSingularity, GridMismatch
from .minkowski import as_four_vector
from .worldline import lattice

# D(c) at or below this is treated as on top of the pole.
DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowInitialData:
    """Coefficients at c = 0: a four-vector sigma1_0 and a scalar sigma2_0."""

    sigma1_0: np.ndarray
    sigma2_0: float

    def __post_init__(self):
        v = as_four_vector(self.sigma1_0)
        v.setflags(write=False)
        object.__setattr__(self, "sigma1_0", v)
        object.__setattr__(self, "sigma2_0", float(self.sigma2_0))
        if not np.isfinite(self.sigma2_0):
            raise ValueError("sigma2_0 must be finite")


@dataclass(frozen=True)
class FlowCoefficients:
    """Coefficients sampled on a grid: sigma1 is (M, 4), column-major, and sigma2 is (M,)."""

    grid: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        s1 = np.asarray(self.sigma1, dtype=float, order="F")
        s2 = np.asarray(self.sigma2, dtype=float, order="F")
        if g.ndim != 1 or g.size < 2:
            raise BadGrid(f"flow grid must be 1-d with >= 2 samples, got shape {g.shape}")
        if s1.shape != (g.size, 4) or s2.shape != (g.size,):
            raise BadGrid("coefficient arrays do not match the grid")
        for arr in (g, s1, s2):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)

    @property
    def C(self):
        return float(self.grid[-1])


def require_shared_grid(g1, g2):
    """Raise GridMismatch unless the two lattices are identical.

    Nodes may differ by 1e-12 of the lattice's extent, capped at 1e-12, so
    a tiny lattice (C ~ 1e-300) is not matched to every other one.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    atol = 1e-12 * min(1.0, float(np.abs(g1).max(initial=0.0)))
    if g1.shape != g2.shape or not np.allclose(g1, g2, rtol=0.0, atol=atol):
        raise GridMismatch("objects are sampled on different lattices")


def flow_rhs(sigma1, sigma2):
    """Right-hand side of the coefficient system at one instant."""
    sigma1 = np.asarray(sigma1, dtype=float)
    return -2.0 * sigma2 * sigma1, -2.0 * sigma2 * sigma2


def denominator(sigma2_0, c):
    """D(c) = 1 + 2 sigma2_0 c, the single scale factor of the exact flow."""
    return 1.0 + 2.0 * sigma2_0 * np.asarray(c, dtype=float)


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
        c_star = float(-1.0 / (2.0 * sigma2_0))
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


def rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(inits, C, N):
    """Fixed-step RK4 solution of the coefficient system on N steps over [0, C].

    ``inits`` is a sequence of K FlowInitialData, stepped together as one
    (K, 5) state on the shared grid; a list of K FlowCoefficients comes
    back.  Each row sees exactly the arithmetic of a lone integration, so
    batching never changes a result.

    Every row is checked against the pole at every node before the first
    step (see ``checked_denominator``); the first singular row raises.
    """
    grid = lattice(C, N)
    for row in inits:
        checked_denominator(row.sigma2_0, grid)
    h = grid[1] - grid[0]

    def rhs(y):
        # (-2 sigma2) times (sigma1, sigma2): flow_rhs, one row per initial datum
        return (-2.0 * y[:, 4:]) * y

    y = np.array([np.append(row.sigma1_0, row.sigma2_0) for row in inits]).reshape(-1, 5)
    path = np.empty((N + 1,) + y.shape)
    path[0] = y
    for i in range(N):
        y = rk4_step(rhs, y, h)
        path[i + 1] = y
    return [
        FlowCoefficients(grid=grid, sigma1=path[:, k, :4], sigma2=path[:, k, 4])
        for k in range(len(inits))
    ]


def flow_to_rows(flow):
    """Rows (c, sigma1_0..sigma1_3, sigma2) ready for CSV output."""
    return np.column_stack([flow.grid, flow.sigma1, flow.sigma2])
