"""Discrete world lines on a uniform lattice of the invariant parameter.

A world line is N+1 event samples x_i at c_i = i*C/N.  Endpoints are part
of the data and every constructor here pins them exactly; interior nodes
are free.  Velocities use second-order stencils throughout (central in
the bulk, one-sided at the ends), which keeps every downstream quadrature
second-order accurate in the lattice spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadGrid
from .minkowski import as_four_vector

# Fine grid used to normalize random perturbation fields so the same seed
# names the same continuum bump regardless of the lattice it lands on.
_NORM_GRID = 2048

# Sine modes sin(k*pi*c/C), k = 1..MODES, in every perturbation field.
MODES = 6


def lattice(C, N):
    """The N + 1 nodes c_i = i*C/N over [0, C]; N >= 2 and C positive and finite."""
    if N < 2:
        raise BadGrid(f"need at least 2 steps, got N={N!r}")
    if not (C > 0) or not np.isfinite(C):
        raise BadGrid(f"duration must be positive and finite, got {C!r}")
    return np.linspace(0.0, float(C), N + 1)


@dataclass(frozen=True)
class Worldline:
    """Sampled trajectory: ``points[i]`` is the event at c = i*C/N.

    ``points`` is column-major, like every lattice array: one component per column.
    ``grid`` is its ``lattice(C, N)``, built once and read-only.
    """

    C: float
    N: int
    points: np.ndarray
    grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = lattice(self.C, self.N)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        pts = np.array(self.points, dtype=float, order="F")
        if pts.shape != (self.N + 1, 4):
            raise BadGrid(f"points shape {pts.shape} does not match N={self.N}")
        if not np.all(np.isfinite(pts)):
            raise BadGrid("world-line samples must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dc(self):
        return self.C / self.N

    @property
    def a(self):
        return self.points[0]

    @property
    def b(self):
        return self.points[-1]


def straight_line(a, b, C, N):
    """Uniform-velocity world line from ``a`` to ``b``, endpoints exact."""
    a = as_four_vector(a)
    b = as_four_vector(b)
    t = np.linspace(0.0, 1.0, N + 1)
    pts = (a[:, None] + t * (b - a)[:, None]).T
    pts[0] = a
    pts[-1] = b
    return Worldline(float(C), int(N), pts)


def _sine_modes(c, C):
    """sin(k*pi*c/C) for k = 1..MODES, shape (len(c), MODES)."""
    return np.sin(np.pi * np.outer(c / C, np.arange(1, MODES + 1)))


def normalization_modes(C):
    """Sine modes on the fixed fine reference lattice that sets a field's peak norm."""
    return _sine_modes(lattice(C, _NORM_GRID), C)


def perturbation_coefficients(seed, C, reference=None):
    """Sine-mode coefficients drawn from ``seed`` and the peak norm of their field.

    Returns ``(coef, peak)``: ``coef`` is (MODES, 4), one column per
    component, and ``peak`` is the largest Euclidean norm over c of the
    field sum_k coef[k] sin(k*pi*c/C), measured on a fixed fine reference
    grid so one seed denotes one continuum field on every lattice.
    ``reference`` is ``normalization_modes(C)``, for callers that draw
    many seeds and build it once.
    """
    coef = np.random.default_rng(seed).standard_normal((MODES, 4))
    if reference is None:
        reference = normalization_modes(C)
    return coef, np.linalg.norm(reference @ coef, axis=1).max()


def interior_modes(w):
    """Sine-mode matrix on the lattice of ``w``, shape (N+1, MODES).

    Row i holds sin(k*pi*c_i/C); the endpoint rows are exactly zero, so
    ``interior_modes(w) @ coef`` is a displacement that leaves the ends fixed.
    """
    out = np.zeros((w.N + 1, MODES))
    out[1:-1] = _sine_modes(w.grid[1:-1], w.C)
    return out


def perturb_interior(base, amplitude, seed):
    """Add a random smooth displacement field that vanishes at both endpoints.

    The field is a superposition of MODES sine bumps sin(k*pi*c/C) with
    coefficients drawn from ``seed`` (see :func:`perturbation_coefficients`),
    scaled so its peak Euclidean norm over c is ``amplitude``.
    """
    coef, peak = perturbation_coefficients(seed, base.C)
    if peak == 0.0 or amplitude == 0.0:
        return base
    pts = base.points.copy(order="F")
    pts[1:-1] += (amplitude / peak) * (_sine_modes(base.grid[1:-1], base.C) @ coef)
    return Worldline(base.C, base.N, pts)


def velocities(w, values=None):
    """d/dc of ``values`` (N+1, k) on the lattice of ``w``, else of its points; second order."""
    return np.gradient(w.points if values is None else values, w.dc, axis=0, edge_order=2)
