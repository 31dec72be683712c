"""Discrete world lines on a uniform lattice of the invariant parameter.

A world line is N+1 event samples x_i at c_i = i*C/N.  Endpoints are part
of the data and every constructor here pins them exactly; interior nodes
are free.  Velocities use second-order stencils throughout (central in
the bulk, one-sided at the ends), which keeps every downstream quadrature
second-order accurate in the lattice spacing.
"""

import numpy as np

from .errors import BadGrid
from .minkowski import as_four_vector
from .values import Frozen, set_field

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


class Worldline(Frozen):
    """Sampled trajectory: ``points[i]`` is the event at c = i*C/N.

    ``points`` is column-major, like every lattice array: one component per column.
    ``grid`` is its ``lattice(C, N)``, built once and read-only.
    """

    __slots__ = ("C", "N", "points", "grid")

    def __init__(self, C, N, points):
        grid = lattice(C, N)
        grid.setflags(write=False)
        pts = np.array(points, dtype=float, order="F")
        if pts.shape != (N + 1, 4):
            raise BadGrid(f"points shape {pts.shape} does not match N={N}")
        if not np.all(np.isfinite(pts)):
            raise BadGrid("world-line samples must be finite")
        pts.setflags(write=False)
        set_field(self, "C", C)
        set_field(self, "N", N)
        set_field(self, "points", pts)
        set_field(self, "grid", grid)

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
    d = b - a
    pts = np.empty((N + 1, 4), order="F")
    for k in range(4):  # column k is t * d[k] + a[k], built in place
        col = pts[:, k]
        np.multiply(t, d[k], out=col)
        col += a[k]
    pts[0] = a
    pts[-1] = b
    return Worldline(float(C), int(N), pts)


def _sine_modes(c, C, out=None):
    """sin(k*pi*c/C) for k = 1..MODES, shape (len(c), MODES), built in ``out`` if given."""
    table = np.outer(c / C, np.arange(1, MODES + 1), out=out)
    table *= np.pi
    return np.sin(table, out=table)


def normalization_modes(C):
    """Sine modes on the fixed fine reference lattice that sets a field's peak norm."""
    return _sine_modes(lattice(C, _NORM_GRID), C)


# Seeds per product in field_peaks: 8 seeds make one (32, 2049) product of
# 0.5 MB, squared in place.  Chunks of 16 measured no faster, and 32 or more
# twice as slow: their temporaries fall out of cache and grow with the count.
_PEAK_CHUNK = 8


def seed_coefficients(seed):
    """The (MODES, 4) sine-mode coefficients ``seed`` draws, one column per component."""
    return np.random.default_rng(seed).standard_normal((MODES, 4))


def field_peaks(coefs, reference):
    """Peak Euclidean norm over c of each field in a (P, MODES, 4) coefficient stack.

    ``reference`` is ``normalization_modes(C)``.  Each chunk of seeds is one
    ``coef.T @ reference.T`` product whose rows are the fields' components
    on the reference grid.
    """
    peaks = np.empty(len(coefs))
    for start in range(0, len(coefs), _PEAK_CHUNK):
        chunk = coefs[start:start + _PEAK_CHUNK]
        k = len(chunk)
        rows = chunk.transpose(0, 2, 1).reshape(4 * k, MODES) @ reference.T
        f = np.square(rows, out=rows).reshape(k, 4, -1)
        # squared norms summed component by component, left to right as
        # np.linalg.norm sums a row; sqrt is monotone, so it can follow the max
        sq = f[:, 0] + f[:, 1]
        sq += f[:, 2]
        sq += f[:, 3]
        np.sqrt(sq.max(axis=1), out=peaks[start:start + k])
    return peaks


def seed_displacements(amplitude, seeds, C):
    """Mode coefficients of each seed's perturbation field, scaled to ``amplitude``.

    Returns a (P, MODES, 4) stack: ``interior_modes(w) @ out[k]`` is the
    displacement ``perturb_interior(w, amplitude, seeds[k])`` adds to any
    lattice ``w`` of duration ``C``, so one stack serves every lattice.
    """
    coefs = np.array([seed_coefficients(seed) for seed in seeds])
    peaks = field_peaks(coefs, normalization_modes(C))
    scale = np.divide(amplitude, peaks, out=np.zeros_like(peaks), where=peaks > 0)
    return scale[:, None, None] * coefs


def interior_modes(w):
    """Sine-mode matrix on the lattice of ``w``, shape (N+1, MODES).

    Row i holds sin(k*pi*c_i/C); the endpoint rows are exactly zero, so
    ``interior_modes(w) @ coef`` is a displacement that leaves the ends fixed.
    """
    out = np.zeros((w.N + 1, MODES))
    _sine_modes(w.grid[1:-1], w.C, out=out[1:-1])
    return out


def perturb_interior(base, amplitude, seed):
    """Add a random smooth displacement field that vanishes at both endpoints.

    The field is a superposition of MODES sine bumps sin(k*pi*c/C) with
    coefficients ``seed_coefficients(seed)``, scaled so its peak Euclidean
    norm over c is ``amplitude``.  The peak is taken on the fixed fine grid of
    :func:`normalization_modes`, so one seed names one field on every lattice.
    """
    coef = seed_coefficients(seed)
    peak = field_peaks(coef[None], normalization_modes(base.C))[0]
    if peak == 0.0 or amplitude == 0.0:
        return base
    pts = base.points.copy(order="F")
    pts[1:-1] += (amplitude / peak) * (_sine_modes(base.grid[1:-1], base.C) @ coef)
    return Worldline(base.C, base.N, pts)


def velocities(w, values=None):
    """d/dc of ``values`` (N+1, k) on the lattice of ``w``, else of its points; second order.

    Central differences in the bulk and one-sided ones at the two ends, with
    the slice arithmetic of ``np.gradient(f, dc, axis=0, edge_order=2)``, so
    the result equals it bit for bit.  The output keeps the input's memory
    layout, as ``np.gradient``'s does.
    """
    f = w.points if values is None else values
    dx = w.dc
    out = np.empty_like(f)
    bulk = out[1:-1]
    np.subtract(f[2:], f[:-2], out=bulk)
    bulk /= 2.0 * dx
    out[0] = (-1.5 / dx) * f[0] + (2.0 / dx) * f[1] + (-0.5 / dx) * f[2]
    out[-1] = (0.5 / dx) * f[-3] + (-2.0 / dx) * f[-2] + (1.5 / dx) * f[-1]
    return out
