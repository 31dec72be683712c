"""Flat-spacetime geometry with signature (+, -, -, -).

Four-vectors are plain numpy arrays of shape (4,) holding raised
(contravariant) components.  Arrays of four-vectors stack them along the
leading axes, so every function here broadcasts over an (..., 4) layout.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import NonTimelikeVelocity, NullSeparation, SpacelikeSeparation, ZeroMass

# Diagonal of the metric tensor; contracting with it lowers (or raises) an index.
METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])

# Squared intervals within this distance of zero count as null.
NULL_TOL = 1e-12


class IntervalClass(enum.Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"


def as_four_vector(v):
    """Coerce ``v`` to a float array of shape (4,), rejecting anything else."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("four-vector components must be finite")
    return arr


def dot(u, v):
    """Invariant product u0*v0 - u.v of raised components.

    Accepts single vectors or (..., 4) stacks and broadcasts; a pair of
    (4,) inputs yields a plain Python number.  Integer and list input is
    promoted to float, and complex input stays complex.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    dtype = np.result_type(u, v, float)
    u = u.astype(dtype, copy=False)
    v = v.astype(dtype, copy=False)
    # the space sum in np.sum's left-to-right order, without its 3-long inner loops
    space = u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3]
    out = u[..., 0] * v[..., 0] - space
    if out.ndim == 0:
        return out.item()
    return out


def lower_index(v):
    """Components with the index lowered: the time part keeps its sign, space flips."""
    return np.asarray(v, dtype=float) * METRIC_DIAG


# Lowering twice is the identity, so the same contraction raises an index.
raise_index = lower_index


def interval_squared(a, b):
    """Squared invariant interval between events ``a`` and ``b``."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return dot(d, d)


def classify_interval(ds2, tol=NULL_TOL):
    if abs(ds2) <= tol:
        return IntervalClass.NULL
    return IntervalClass.TIMELIKE if ds2 > 0 else IntervalClass.SPACELIKE


def canonical_momentum(xdot, m):
    """Momentum conjugate to a world-line velocity, components index-lowered.

    The velocity must be timelike; the mass must be non-negative.  The
    returned covector satisfies dot(raise_index(p), raise_index(p)) == m**2
    for any parametrization of the same world line.
    """
    xdot = as_four_vector(xdot)
    if m < 0:
        raise ValueError("mass must be non-negative")
    x2 = dot(xdot, xdot)
    if x2 <= 0:
        raise NonTimelikeVelocity(f"velocity squared {x2!r} is not positive")
    return -m * lower_index(xdot) / np.sqrt(x2)


def hamiltonian_constraint(p, m):
    """Mass-shell defect p.p - m**2 for an index-lowered momentum ``p``.

    Vanishes identically on canonical momenta; the sign convention in
    canonical_momentum drops out because the expression is quadratic.
    """
    p_up = raise_index(as_four_vector(p))
    return dot(p_up, p_up) - m * m


def timelike_interval_squared(a, b):
    """Squared interval of endpoint events that must be strictly timelike.

    Both endpoints are validated as four-vectors; spacelike and (within
    NULL_TOL) null separations raise.
    """
    ds2 = interval_squared(as_four_vector(a), as_four_vector(b))
    kind = classify_interval(ds2)
    if kind is IntervalClass.SPACELIKE:
        raise SpacelikeSeparation(f"squared interval {ds2!r} is negative")
    if kind is IntervalClass.NULL:
        raise NullSeparation("endpoints are lightlike-separated")
    return ds2


def classical_action(a, b, m, branch=1):
    """Extremal action +/- m * sqrt((b-a)^2) for a free particle between events.

    ``branch`` picks the sign.  Spacelike and (within NULL_TOL) null
    separations have no timelike extremal and raise.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if m <= 0:
        raise ZeroMass("classical action needs m > 0")
    return branch * m * np.sqrt(timelike_interval_squared(a, b))
