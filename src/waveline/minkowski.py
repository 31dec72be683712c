"""Flat-spacetime geometry with signature (+, -, -, -).

Four-vectors are plain numpy arrays of shape (4,) holding raised
(contravariant) components.  Arrays of four-vectors stack them along the
leading axes, so every function here broadcasts over an (..., 4) layout.
"""

import math

import numpy as np

from .errors import NullSeparation, NumericalOverflow, SpacelikeSeparation, ZeroMass, float_errors_as

# Diagonal of the metric tensor (+, -, -, -).
METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])

# Squared intervals within this distance of zero count as null.
NULL_TOL = 1e-12


def as_four_vector(v):
    """Coerce ``v`` to a float array of shape (4,), rejecting anything else."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {arr.shape}")
    v0, v1, v2, v3 = arr.tolist()
    if not (math.isfinite(v0) and math.isfinite(v1) and math.isfinite(v2) and math.isfinite(v3)):
        raise ValueError("four-vector components must be finite")
    return arr


def dot(u, v):
    """Invariant product u0*v0 - u.v of raised components.

    Accepts single vectors or (..., 4) stacks and broadcasts; a pair of
    (4,) inputs yields a plain Python number.  Integer and list input is
    promoted to float, and complex input stays complex.
    """
    if (
        type(u) is np.ndarray and type(v) is np.ndarray
        and u.shape == v.shape == (4,)
        and u.dtype == v.dtype == np.float64
    ):
        # the same IEEE operations on Python floats; those ignore np.errstate,
        # so a result that left the float range is redone on arrays below
        u0, u1, u2, u3 = u.tolist()
        v0, v1, v2, v3 = v.tolist()
        out = u0 * v0 - (u1 * v1 + u2 * v2 + u3 * v3)
        if math.isfinite(out):
            return out
    u = np.asarray(u)
    v = np.asarray(v)
    dtype = np.result_type(u, v, float)
    u = u.astype(dtype, copy=False)
    v = v.astype(dtype, copy=False)
    # the space sum in np.sum's left-to-right order, without its 3-long inner loops
    out = u[..., 1] * v[..., 1]
    if out.ndim == 0:  # one pair of vectors: numpy scalars, as before
        out = u[..., 0] * v[..., 0] - (out + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])
        return out.item()
    # on stacks every product after the first lands in one scratch buffer
    term = np.multiply(u[..., 2], v[..., 2])
    out += term
    np.multiply(u[..., 3], v[..., 3], out=term)
    out += term
    np.multiply(u[..., 0], v[..., 0], out=term)
    return np.subtract(term, out, out=out)


def interval_squared(a, b):
    """Squared invariant interval between events ``a`` and ``b``.

    A separation whose square leaves the float range (a far endpoint such
    as b = (1e200, 0, 0, 0)) raises NumericalOverflow.
    """
    with float_errors_as(NumericalOverflow, "squared interval between the endpoints"):
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        return dot(d, d)


def timelike_interval_squared(a, b):
    """Squared interval of endpoint events that must be strictly timelike.

    Both endpoints are validated as four-vectors; spacelike and (within
    NULL_TOL) null separations raise.
    """
    ds2 = interval_squared(as_four_vector(a), as_four_vector(b))
    if abs(ds2) <= NULL_TOL:
        raise NullSeparation("endpoints are lightlike-separated")
    if not ds2 > 0:
        raise SpacelikeSeparation(f"squared interval {ds2!r} is negative")
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
