"""Exception hierarchy for the solver.

Everything raised on purpose derives from WavelineError so callers can
catch solver-domain failures without swallowing genuine bugs;
``float_errors_as`` turns numpy's floating-point faults into one of them.
"""

import numpy as np


class WavelineError(Exception):
    """Base class for all solver-domain errors."""


class SpacelikeSeparation(WavelineError):
    """Endpoint pair whose squared interval is negative."""


class NullSeparation(WavelineError):
    """Endpoint pair on the light cone where a strictly timelike pair is required."""


class ZeroDuration(WavelineError):
    """Invariant duration is zero where the eigenvalue divides by it."""


class BadGrid(WavelineError):
    """World-line lattice with inconsistent shape, too few points, or non-finite data."""


class GridMismatch(WavelineError):
    """Two sampled objects that must share a lattice do not."""


class FlowSingularity(WavelineError):
    """Coefficient flow evaluated at or beyond its finite-time pole; the message names the pole c*."""


class NumericalUnderflow(WavelineError):
    """Wave-functional modulus too small for finite-difference probing."""


class NumericalOverflow(WavelineError):
    """A value leaves the float range: a probe step scaling the modulus, 1/dc on a tiny lattice."""


class NoConvergence(WavelineError):
    """Iterative search exhausted its iteration budget."""


class NotMeasured(WavelineError):
    """A check's measurement came out degenerate, so it measured nothing."""


class DegenerateQ(WavelineError):
    """Logarithmic duration is zero, so the rescaled parametrization collapses."""


class ConfigError(WavelineError):
    """Unusable run configuration: bad file, unknown key, or out-of-range value."""


class float_errors_as:
    """Raise ``error`` for numpy overflow, invalid or divide-by-zero in the block.

    Extreme lattice spacings (C ~ 1e200 or 1e-300) carry intermediate
    values past the float range; this names the failure where it happens
    instead of letting a NaN reach a check with a RuntimeWarning on stderr.
    Underflow to zero is left alone: it is harmless roundoff here.  The
    raised error reads ``"<context>: <numpy's message>"`` and has the
    FloatingPointError as its cause.
    """

    __slots__ = ("_error", "_context", "_state")

    def __init__(self, error, context):
        self._error = error
        self._context = context
        self._state = np.errstate(over="raise", invalid="raise", divide="raise")

    def __enter__(self):
        self._state.__enter__()

    def __exit__(self, kind, exc, tb):
        self._state.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise self._error(f"{self._context}: {exc}") from exc
        return False
