import fnmatch
import glob
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import waveline

# Bounded, well-scaled floats keep hypothesis away from overflow noise and
# on the physics: magnitudes here are all O(1) by construction.
component = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def four_vectors(draw):
    return np.array([draw(component) for _ in range(4)])


@st.composite
def timelike_pairs(draw):
    """(a, b) event pairs with timelike, future-pointing separation."""
    a = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    space = np.array([draw(st.floats(-0.6, 0.6)) for _ in range(3)])
    dt = np.sqrt(space @ space) + draw(st.floats(0.3, 2.0))
    return a, a + np.concatenate([[dt], space])


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


# A small verify-ready configuration for CLI runs: coarse lattices, few seeds.
QUICK = {
    "N": 2000,
    "n_perturbations": 6,
    "n_phase_perturbations": 4,
    "n_lambda_sets": 8,
    "operator_N": 10,
}

# QUICK at a generic geometry: a off the origin, m and hbar_tilde off 1, so
# terms in a, m against m**2, or hbar_tilde against its square can differ.
_GENERIC_A = (0.1, -0.2, 0.05, 0.3)
GENERIC = {
    **QUICK,
    "a": _GENERIC_A,
    "b": tuple(np.add(_GENERIC_A, (2.0, 0.6, 0.3, 0.1)).tolist()),
    "m": 1.3,
    "hbar_tilde": 0.7,
}


def child_env():
    """The environment with this package's source first on PYTHONPATH.

    pytest puts ``src`` on its own ``sys.path``; a ``python -m waveline.cli``
    child needs it in the environment too.
    """
    src = str(Path(waveline.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def matches(name, pattern):
    """``name`` is an instance of the CHECK_NAMES ``pattern``; ``*`` is its one wildcard."""
    # brackets in check names are literal
    return fnmatch.fnmatchcase(name, glob.escape(pattern).replace("[*]", "*"))


def rel_err(x, y, floor=1.0):
    return abs(x - y) / max(floor, abs(x), abs(y))


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the most bytes tracemalloc saw allocated during it.

    numpy reports its array buffers to tracemalloc, so the peak counts every
    array the call held at once, and none it was handed.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
