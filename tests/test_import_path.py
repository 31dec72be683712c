"""scipy stays off the import path; the numpy clock matches scipy's own rule."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waveline
from waveline.worldline import reparametrize

SRC = str(Path(waveline.__file__).resolve().parents[1])


def test_importing_the_cli_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys, waveline.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "chi, T",
    [
        (np.ones(11), 1.0),
        (np.linspace(0.0, 3.0, 101) ** 2, 2.5),
        (1.0 + 0.5 * np.sin(np.linspace(0.0, 7.0, 1001)), 0.3),
        (np.random.default_rng(5).uniform(0.1, 4.0, 64), 17.0),
    ],
)
def test_reparametrize_matches_scipy_bit_for_bit(chi, T):
    from scipy.integrate import cumulative_trapezoid

    tau, c = reparametrize(chi, T=T)
    assert np.array_equal(c, cumulative_trapezoid(chi, tau, initial=0.0))
