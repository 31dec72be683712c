"""scipy stays off the import and run paths; the numpy clock matches scipy's own rule."""

import subprocess
import sys

import numpy as np
import pytest

from waveline.worldline import reparametrize

from conftest import child_env


def test_importing_the_cli_does_not_load_scipy():
    code = "import sys, waveline.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_verify_and_phase_runs_do_not_load_scipy(tmp_path):
    # the log-clock spline is numpy's; scipy is a test oracle only
    code = (
        "import sys\n"
        "from waveline.cli import main\n"
        "for cmd in ('verify', 'phase'):\n"
        f"    assert main([cmd, '--N', '200', '--out', {str(tmp_path)!r} + '/' + cmd]) in (0, 1)\n"
        "print(sorted(m for m in sys.modules if 'scipy' in m))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


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
