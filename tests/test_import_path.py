"""dataclasses and scipy stay off the import path, and scipy off the run path."""

import subprocess
import sys

from conftest import child_env


def test_importing_the_cli_loads_neither_dataclasses_nor_scipy():
    # the value types are plain slotted classes, so no import generates and
    # execs their methods; the log-clock spline is numpy's
    code = (
        "import sys, waveline.cli\n"
        "print(sorted(m for m in sys.modules if m == 'dataclasses' or 'scipy' in m))\n"
    )
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
