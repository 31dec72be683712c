"""What the CLI loads: dataclasses, scipy, numpy and ctypes stay off its import
path, scipy off the run path, and the ``waveline`` process starts numpy's
OpenBLAS on one thread."""

import os
import subprocess
import sys

import pytest

from waveline.cli import main

from conftest import child_env


def test_importing_the_cli_loads_neither_dataclasses_nor_scipy():
    # the value types are plain slotted classes, so no import generates and
    # execs their methods; the log-clock spline is numpy's; and numpy loads
    # only inside main(), after entry() has set the BLAS thread count
    code = (
        "import sys, waveline.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('numpy', 'ctypes', 'dataclasses') or 'scipy' in m))\n"
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


def blas_seen_by_entry(**env):
    """``OPENBLAS_NUM_THREADS`` and the thread count a patched run sees.

    The child runs ``cli.entry()`` with ``main()`` replaced by one that
    imports numpy, as the real one does, and prints what it finds.
    """
    code = (
        "import os, waveline.cli as cli\n"
        "def probe(argv=None):\n"
        "    import numpy\n"
        "    print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
        "    return 0\n"
        "cli.main = probe\n"
        "cli.entry()\n"
    )
    base = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**base, **env}, check=True,
    )
    assert proc.stderr == ""
    value, threads = proc.stdout.split()
    return value, int(threads)


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


@needs_proc_tasks
def test_entry_starts_numpy_with_one_blas_thread():
    # a second OpenBLAS thread spins for about 0.1 s of CPU after numpy loads
    assert blas_seen_by_entry() == ("1", 1)


@needs_proc_tasks
def test_entry_keeps_the_callers_blas_thread_count():
    value, _ = blas_seen_by_entry(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    # the thread policy is entry()'s; a library call to main() sets nothing
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["flow", "--N", "200", "--out", str(tmp_path)]) in (0, 1)
    assert dict(os.environ) == before
