"""The ``waveline`` process: ``cli.entry()`` run as ``python -m waveline.cli``.

``entry()`` starts OpenBLAS on one thread, on glibc keeps freed memory
mapped, and leaves through ``os._exit`` after flushing.  None of them may
change what a run prints or writes: every exit code, line and file must be
what an in-process ``main()`` gives, ``verify``'s five suites included,
which run in the one process.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

from waveline.checks import CHECK_NAMES
from waveline.cli import COMMANDS, main

from conftest import GENERIC, QUICK, child_env


def run_cli(args, cwd, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "waveline.cli", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(child_env(), **(env or {})), **kwargs,
    )


def run_python(code, cwd):
    """``python -c code`` with numpy's OpenBLAS on one thread, as ``entry()`` starts it."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
    )


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, cfg in (("QUICK", QUICK), ("GENERIC", GENERIC)):
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(json.dumps(cfg))
    return {name: str(path) for name, path in paths.items()}


def assert_matches_main(proc, args, code, tmp_path, capsys):
    """``proc`` printed and wrote to ``child`` what ``main(args)`` does, wall time aside."""
    assert proc.returncode == code
    assert proc.stderr == ""

    assert main(args + ["--out", str(tmp_path / "main")]) == code
    printed = capsys.readouterr().out.splitlines()
    lines = proc.stdout.splitlines()
    # every line but the wall time in the summary is the same
    assert lines[:-1] == printed[:-1]
    summary = f"{args[0]}: {'PASS' if code == 0 else 'FAIL'} ("
    assert lines[-1].startswith(summary) and lines[-1].endswith("s)")
    assert proc.stdout.endswith("\n")

    child, in_process = tree_bytes(tmp_path / "child"), tree_bytes(tmp_path / "main")
    assert "run_report.json" in child
    assert child == in_process


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("lambda", ["--config", "QUICK"], 0),
        ("verify", ["--config", "QUICK"], 1),
        ("flow", ["--sigma2=-0.5,0.5", "--N", "200"], 1),
        ("verify", ["--config", "GENERIC"], 1),
    ],
)
def test_child_matches_in_process_main(tmp_path, configs, capsys, command, extra, code):
    args = [command] + [configs.get(a, a) for a in extra]
    proc = run_cli(args + ["--out", "child"], cwd=tmp_path)
    assert_matches_main(proc, args, code, tmp_path, capsys)


def test_callers_blas_threads_keep_verify_serial_and_its_output(tmp_path, configs, capsys):
    # a caller's second OpenBLAS thread changes nothing the run prints or writes
    args = ["verify", "--config", configs["QUICK"]]
    proc = run_cli(args + ["--out", "child"], cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": "2"})
    assert_matches_main(proc, args, 1, tmp_path, capsys)


def patched_entry(args, patches):
    """Source of a child that runs ``cli.entry()`` on ``args`` with ``patches`` applied.

    ``patches`` replaces functions of ``os``.
    """
    return (
        "import os, sys\n"
        "from waveline import cli\n"
        f"{patches}"
        f"sys.argv[1:] = {args!r}\n"
        "cli.entry()\n"
    )


def test_entry_runs_verify_without_forking(tmp_path, configs, capsys):
    # every suite runs in the one process; a fork would leave the marker
    args = ["verify", "--config", configs["QUICK"]]
    patches = (
        "def no_fork():\n"
        "    open('forked', 'w').close()\n"
        "    raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
        "os.fork = no_fork\n"
    )
    proc = run_python(patched_entry(args + ["--out", "child"], patches), tmp_path)
    assert not (tmp_path / "forked").exists()
    assert_matches_main(proc, args, 1, tmp_path, capsys)


def test_missing_config_exits_2(tmp_path):
    proc = run_cli(["flow", "--config", str(tmp_path / "nope.json")], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: cannot read config")
    assert not (tmp_path / "out").exists()


def test_list_prints_every_name(tmp_path):
    # verify's list holds every suite's names
    proc = run_cli(["verify", "--list"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == list(CHECK_NAMES["verify"])
    assert set(proc.stdout.splitlines()) >= {
        name for command in COMMANDS for name in CHECK_NAMES[command]
    }


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 with preexec_fn")
def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # fd 1 is closed in the child before the interpreter starts, so the run's
    # lines have nowhere to go: an output error, not a pass and not a crash
    proc = run_cli(
        ["flow", "--N", "200", "--out", "o"], cwd=tmp_path, preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2
    assert proc.stderr == "output error: stdout is closed\n"
    assert (tmp_path / "o" / "run_report.json").is_file()


@pytest.mark.skipif(os.name != "posix", reason="EPIPE on a pipe with no reader is POSIX")
@pytest.mark.parametrize("args", [["flow", "--list"], ["flow", "--N", "200", "--out", "o"]])
def test_broken_pipe_on_unbuffered_stdout_exits_2_without_a_traceback(tmp_path, args):
    # the first print into the pipe raises; the run still writes its reports
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "waveline.cli", *args],
            cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(child_env(), PYTHONUNBUFFERED="1"),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "output error: [Errno 32] Broken pipe\n"
    if "--out" in args:
        assert (tmp_path / "o" / "run_report.json").is_file()
        assert (tmp_path / "o" / "flow.csv").is_file()


def test_argparse_errors_keep_the_normal_exit(tmp_path):
    proc = run_cli(["flow", "--bogus"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "unrecognized arguments: --bogus" in proc.stderr
    assert "Traceback" not in proc.stderr


def minor_faults(args, cwd):
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait4 for the child's rusage; Popen is told the child is reaped, or
    # it warns that the process is still running when it is collected
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt thresholds are a glibc policy",
)
def test_entry_keeps_freed_lattice_memory_mapped(tmp_path):
    # 8 lambda sets at N = 20000: with glibc's default thresholds each set's
    # (N+1, 4) temporaries are unmapped when freed and faulted in again.
    # The floor is 1500 faults per 10000 lattice points.  At N = 10000 the
    # saving was 1.1k or 1.8k faults by the path lengths of the checkout and
    # temp directory (they move main()'s heap layout, and with it glibc's
    # adaptive mmap threshold); at N = 20000 it stays above 3.5k, and is
    # under 1k without the mallopt call.
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps({**QUICK, "N": 20000}))
    argv = ["lambda", "--config", str(path), "--out"]
    via_entry = minor_faults(["-m", "waveline.cli", *argv, "entry"], tmp_path)
    via_main = minor_faults(
        ["-c", f"import sys; from waveline.cli import main; sys.exit(main({argv + ['main']!r}))"],
        tmp_path,
    )
    assert via_main - via_entry >= 3000, (via_entry, via_main)
