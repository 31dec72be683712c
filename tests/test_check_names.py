"""The check-name table in ``waveline.checks`` matches what the suites emit.

``CHECK_NAMES`` is the one place check names are declared; ``--list``
prints it.  Every name a run reports must match a declared pattern (``*``
stands for a swept parameter), and every declared pattern, the names that
only appear on failure included, must be reported by some run below.
The same runs reach every module-level function of the package: code no
command runs has no place in it.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import waveline
from waveline.checks import CHECK_NAMES
from waveline.cli import COMMANDS, main

from conftest import QUICK, matches

# (command, extra config keys, flags); the failing runs put a pole inside
# the run duration, make the endpoints null so every suite that needs
# them raises, or carry RK4 past the float range; one run takes the
# negative branch by flag.
RUNS = (
    ("flow", {}, []),
    ("lambda", {}, []),
    ("stationary", {}, []),
    ("phase", {}, []),
    ("verify", {}, []),
    ("flow", {}, ["--sigma2=-0.5,0.5"]),
    ("lambda", {}, ["--sigma2=-0.7"]),
    ("stationary", {}, ["--sigma2=-0.7"]),
    ("phase", {}, ["--sigma2=-0.7"]),
    ("verify", {}, ["--sigma2=-0.5,0.5"]),
    ("verify", {"b": [1.0, 1.0, 0.0, 0.0]}, []),
    ("stationary", {}, ["--branch=-"]),
    ("flow", {}, ["--sigma2=1e300"]),
)

# Module-level functions the runs need not reach: the process wrapper and
# the two-core verify it alone selects run only in a child
# (tests/test_cli_process.py).
NOT_REACHED = {"cli.entry", "cli._keep_freed_memory_mapped", "cli._verify_on_two_cores"}


def module_functions():
    """``module.function`` for every module-level function of the package, by code location."""
    found = {}
    for path in sorted(Path(waveline.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                # a decorated function's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{node.name}"
    return found


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Check names reported by each run in RUNS, keyed by its index, and the
    code locations of every function the runs called."""
    names, called = {}, set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for k, (command, extra, flags) in enumerate(RUNS):
        tmp = tmp_path_factory.mktemp(f"run{k}")
        config = tmp / "quick.json"
        config.write_text(json.dumps({**QUICK, **extra}))
        out = tmp / "out"
        sys.setprofile(record)
        try:
            code = main([command, "--config", str(config), "--out", str(out), *flags])
        finally:
            sys.setprofile(None)
        assert code in (0, 1)
        report = json.loads((out / "run_report.json").read_text())
        names[k] = [c["name"] for c in report["checks"]]
    reached = {(str(Path(f).resolve()), line) for f, line in called}
    return names, reached


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{k}-{run[0]}" for k, run in enumerate(RUNS)])
def test_every_emitted_name_is_declared(emitted, k):
    names, _ = emitted
    command = RUNS[k][0]
    assert names[k]
    for name in names[k]:
        assert any(matches(name, p) for p in CHECK_NAMES[command]), name


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_declared_name_is_emitted(emitted, command):
    names, _ = emitted
    found = [n for k, run in enumerate(RUNS) if run[0] == command for n in names[k]]
    for pattern in CHECK_NAMES[command]:
        assert any(matches(n, pattern) for n in found), pattern


def test_every_module_function_is_reached(emitted):
    _, reached = emitted
    functions = module_functions()
    assert NOT_REACHED <= set(functions.values())
    unreached = {name for where, name in functions.items() if where not in reached}
    assert unreached == NOT_REACHED


def test_list_prints_the_table(capsys):
    for command in COMMANDS:
        assert main([command, "--list"]) == 0
        assert capsys.readouterr().out.splitlines() == list(CHECK_NAMES[command])


def test_verify_list_is_the_concatenation_of_its_parts(capsys):
    def listed(command):
        assert main([command, "--list"]) == 0
        return capsys.readouterr().out.splitlines()

    parts = (
        listed("flow")
        + listed("lambda")
        + ["lambda_violation_detected"]
        + listed("stationary")
        + list(CHECK_NAMES["operator"])
        + listed("phase")
    )
    assert listed("verify") == parts
