"""The check-name table in ``waveline.checks`` matches what the suites emit.

``CHECK_NAMES`` is the one place check names are declared; ``--list``
prints it.  Every name a run reports must match a declared pattern (``*``
stands for a swept parameter), and every declared pattern, the names that
only appear on failure included, must be reported by some run below.
"""

import fnmatch
import glob
import json

import pytest

from waveline.checks import CHECK_NAMES
from waveline.cli import COMMANDS, main

from conftest import QUICK

# (command, extra config keys, flags); the failing runs put a pole inside
# the run duration, or make the endpoints null so every suite that needs
# them raises.
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
)


def matches(name, pattern):
    # brackets in check names are literal; only * is a wildcard
    return fnmatch.fnmatchcase(name, glob.escape(pattern).replace("[*]", "*"))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Check names reported by each run in RUNS, keyed by its index."""
    names = {}
    for k, (command, extra, flags) in enumerate(RUNS):
        tmp = tmp_path_factory.mktemp(f"run{k}")
        config = tmp / "quick.json"
        config.write_text(json.dumps({**QUICK, **extra}))
        out = tmp / "out"
        assert main([command, "--config", str(config), "--out", str(out), *flags]) in (0, 1)
        report = json.loads((out / "run_report.json").read_text())
        names[k] = [c["name"] for c in report["checks"]]
    return names


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{k}-{run[0]}" for k, run in enumerate(RUNS)])
def test_every_emitted_name_is_declared(emitted, k):
    command = RUNS[k][0]
    assert emitted[k]
    for name in emitted[k]:
        assert any(matches(name, p) for p in CHECK_NAMES[command]), name


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_declared_name_is_emitted(emitted, command):
    names = [n for k, run in enumerate(RUNS) if run[0] == command for n in emitted[k]]
    for pattern in CHECK_NAMES[command]:
        assert any(matches(n, pattern) for n in names), pattern


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
