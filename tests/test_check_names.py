"""The check-name table in ``waveline.checks`` matches what the suites emit.

``CHECK_NAMES`` is the one place check names are declared; ``--list``
prints it.  Every name a run reports must match a declared pattern (``*``
stands for a swept parameter), and every declared pattern, the names that
only appear on failure included, must be reported by some run below.
The same runs reach every function and method of the package: code no
command runs has no place in it.  Nor has an import no module reads, or a
parameter no function reads.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import waveline
from waveline import checks
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

# Functions and methods the runs need not reach: the process wrapper and
# the memory policy it alone sets run only in a child
# (tests/test_cli_process.py), and no command sets a value type's field
# after __init__, which the read-only guard refuses (tests/test_value_types.py).
NOT_REACHED = {"cli.entry", "cli._keep_freed_memory_mapped", "values.Frozen.__setattr__"}

# Parameters their function need not read: the read-only guard refuses any
# value, and its __delattr__ alias calls it with none.
UNREAD_PARAMETERS = {"values.Frozen.__setattr__": {"value"}}


def module_functions():
    """``module.function`` and ``module.Class.method`` for every function and
    method of the package, by code location."""
    found = {}
    for path in sorted(Path(waveline.__file__).resolve().parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        defs = [(path.stem, node) for node in body] + [
            (f"{path.stem}.{node.name}", item)
            for node in body if isinstance(node, ast.ClassDef) for item in node.body
        ]
        for owner, node in defs:
            if isinstance(node, ast.FunctionDef):
                # a decorated function's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{owner}.{node.name}"
    return found


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Check names reported by each run in RUNS, keyed by its index, the code
    locations of every function the runs called, and the type of every cell
    of every CSV artifact they wrote."""
    names, called, cells = {}, set(), set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def write_csv(path, header, rows):
        rows = list(rows)
        cells.update(type(value) for row in rows for value in row)
        write_csv.real(path, header, rows)

    write_csv.real = checks.write_csv
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "write_csv", write_csv)
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
    return names, reached, cells


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{k}-{run[0]}" for k, run in enumerate(RUNS)])
def test_every_emitted_name_is_declared(emitted, k):
    names, _, _ = emitted
    command = RUNS[k][0]
    assert names[k]
    for name in names[k]:
        assert any(matches(name, p) for p in CHECK_NAMES[command]), name


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_declared_name_is_emitted(emitted, command):
    names, _, _ = emitted
    found = [n for k, run in enumerate(RUNS) if run[0] == command for n in names[k]]
    for pattern in CHECK_NAMES[command]:
        assert any(matches(n, pattern) for n in found), pattern


def test_every_module_function_is_reached(emitted):
    _, reached, _ = emitted
    functions = module_functions()
    assert NOT_REACHED <= set(functions.values())
    unreached = {name for where, name in functions.items() if where not in reached}
    assert unreached == NOT_REACHED


def test_no_module_imports_a_name_it_never_reads():
    # the package declares no linter, so this walk is the unused-import
    # check: every imported name must appear as a name in its module's code
    unused = {}
    for path in sorted(Path(waveline.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.stem] = sorted(imported - read)
    assert unused == {}


def _functions(node, owner):
    """``(owner.name, node)`` for every function and lambda under ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{owner}.{child.name}"
        elif isinstance(child, ast.Lambda):
            name = f"{owner}.<lambda>"
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield name, child
        yield from _functions(child, name)


def test_every_function_reads_each_of_its_parameters():
    # a deleted use must not leave a dead option behind: every parameter,
    # self included, is read somewhere in its function's code
    unread = {}
    for path in sorted(Path(waveline.__file__).resolve().parent.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text()), path.stem):
            args = node.args
            params = {
                arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                    args.vararg, args.kwarg] if arg is not None
            }
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            if params - read:
                unread[name] = params - read
    assert unread == UNREAD_PARAMETERS


def test_every_csv_cell_is_a_python_scalar(emitted):
    # write_csv writes each cell as its repr: a numpy scalar's reads
    # np.float64(...), and a string's would be quoted
    _, _, cells = emitted
    assert cells == {int, float}


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
