"""The argparse surface, pinned byte for byte.

The seven options every command takes are declared once on a shared parent
parser; the help text and the usage errors must read as they did when each
subparser declared its own copy.
"""

import pytest

from waveline.cli import COMMANDS, main

TOP_HELP = """\
usage: waveline [-h] {flow,lambda,stationary,phase,verify} ...

Variational checks for the free-particle action eigenvalue on discretized
world lines.

positional arguments:
  {flow,lambda,stationary,phase,verify}
    flow                integrate the coefficient flow and compare against the
                        exact solution
    lambda              evaluate the eigenvalue three ways and test world-line
                        independence
    stationary          search for the stationary point and check the
                        classical limit
    phase               check the two-clock phase identity and its trajectory
                        independence
    verify              run every check family plus the negative-control meta-
                        check

options:
  -h, --help            show this help message and exit
"""

USAGE = {
    "flow": """\
usage: waveline flow [-h] [--config PATH] [--out DIR] [--seed SEED] [--N N]
                     [--sigma2 V[,V...]] [--branch {+,-,+1,-1}] [--list]
""",
    "lambda": """\
usage: waveline lambda [-h] [--config PATH] [--out DIR] [--seed SEED] [--N N]
                       [--sigma2 V[,V...]] [--branch {+,-,+1,-1}] [--list]
""",
    "stationary": """\
usage: waveline stationary [-h] [--config PATH] [--out DIR] [--seed SEED]
                           [--N N] [--sigma2 V[,V...]] [--branch {+,-,+1,-1}]
                           [--list]
""",
    "phase": """\
usage: waveline phase [-h] [--config PATH] [--out DIR] [--seed SEED] [--N N]
                      [--sigma2 V[,V...]] [--branch {+,-,+1,-1}] [--list]
""",
    "verify": """\
usage: waveline verify [-h] [--config PATH] [--out DIR] [--seed SEED] [--N N]
                       [--sigma2 V[,V...]] [--branch {+,-,+1,-1}] [--list]
""",
}

OPTIONS = """\

options:
  -h, --help            show this help message and exit
  --config PATH         JSON configuration file
  --out DIR             directory for run_report.json and artifacts
  --seed SEED           override the random seed
  --N N                 override the number of lattice intervals
  --sigma2 V[,V...]     override the initial curvature(s), comma-separated
  --branch {+,-,+1,-1}  sign branch for the stationary point
  --list                print the check names this command runs and exit
"""

TOP_USAGE = "usage: waveline [-h] {flow,lambda,stationary,phase,verify} ...\n"

ERRORS = {
    "flow --branch x": USAGE["flow"] + (
        "waveline flow: error: argument --branch: invalid choice: 'x' "
        "(choose from '+', '-', '+1', '-1')\n"
    ),
    "nope": TOP_USAGE + (
        "waveline: error: argument command: invalid choice: 'nope' "
        "(choose from 'flow', 'lambda', 'stationary', 'phase', 'verify')\n"
    ),
    "": TOP_USAGE + "waveline: error: the following arguments are required: command\n",
}


def run(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` on an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


def test_top_level_help(monkeypatch, capsys):
    assert run(["--help"], monkeypatch, capsys) == (0, TOP_HELP, "")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help(monkeypatch, capsys, command):
    expected = USAGE[command] + OPTIONS
    assert run([command, "--help"], monkeypatch, capsys) == (0, expected, "")


@pytest.mark.parametrize("argv", list(ERRORS))
def test_usage_error(monkeypatch, capsys, argv):
    assert run(argv.split(), monkeypatch, capsys) == (2, "", ERRORS[argv])
