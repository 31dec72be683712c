"""The flow, verify and phase commands' files, byte for byte.

A change to the RK4 kernel or to the flow suite's bookkeeping that claims
identical results must leave these files identical.  Each SHA-256 in PINS
was taken from ``waveline flow`` on the named config before the step
weights carried the right-hand side's -2, and each in RUN_PINS from the
named command before the operator probe ran on whole-lattice arrays; a
change that moves one on purpose says why in CHANGES.md and takes the new
pin.
"""

import hashlib
from pathlib import Path

import pytest

from waveline.cli import main

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "configs/default.json": {
        "run_report.json": "18815e7a3c9daa7f6f8fc0f8f7e8ef04fc97e0d87cb94c4bd8ae1badc5ca7a55",
        "flow.csv": "85e825566c89c9fbdef5850b492eedfbd0324808aa39cbb05890d961d0a01bd3",
        "flow_errors.csv": "7fd3447e3e564179cbb800c090af7b2d91c5e10927b774b003d1013123986c8a",
    },
    # the flow-sweep benchmark workload: 35 curvatures from -0.4 to 3.0
    "perfbench/workloads/flow-sweep.json": {
        "run_report.json": "f4f5dd111675b63f18bc0609b53a1ea999a2ad9a86ca4833442945c9fe1f0016",
        "flow.csv": "85e825566c89c9fbdef5850b492eedfbd0324808aa39cbb05890d961d0a01bd3",
        "flow_errors.csv": "c0c15c388c0b1d818e3d25731869841e541d37ac53b699ee47614e3f7c3aabdf",
    },
}


@pytest.mark.parametrize("config", sorted(PINS))
def test_flow_files_keep_their_bytes(config, tmp_path):
    out = tmp_path / "out"
    assert main(["flow", "--config", str(ROOT / config), "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINS[config]
    }
    assert digests == PINS[config]


# every file a verify at the default config and a phase-resample benchmark
# run write, the report included
RUN_PINS = {
    ("verify", "configs/default.json"): {
        "run_report.json": "61b700e95bcb03653469fd4c9144a0929ec63556683775d95ba454ff3efe8a13",
        "flow.csv": "85e825566c89c9fbdef5850b492eedfbd0324808aa39cbb05890d961d0a01bd3",
        "flow_errors.csv": "7fd3447e3e564179cbb800c090af7b2d91c5e10927b774b003d1013123986c8a",
        "lambda_breakdown.json": "15ba77b35ea716e9fb82e5b9229f6f7b4f31fed4d579bc023a36963d193e4d4a",
        "lambda_control_spreads.csv":
            "9db00fc7ab0eb910f15fd8d396544dd38274cd9924372d818eef6c858b463075",
        "lambda_spreads.csv": "389e1a98719455d294e61bcc935bab4716d31aa3ad9c30d7d77d186caa2ccbca",
        "phase_report.json": "80953a687f009a283b9a0aeb0e113f8595287a0fd203a5e7950520201d1eb038",
        "sigma2_scan.csv": "2ba39fecf2b62db1c045fd5fdb127079d01ba6f57d6963731e4831ae1df6f58a",
        "stationarity_report.json":
            "b3f0989bcec99f4f66729600032e505943c35a8d3b8ff5714420107c388d51d9",
        "sweep_lambda_vs_C.csv": "dadd16939556495680e04ebe890b218b1ef8f9ea6d75a23dc050e32913b48e47",
    },
    ("phase", "perfbench/workloads/phase-resample.json"): {
        "run_report.json": "768bcc0879e9e01a3fb08848be79ef52bb7ba98bbef2c81b17664d30a2a254dd",
        "phase_report.json": "a7f68fe0d336a7827fd26e00b1efb70ac748fa5fefb31800c026976224d3289f",
    },
}


@pytest.mark.parametrize("command, config", sorted(RUN_PINS), ids="-".join)
def test_run_files_keep_their_bytes(command, config, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--config", str(ROOT / config), "--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == RUN_PINS[(command, config)]
