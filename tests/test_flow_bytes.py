"""The flow command's files, byte for byte.

A change to the RK4 kernel or to the flow suite's bookkeeping that claims
identical results must leave these files identical.  Each SHA-256 below was
taken from ``waveline flow`` on the named config before the step weights
carried the right-hand side's -2; a change that moves one on purpose says
why in CHANGES.md and takes the new pin.
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
