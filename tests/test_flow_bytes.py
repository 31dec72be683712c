"""The flow, verify, phase and stationary commands' files, byte for byte.

A change to the RK4 kernel or to the flow suite's bookkeeping that claims
identical results must leave these files identical.  Each SHA-256 in PINS
was taken from ``waveline flow`` on the named config before the step
weights carried the right-hand side's -2, and each in RUN_PINS from the
named command before the operator probe ran on whole-lattice arrays (the
default verify and the phase workload) or before it ran in numpy's own
complex arithmetic (the rest), except the three runs at the float range's
edges, taken once D - 1 was formed one way and c(q) and lambda(C) halved
rather than doubled; a change that moves one on purpose says why in
CHANGES.md and takes the new pin.
"""

import hashlib
from pathlib import Path

import json

import pytest

from waveline.cli import main

from conftest import GENERIC, QUICK

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


# The configs that are no committed file, by name.  At hbar_tilde 1e-6 and
# 1e-100 the operator checks' values are not zero.
CONFIGS = {
    "GENERIC": GENERIC,
    "hbar_tilde=1e-6": {"hbar_tilde": 1e-6},
    "hbar_tilde=1e-100": {"hbar_tilde": 1e-100},
    # sigma2_0 C = 5e-309 is subnormal, where 2 (sigma2_0 C) and
    # (2 sigma2_0) C may round apart
    "C=1e-308": {**QUICK, "C": 1e-308},
    # 2 sigma2_0 is past the float range
    "sigma2_0=1e308,C=0.5": {**QUICK, "sigma2_0": 1e308, "C": 0.5},
    # the lambda(C) sweep runs out to 4.7e307, past DBL_MAX / 4
    "m=5e-308": {**QUICK, "m": 5e-308},
}

# the exit code and every file a run writes, the report included, by
# (command, committed config file or CONFIGS name, flags)
RUN_PINS = {
    ("verify", "configs/default.json", ()): (0, {
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
    }),
    ("phase", "perfbench/workloads/phase-resample.json", ()): (0, {
        "run_report.json": "768bcc0879e9e01a3fb08848be79ef52bb7ba98bbef2c81b17664d30a2a254dd",
        "phase_report.json": "a7f68fe0d336a7827fd26e00b1efb70ac748fa5fefb31800c026976224d3289f",
    }),
    # QUICK's four phase trajectories miss phase_trajectory_independence
    ("verify", "GENERIC", ()): (1, {
        "run_report.json": "ba29bf2ea9410d626e4608077ed0e56d8bd78fa2d73904cd9c2513792e346189",
        "flow.csv": "85e825566c89c9fbdef5850b492eedfbd0324808aa39cbb05890d961d0a01bd3",
        "flow_errors.csv": "7fd3447e3e564179cbb800c090af7b2d91c5e10927b774b003d1013123986c8a",
        "lambda_breakdown.json": "f7ca78fb34f7a37bb7090c9e1e96f4e1926fb8cc55b3326c0ae2737fab63c9cb",
        "lambda_control_spreads.csv":
            "06920220b9a0c2aba9418a9c77043514a877093b7bfb4bb9bc0418587900115b",
        "lambda_spreads.csv": "c97a3b7cfe4018d03b692fba07e4c401a0dab07be97c7c3222a0d13302503fcc",
        "phase_report.json": "23751cbbbd7388e7508909375856daecfaee859234b0454943b4d440223800f5",
        "sigma2_scan.csv": "9d3e520a89de71e972591874cbcd4f439a9409d6bc2d2631f3b8445fe59544b3",
        "stationarity_report.json":
            "97c4d3a1f9e85c76ad710ced2eef5aa4b31b81f33d46c4a9cd26d8ef974b393f",
        "sweep_lambda_vs_C.csv": "6c041cb8a5393806eb490f3e4b56b2e5ee232aa27dbabab6af38bb8b23cbea1a",
    }),
    ("verify", "GENERIC", ("--branch=-",)): (1, {
        "run_report.json": "170b4e4fc0df5f9b3e6e666764700ef7c9de42b95d417d27c857bff0670b5761",
        "flow.csv": "85e825566c89c9fbdef5850b492eedfbd0324808aa39cbb05890d961d0a01bd3",
        "flow_errors.csv": "7fd3447e3e564179cbb800c090af7b2d91c5e10927b774b003d1013123986c8a",
        "lambda_breakdown.json": "f7ca78fb34f7a37bb7090c9e1e96f4e1926fb8cc55b3326c0ae2737fab63c9cb",
        "lambda_control_spreads.csv":
            "06920220b9a0c2aba9418a9c77043514a877093b7bfb4bb9bc0418587900115b",
        "lambda_spreads.csv": "c97a3b7cfe4018d03b692fba07e4c401a0dab07be97c7c3222a0d13302503fcc",
        "phase_report.json": "23751cbbbd7388e7508909375856daecfaee859234b0454943b4d440223800f5",
        "sigma2_scan.csv": "a4f105665042f2e4cf52a6f1191efe9ecb88975e3952485f95a7c9ba448028a7",
        "stationarity_report.json":
            "d7ad5617828c28073be1cf2be95b7c5d66afb6d6145e93c6b22c46f226230a13",
        "sweep_lambda_vs_C.csv": "6c041cb8a5393806eb490f3e4b56b2e5ee232aa27dbabab6af38bb8b23cbea1a",
    }),
    # N = 50 misses the flow, three-form and phase tolerances
    ("verify", "hbar_tilde=1e-6", ("--N", "50")): (1, {
        "run_report.json": "eb5e6f15e5717c8f3daf47cbed072b2d8e838dd4ca7a69cabeac9f184e780ca1",
        "flow.csv": "8ae5eff529b12e60d08b7c6ec38dd8feeeae1ba6e4e9711bffda0b340db13183",
        "flow_errors.csv": "bdb16b12ed8706ff5388a6cefec8cdc03845bc2124a252abc36dd608d48fb6a6",
        "lambda_breakdown.json": "4c28bc0df4cd43bc4e9db1e4167d18e7ea1fa761f61d3694630fa0b84fa1a522",
        "lambda_control_spreads.csv":
            "3491f5bfd50cf3c8c8d810787a33b7f8fc55850a0863ea6b0d6a71b531606ad9",
        "lambda_spreads.csv": "9edd1e75c88758a02e5d37caf5bb256fab9ee5522bc4b45e664f160f08257eeb",
        "phase_report.json": "7805d4aea2a7f9b3807a557a9f4b20234269701b839bfa95ccac1f9b4bb548a0",
        "sigma2_scan.csv": "2ba39fecf2b62db1c045fd5fdb127079d01ba6f57d6963731e4831ae1df6f58a",
        "stationarity_report.json":
            "b3f0989bcec99f4f66729600032e505943c35a8d3b8ff5714420107c388d51d9",
        "sweep_lambda_vs_C.csv": "dadd16939556495680e04ebe890b218b1ef8f9ea6d75a23dc050e32913b48e47",
    }),
    ("verify", "hbar_tilde=1e-100", ("--N", "50")): (1, {
        "run_report.json": "7a59c51e9a02db0236505c9a2b9a3ced1fb94fdfb2cd116e9efeaf5fca9e8138",
        "flow.csv": "8ae5eff529b12e60d08b7c6ec38dd8feeeae1ba6e4e9711bffda0b340db13183",
        "flow_errors.csv": "bdb16b12ed8706ff5388a6cefec8cdc03845bc2124a252abc36dd608d48fb6a6",
        "lambda_breakdown.json": "4c28bc0df4cd43bc4e9db1e4167d18e7ea1fa761f61d3694630fa0b84fa1a522",
        "lambda_control_spreads.csv":
            "3491f5bfd50cf3c8c8d810787a33b7f8fc55850a0863ea6b0d6a71b531606ad9",
        "lambda_spreads.csv": "9edd1e75c88758a02e5d37caf5bb256fab9ee5522bc4b45e664f160f08257eeb",
        "phase_report.json": "7805d4aea2a7f9b3807a557a9f4b20234269701b839bfa95ccac1f9b4bb548a0",
        "sigma2_scan.csv": "2ba39fecf2b62db1c045fd5fdb127079d01ba6f57d6963731e4831ae1df6f58a",
        "stationarity_report.json":
            "b3f0989bcec99f4f66729600032e505943c35a8d3b8ff5714420107c388d51d9",
        "sweep_lambda_vs_C.csv": "dadd16939556495680e04ebe890b218b1ef8f9ea6d75a23dc050e32913b48e47",
    }),
    # Q = 1e-308 is under Q_FLOOR, so the one check reads DegenerateQ
    ("phase", "C=1e-308", ()): (1, {
        "run_report.json": "5ef8396103ab688e24705b884901035f988426f15356a27f6c5b676bee705364",
    }),
    # Q ~ 709 is too steep for a uniform q grid: two phase checks miss
    ("phase", "sigma2_0=1e308,C=0.5", ()): (1, {
        "run_report.json": "b1a546dced128794261931391cde19034e3107353334110a49bf806588b0c9a1",
        "phase_report.json": "806cd8b284be1686cafb6211ea67203fb2b2258792d9745a8d1a2285279aec16",
    }),
    # the Newton search meets its absolute gradient bound at C ~ 1e8, far
    # short of C* ~ 1.9e307, so stationary_duration misses
    ("stationary", "m=5e-308", ()): (1, {
        "run_report.json": "6fe6f6478d39e2ae83bacae14992aab0357006f847b4086acd0f3b3a24ed9578",
        "sigma2_scan.csv": "a46dd18fec90bfb5aefc2554c56be25cb0792372ee4a01ecfe3f8960952f8494",
        "stationarity_report.json":
            "cc9365e070e767ce06639fc9be5d4a552591116adbf84aaf6ad8af75b812d972",
        "sweep_lambda_vs_C.csv": "a8136e0d1cf55517628d8c90302a49a6d8a4341ee41876ab8143d13b4d91c43d",
    }),
}


@pytest.mark.parametrize("command, config, flags", sorted(RUN_PINS),
                         ids=["-".join((c, f, *x)) for c, f, x in sorted(RUN_PINS)])
def test_run_files_keep_their_bytes(command, config, flags, tmp_path):
    if config in CONFIGS:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CONFIGS[config]))
    else:
        path = ROOT / config
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out), *flags])
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert (code, digests) == RUN_PINS[(command, config, flags)]
