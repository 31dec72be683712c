"""The value types: fields set once, and RunConfig/Tolerances built from one field table."""

import copy
import json
import pickle

import numpy as np
import pytest

from waveline.config import RunConfig, Tolerances, load_config
from waveline.eigenvalue import LambdaBreakdown, WaveParameters
from waveline.errors import ConfigError
from waveline.phase_flow import FlowCoefficients, FlowInitialData
from waveline.phase_functional import PhaseGeometry
from waveline.report import CheckResult, RunReport
from waveline.stationarity import StationarityReport
from waveline.values import Frozen
from waveline.worldline import straight_line

INIT = FlowInitialData(np.zeros(4), 0.5)

VALUES = [
    Tolerances(),
    RunConfig(),
    CheckResult("x", True, 0.5, 1.0),
    RunReport("flow", {"N": 10}, (), 0.1),
    WaveParameters(INIT, 1.0),
    LambdaBreakdown(1.0, 2.0, 3.0),
    INIT,
    FlowCoefficients(np.linspace(0.0, 1.0, 3), np.zeros((3, 4)), np.zeros(3)),
    PhaseGeometry(0.5, np.ones(4)),
    StationarityReport(np.zeros(4), 1.0, 1, 0.0, 0.0, 3, True),
    straight_line(np.zeros(4), np.array([2.0, 0.6, 0.3, 0.1]), 1.0, 4),
]

# The order dataclasses.asdict gave: the key order of run_report.json's "config"
RUN_CONFIG_KEYS = [
    "a", "b", "m", "hbar_tilde", "N", "sigma2_0", "sigma2_values", "sigma1_0", "C", "branch",
    "seed", "operator_N", "n_perturbations", "n_phase_perturbations", "n_lambda_sets",
    "amplitude", "tolerances",
]
TOLERANCE_KEYS = [
    "flow_tol", "lambda_tol", "stationarity_tol", "degeneracy_tol", "operator_tol", "phase_tol",
]


def test_every_value_type_is_listed_once():
    assert len({type(v) for v in VALUES}) == len(VALUES) == 11


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
}


def identical(x, y):
    """Same type and the same bits: arrays by dtype, shape and bytes, floats by repr."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, Frozen):
        return all(identical(getattr(x, n), getattr(y, n)) for n in type(x).__slots__)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(identical, x, y))
    if isinstance(x, dict):
        return list(x) == list(y) and all(identical(x[k], y[k]) for k in x)
    return repr(x) == repr(y)


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_copies_keep_every_field_and_stay_read_only(value, how):
    # rebuilt past __init__: Worldline's grid is no __init__ argument
    duplicate = COPIES[how](value)
    assert duplicate is not value
    assert identical(duplicate, value)
    test_fields_cannot_be_rebound_or_deleted(duplicate)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_rebound_or_deleted(value):
    assert not hasattr(value, "__dict__")
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_as_dict_keeps_the_field_order_and_nests_the_tolerances():
    d = RunConfig().as_dict()
    assert list(d) == RUN_CONFIG_KEYS
    assert list(d["tolerances"]) == TOLERANCE_KEYS
    assert d == {
        "a": (0.0, 0.0, 0.0, 0.0), "b": (2.0, 0.6, 0.3, 0.1), "m": 1.0, "hbar_tilde": 1.0,
        "N": 10000, "sigma2_0": 0.5, "sigma2_values": None, "sigma1_0": None, "C": None,
        "branch": 1, "seed": 7, "operator_N": 16, "n_perturbations": 100,
        "n_phase_perturbations": 20, "n_lambda_sets": 50, "amplitude": 0.3,
        "tolerances": {
            "flow_tol": 1e-10, "lambda_tol": 1e-6, "stationarity_tol": 1e-8,
            "degeneracy_tol": 1e-9, "operator_tol": 1e-4, "phase_tol": 1e-6,
        },
    }
    assert list(RunConfig.FIELDS) == RUN_CONFIG_KEYS
    assert list(Tolerances.FIELDS) == TOLERANCE_KEYS


def test_config_equality_and_hash_follow_the_field_values():
    assert RunConfig() == RunConfig()
    assert hash(RunConfig()) == hash(RunConfig())
    assert Tolerances(flow_tol=1e-12) == Tolerances(flow_tol=1e-12)
    assert hash(Tolerances(flow_tol=1e-12)) == hash(Tolerances(flow_tol=1e-12))
    assert Tolerances(flow_tol=1e-12) != Tolerances()
    assert RunConfig(N=200) != RunConfig()
    assert RunConfig(tolerances=Tolerances(flow_tol=1e-12)) != RunConfig()
    assert len({RunConfig(), RunConfig(), RunConfig(N=200), RunConfig(N=200)}) == 2
    assert RunConfig() != Tolerances()
    assert RunConfig() != RunConfig().as_dict()


def test_unknown_field_is_a_type_error_and_a_config_error(tmp_path):
    with pytest.raises(TypeError, match="bogus"):
        RunConfig(bogus=1)
    with pytest.raises(TypeError, match="bogus"):
        Tolerances(bogus=1)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError, match=r"unknown config keys: \['bogus'\]"):
        load_config(path)
    with pytest.raises(ConfigError, match="unknown override 'bogus'"):
        load_config(None, {"bogus": 1})
    path.write_text(json.dumps({"tolerances": {"bogus": 1}}))
    with pytest.raises(ConfigError, match=r"unknown tolerance keys: \['bogus'\]"):
        load_config(path)
