"""The value types: fields set once, and the records built from one field table each."""

import copy
import json
import pickle

import numpy as np
import pytest

from waveline.checks import SuiteResult
from waveline.config import RunConfig, Tolerances, load_config
from waveline.eigenvalue import LambdaBreakdown, WaveParameters
from waveline.errors import ConfigError
from waveline.phase_flow import FlowCoefficients, FlowInitialData
from waveline.phase_functional import PhaseGeometry
from waveline.report import CheckResult, RunReport
from waveline.stationarity import NewtonStep, StationarityReport
from waveline.values import REQUIRED, Frozen, Record
from waveline.worldline import straight_line

INIT = FlowInitialData(np.zeros(4), 0.5)

VALUES = [
    Tolerances(),
    RunConfig(),
    CheckResult("x", True, 0.5, 1.0),
    RunReport("flow", {"N": 10}, ()),
    WaveParameters(INIT, 1.0),
    LambdaBreakdown(1.0, 2.0, 3.0),
    INIT,
    FlowCoefficients(np.linspace(0.0, 1.0, 3), np.zeros((3, 4)), np.zeros(3)),
    PhaseGeometry(0.5, np.ones(4)),
    StationarityReport(np.zeros(4), 1.0, 1, 0.0, 0.0, 3, True),
    NewtonStep(0.1, 0.05, 0),
    straight_line(np.zeros(4), np.array([2.0, 0.6, 0.3, 0.1]), 1.0, 4),
    SuiteResult([CheckResult("x", True, 0.5, 1.0)], {"x.json": {"a": 1}}),
]
RECORDS = [v for v in VALUES if isinstance(v, Record)]

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
    assert len({type(v) for v in VALUES}) == len(VALUES) == 13
    # the four that validate their arguments keep a constructor of their own
    assert len(RECORDS) == 9


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


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
}
# what each refuses with: protocol 0 cannot pickle a slotted class at all
REFUSALS = {
    "copy": (AttributeError, r"\.\w+ is read-only$"),
    "deepcopy": (AttributeError, r"\.\w+ is read-only$"),
    "pickle": (AttributeError, r"\.\w+ is read-only$"),
    "pickle-0": (TypeError, "__slots__"),
}


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_copies_are_refused_rather_than_built_past_init(value, how):
    # a value is built by its __init__ only: copy, deepcopy and unpickling
    # set the fields of a blank instance one by one, which the guard refuses
    error, message = REFUSALS[how]
    with pytest.raises(error, match=message):
        COPIES[how](value)


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


# a value other than the default for each field, a tolerance by its own key
CHANGED = [
    ("a", (0.1, 0.0, 0.0, 0.0)), ("b", (3.0, 0.6, 0.3, 0.1)), ("m", 2.0), ("hbar_tilde", 0.5),
    ("N", 200), ("sigma2_0", 0.25), ("sigma2_values", (0.25, 1.0)),
    ("sigma1_0", (1.0, 0.1, 0.2, 0.3)), ("C", 1.5), ("branch", -1), ("seed", 3),
    ("operator_N", 8), ("n_perturbations", 5), ("n_phase_perturbations", 4),
    ("n_lambda_sets", 6), ("amplitude", 0.1),
    *[(f"tolerances.{name}", Tolerances(**{name: 1e-3})) for name in TOLERANCE_KEYS],
]


@pytest.mark.parametrize("name, value", CHANGED, ids=[name for name, _ in CHANGED])
def test_a_report_config_loads_back_to_the_same_fields(tmp_path, name, value):
    # run_report.json's "config" is as_dict(), which tells every field apart
    config = RunConfig(**{name.partition(".")[0]: value}).validate()
    written = config.as_dict()
    assert written != RunConfig().as_dict()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(written))
    assert load_config(path).as_dict() == written
    assert len(CHANGED) == len(RUN_CONFIG_KEYS) - 1 + len(TOLERANCE_KEYS)


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


def fields(value):
    return [getattr(value, name) for name in type(value).FIELDS]


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_records_take_fields_by_position_or_by_keyword(value):
    cls = type(value)
    assert cls.__slots__ == tuple(cls.FIELDS)
    given = fields(value)
    by_position = cls(*given)
    by_keyword = cls(**dict(zip(cls.FIELDS, given)))
    assert identical(by_position, by_keyword)
    assert identical(by_position, value)
    # the first field by position, the rest by keyword
    _, *rest = cls.FIELDS
    assert identical(cls(given[0], **dict(zip(rest, given[1:]))), value)


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_records_refuse_missing_unknown_and_doubled_fields(value):
    cls = type(value)
    given = dict(zip(cls.FIELDS, fields(value)))
    for name, default in cls.FIELDS.items():
        if default is REQUIRED:
            with pytest.raises(TypeError, match=f"field '{name}' is required"):
                cls(**{k: v for k, v in given.items() if k != name})
    with pytest.raises(TypeError, match=r"unknown .* fields \['bogus'\]"):
        cls(**given, bogus=1)
    first = next(iter(cls.FIELDS))
    with pytest.raises(TypeError, match=f"field '{first}' given twice"):
        cls(given[first], **given)
    with pytest.raises(TypeError, match=f"takes {len(given)} fields"):
        cls(*given.values(), 1)


def test_defaults_fill_the_fields_not_given():
    check = CheckResult("x", True, 0.5, 1.0)
    assert check.detail == "" and check.margin != check.margin
    assert StationarityReport(np.zeros(4), 1.0, 1, 0.0, 0.0, 3, True).sigma2_scan == ()
    assert RunConfig(N=200).as_dict() == {**RunConfig().as_dict(), "N": 200}
