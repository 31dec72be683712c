"""``float_errors_as`` names numpy's floating-point faults and leaves the error state as it found it."""

from contextlib import contextmanager

import numpy as np
import pytest

from waveline.errors import BadGrid, NumericalOverflow, float_errors_as


@contextmanager
def generator_float_errors_as(error, context):
    """The generator context manager ``float_errors_as`` was, as the reference for its errors."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise error(f"{context}: {exc}") from exc


FAULTS = {
    "overflow": lambda: np.array([1e308]) * 10.0,
    "scalar overflow": lambda: np.float64(1e308) * 10.0,
    "divide": lambda: np.array([1.0]) / 0.0,
    "invalid": lambda: np.sqrt(np.array([-1.0])),
}


def raised(manager, fault):
    with pytest.raises(NumericalOverflow) as info:
        with manager(NumericalOverflow, "probe"):
            fault()
    return info.value


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_a_fault_raises_the_reference_error(fault):
    before = np.geterr()
    got, want = raised(float_errors_as, fault), raised(generator_float_errors_as, fault)
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert str(got).startswith("probe: ")
    assert isinstance(got.__cause__, FloatingPointError)
    assert np.geterr() == before


def test_underflow_and_a_clean_block_pass():
    before = np.geterr()
    with float_errors_as(NumericalOverflow, "probe"):
        assert np.geterr()["over"] == np.geterr()["invalid"] == np.geterr()["divide"] == "raise"
        np.array([1e-308]) * 1e-10
    assert np.geterr() == before


def test_other_errors_pass_through_and_restore_the_state():
    before = np.geterr()
    with pytest.raises(KeyError):
        with float_errors_as(NumericalOverflow, "probe"):
            raise KeyError("x")
    assert np.geterr() == before


def test_nested_blocks_name_the_innermost_and_restore_each_state():
    before = np.geterr()
    outer = float_errors_as(NumericalOverflow, "outer")
    with pytest.raises(BadGrid, match=r"^inner: overflow encountered in multiply$"):
        with outer:
            with float_errors_as(BadGrid, "inner"):
                pass
            assert np.geterr()["over"] == "raise"
            with float_errors_as(BadGrid, "inner"):
                np.array([1e308]) * 10.0
    assert np.geterr() == before
    with np.errstate(over="ignore"):
        with float_errors_as(NumericalOverflow, "probe"):
            pass
        assert np.geterr()["over"] == "ignore"
