import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveline.errors import NullSeparation, SpacelikeSeparation
from waveline.minkowski import (
    METRIC_DIAG,
    as_four_vector,
    classical_action,
    dot,
    interval_squared,
    timelike_interval_squared,
)

from conftest import four_vectors, timelike_pairs

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])


class TestDot:
    def test_basis_signs(self):
        assert dot(E0, E0) == 1.0
        assert dot(E1, E1) == -1.0
        assert dot(E0, E1) == 0.0

    def test_null_vector(self):
        u = np.array([1.0, 1.0, 0.0, 0.0])
        assert dot(u, u) == 0.0

    def test_generic(self):
        # 2*1 - (1*2 + 0 + 0)
        assert dot(np.array([2.0, 1.0, 0.0, 0.0]), np.array([1.0, 2.0, 0.0, 0.0])) == 0.0
        assert dot(np.arange(1.0, 5.0), np.arange(4.0, 0.0, -1.0)) == 4 - 6 - 6 - 4

    def test_broadcasts_over_stacks(self):
        u = np.arange(8.0).reshape(2, 4)
        out = dot(u, u)
        assert out.shape == (2,)
        assert out[0] == dot(u[0], u[0])

    def test_complex_input_stays_complex(self):
        u = np.array([1.0 + 1.0j, 2.0j, 0.0, 1.0])
        assert dot(u, u) == (1.0 + 1.0j) ** 2 - (2.0j) ** 2 - 1.0
        assert type(dot(u, u)) is complex
        assert type(dot(u, E0)) is complex
        stack = np.stack([u, u])
        assert dot(stack, stack).dtype == np.complex128

    def test_vector_pair_equals_the_array_path(self):
        # a pair of float (4,) arrays is contracted on Python floats; stacks
        # take the array path, and every result must match it
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-150, 150, size=(2000, 2, 1))
        for u, v in rng.standard_normal((2000, 2, 4)) * scales:
            got = dot(u, v)
            assert type(got) is float
            assert got == dot(u[None], v[None])[0]

    def test_vector_pair_overflow_still_raises_under_errstate(self):
        huge = np.full(4, 1e200)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                dot(huge, huge)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(dot(huge, huge))

    @given(four_vectors(), four_vectors())
    def test_symmetry(self, u, v):
        assert dot(u, v) == pytest.approx(dot(v, u), abs=1e-12)

    @given(four_vectors(), four_vectors(), four_vectors(), st.floats(-2, 2))
    def test_bilinearity(self, u, v, w, s):
        assert dot(s * u + w, v) == pytest.approx(s * dot(u, v) + dot(w, v), abs=1e-10)

    @given(four_vectors(), four_vectors())
    def test_agrees_with_lowered_contraction(self, u, v):
        assert dot(u, v) == pytest.approx(float(np.sum(u * METRIC_DIAG * v)), abs=1e-12)


class TestIntervals:
    def test_example_interval(self):
        assert interval_squared([0, 0, 0, 0], [2, 0.6, 0.3, 0.1]) == pytest.approx(
            3.54, abs=1e-14
        )

    @given(timelike_pairs())
    def test_symmetric_in_endpoints(self, pair):
        a, b = pair
        assert interval_squared(a, b) == pytest.approx(interval_squared(b, a), abs=1e-12)

    @given(timelike_pairs(), four_vectors())
    def test_translation_invariant(self, pair, shift):
        a, b = pair
        assert interval_squared(a + shift, b + shift) == pytest.approx(
            interval_squared(a, b), abs=1e-9
        )

    def test_classification(self):
        # squared intervals 3.54, -0.2, 0 and 5e-13: timelike, spacelike, null, null
        a = np.zeros(4)
        assert timelike_interval_squared(a, [2, 0.6, 0.3, 0.1]) == pytest.approx(3.54)
        with pytest.raises(SpacelikeSeparation):
            timelike_interval_squared(a, [0.0, np.sqrt(0.2), 0.0, 0.0])
        with pytest.raises(NullSeparation):
            timelike_interval_squared(a, [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(NullSeparation):
            timelike_interval_squared(a, [np.sqrt(5e-13), 0.0, 0.0, 0.0])


class TestClassicalAction:
    def test_example_value(self):
        val = classical_action([0, 0, 0, 0], [2, 0.6, 0.3, 0.1], 1.0)
        assert val == pytest.approx(np.sqrt(3.54), rel=1e-15)

    def test_branches(self):
        a, b = [0, 0, 0, 0], [1, 0, 0, 0]
        assert classical_action(a, b, 2.0, branch=1) == pytest.approx(2.0)
        assert classical_action(a, b, 2.0, branch=-1) == pytest.approx(-2.0)

    def test_rejects_spacelike(self):
        with pytest.raises(SpacelikeSeparation):
            classical_action([0, 0, 0, 0], [0.5, 1, 0, 0], 1.0)

    def test_rejects_null(self):
        with pytest.raises(NullSeparation):
            classical_action([0, 0, 0, 0], [1, 1, 0, 0], 1.0)


class TestTimelikeIntervalSquared:
    def test_returns_the_squared_interval(self):
        a, b = [0, 0, 0, 0], [2, 0.6, 0.3, 0.1]
        assert timelike_interval_squared(a, b) == interval_squared(a, b)

    def test_rejects_spacelike_and_null(self):
        with pytest.raises(SpacelikeSeparation):
            timelike_interval_squared([0, 0, 0, 0], [0.5, 1, 0, 0])
        with pytest.raises(NullSeparation):
            timelike_interval_squared([0, 0, 0, 0], [1, 1, 0, 0])

    def test_validates_the_endpoints(self):
        with pytest.raises(ValueError):
            timelike_interval_squared([0, 0, 0], [1, 0, 0, 0])
        with pytest.raises(ValueError):
            timelike_interval_squared([0, 0, 0, 0], [np.inf, 0, 0, 0])


class TestAsFourVector:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_four_vector([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_four_vector([1.0, np.nan, 0.0, 0.0])
