import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveline.errors import (
    NonTimelikeVelocity,
    NullSeparation,
    SpacelikeSeparation,
    ZeroMass,
)
from waveline.minkowski import (
    IntervalClass,
    as_four_vector,
    canonical_momentum,
    classical_action,
    classify_interval,
    dot,
    hamiltonian_constraint,
    interval_squared,
    lower_index,
    raise_index,
    timelike_interval_squared,
)

from conftest import four_vectors, timelike_pairs, timelike_vectors

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])


class TestDot:
    def test_basis_signs(self):
        assert dot(E0, E0) == 1.0
        assert dot(E1, E1) == -1.0
        assert dot(E0, E1) == 0.0

    def test_null_vector(self):
        assert dot([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0

    def test_generic(self):
        # 2*1 - (1*2 + 0 + 0)
        assert dot([2, 1, 0, 0], [1, 2, 0, 0]) == 0.0
        assert dot([1, 2, 3, 4], [4, 3, 2, 1]) == 4 - 6 - 6 - 4

    def test_broadcasts_over_stacks(self):
        u = np.arange(8.0).reshape(2, 4)
        out = dot(u, u)
        assert out.shape == (2,)
        assert out[0] == dot(u[0], u[0])

    def test_integer_and_list_input_gives_a_python_float(self):
        for u in ([1, 2, 3, 4], np.array([1, 2, 3, 4])):
            out = dot(u, u)
            assert type(out) is float
            assert out == 1 - 4 - 9 - 16
        assert dot(np.arange(8).reshape(2, 4), E0).dtype == np.float64

    def test_complex_input_stays_complex(self):
        u = np.array([1.0 + 1.0j, 2.0j, 0.0, 1.0])
        assert dot(u, u) == (1.0 + 1.0j) ** 2 - (2.0j) ** 2 - 1.0
        assert type(dot(u, u)) is complex
        assert type(dot(u, E0)) is complex
        stack = np.stack([u, u])
        assert dot(stack, stack).dtype == np.complex128

    @given(four_vectors(), four_vectors())
    def test_symmetry(self, u, v):
        assert dot(u, v) == pytest.approx(dot(v, u), abs=1e-12)

    @given(four_vectors(), four_vectors(), four_vectors(), st.floats(-2, 2))
    def test_bilinearity(self, u, v, w, s):
        assert dot(s * u + w, v) == pytest.approx(s * dot(u, v) + dot(w, v), abs=1e-10)

    @given(four_vectors(), four_vectors())
    def test_agrees_with_lowered_contraction(self, u, v):
        assert dot(u, v) == pytest.approx(float(np.sum(u * lower_index(v))), abs=1e-12)


class TestIndexMaps:
    def test_lower_flips_space(self):
        np.testing.assert_array_equal(
            lower_index([1.0, 2.0, 3.0, 4.0]), [1.0, -2.0, -3.0, -4.0]
        )

    @given(four_vectors())
    def test_involution(self, v):
        np.testing.assert_allclose(raise_index(lower_index(v)), v, atol=0)


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
        assert classify_interval(3.54) is IntervalClass.TIMELIKE
        assert classify_interval(-0.2) is IntervalClass.SPACELIKE
        assert classify_interval(0.0) is IntervalClass.NULL
        assert classify_interval(5e-13) is IntervalClass.NULL


class TestCanonicalMomentum:
    def test_rest_frame(self):
        np.testing.assert_allclose(
            canonical_momentum([1, 0, 0, 0], 2.0), [-2.0, 0.0, 0.0, 0.0]
        )

    def test_parametrization_independent(self):
        p1 = canonical_momentum([2, 0.6, 0.3, 0.1], 1.3)
        p2 = canonical_momentum(np.array([2, 0.6, 0.3, 0.1]) * 7.5, 1.3)
        np.testing.assert_allclose(p1, p2, atol=1e-14)

    @given(timelike_vectors(), st.floats(0.1, 5.0))
    @settings(max_examples=60)
    def test_mass_shell(self, xdot, m):
        p = canonical_momentum(xdot, m)
        assert hamiltonian_constraint(p, m) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_spacelike_velocity(self):
        with pytest.raises(NonTimelikeVelocity):
            canonical_momentum([0.5, 1, 0, 0], 1.0)

    def test_rejects_null_velocity(self):
        with pytest.raises(NonTimelikeVelocity):
            canonical_momentum([1, 1, 0, 0], 1.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            canonical_momentum([1, 0, 0, 0], -1.0)


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

    def test_rejects_zero_mass(self):
        with pytest.raises(ZeroMass):
            classical_action([0, 0, 0, 0], [1, 0, 0, 0], 0.0)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            classical_action([0, 0, 0, 0], [1, 0, 0, 0], 1.0, branch=2)


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
