"""The potential phi(t) = t**p and its slope, as ModelParams evaluates them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkseg import ModelParams

positive = st.floats(1e-8, 1e8, allow_nan=False, allow_infinity=False)
exponents = st.floats(0.05, 0.95)


def model(p=0.5):
    return ModelParams(alpha=1.0, beta=1.0, p=p)


def test_default_exponent_is_square_root():
    params = ModelParams(alpha=1.0, beta=1.0)
    assert params.p == 0.5
    assert params.potential(4.0) == 2.0
    assert params.slope(4.0) == 0.25


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.5])
def test_exponent_must_be_strictly_fractional(p):
    with pytest.raises(ValueError):
        model(p)


def test_value_rejects_negative_and_deriv_rejects_zero():
    params = model()
    with pytest.raises(ValueError):
        params.potential(-1e-12)
    with pytest.raises(ValueError):
        params.slope(0.0)
    assert params.potential(0.0) == 0.0


def test_vectorized_evaluation():
    params = model(0.25)
    t = np.array([1.0, 16.0])
    np.testing.assert_allclose(params.potential(t), [1.0, 2.0])
    np.testing.assert_allclose(params.slope(t), [0.25, 0.25 / 8])


@settings(max_examples=200, deadline=None)
@given(p=exponents, t=positive)
def test_derivative_matches_finite_difference(p, t):
    params = model(p)
    h = t * 1e-7
    numeric = (params.potential(t + h) - params.potential(t - h)) / (2 * h)
    assert math.isclose(numeric, float(params.slope(t)), rel_tol=1e-4)


@settings(max_examples=200, deadline=None)
@given(p=exponents, s=positive, t=positive)
def test_concave_tangent_majorizes(p, s, t):
    # phi(s) <= phi(t) + phi'(t)(s - t): the linearization never dips
    # below the function, which is what the outer loop relies on
    params = model(p)
    tangent = params.potential(t) + params.slope(t) * (s - t)
    assert params.potential(s) <= tangent * (1 + 1e-12) + 1e-15


@settings(max_examples=100, deadline=None)
@given(p=exponents, s=positive, t=positive)
def test_monotone_increasing(p, s, t):
    params = model(p)
    lo, hi = sorted((s, t))
    assert params.potential(lo) <= params.potential(hi) + 1e-15


def test_derivative_blows_up_at_origin():
    assert model().slope(1e-300) > 1e100
