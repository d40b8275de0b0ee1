import math

import numpy as np
import pytest

from specorder.errors import EvaluationError, ParameterError
from specorder.functions import (
    BorelFunction,
    clipped_affine_fn,
    coordinate_fn,
    fractional_fn,
    indicator_fn,
    monomial_fn,
    parts_fns,
    product_fn,
    sum_fn,
    table_fn,
)


def test_monomial_zero_exponent_convention():
    f = monomial_fn((0, 0))
    assert f((0.0, 0.0)) == 1.0
    assert f((5.0, -3.0)) == 1.0


def test_monomial_values():
    f = monomial_fn((2, 1))
    assert f((3.0, 4.0)) == 36.0
    assert f((-2.0, 1.0)) == 4.0


def test_fractional_on_atoms():
    f = fractional_fn((0.5, 0.5))
    assert f((4.0, 9.0)) == 6.0
    # negative orthant killed by the indicator, no complex drift
    assert f((-1.0, 1.0)) == 0.0
    assert fractional_fn((0.0, 0.0))((0.0, 0.0)) == 1.0


def test_fractional_tol_is_one_number_or_one_per_coordinate():
    assert fractional_fn((0.5, 0.5), tol=(0.0, 1e-9))((1e-10, -1e-10)) == 0.0
    # a third entry failed only at evaluation, as a numpy broadcasting error
    with pytest.raises(ParameterError, match="one number or 2"):
        fractional_fn((0.5, 0.5), tol=(0.0, 0.0, 0.0))


def test_coordinate_and_sum_and_product():
    assert coordinate_fn(1, 2)((3.0, 7.0)) == 7.0
    assert sum_fn(3)((1.0, 2.0, 3.0)) == 6.0
    assert product_fn(2)((3.0, -2.0)) == -6.0
    with pytest.raises(ParameterError):
        coordinate_fn(2, 2)


def test_clipped_affine():
    f = clipped_affine_fn((1.0, 1.0), 0.0, 1.0)
    assert f((0.3, 0.4)) == pytest.approx(0.7)
    assert f((5.0, 5.0)) == 1.0
    assert f((-3.0, 0.0)) == 0.0
    assert f.monotone_iota == 2
    with pytest.raises(ParameterError):
        clipped_affine_fn((1.0, -1.0), 0.0, 1.0)
    with pytest.raises(ParameterError):
        clipped_affine_fn((1.0,), 2.0, 1.0)


def test_parts_signs():
    plus, minus = parts_fns("+-")
    assert plus((-2.0, 9.0)) == 0.0
    assert plus((3.0, 9.0)) == 3.0
    assert minus((9.0, -2.0)) == -2.0
    assert minus((9.0, 3.0)) == 0.0
    with pytest.raises(ParameterError):
        parts_fns("+?")


def test_indicator_fn():
    inside = indicator_fn(lambda x: x[0] <= 0, tag="halfline")
    assert inside((-1.0,)) == 1.0
    assert inside((1.0,)) == 0.0


def test_table_fn_exact_keys():
    f = table_fn({(0.0, 1.0): 5.0})
    assert f((0.0, 1.0)) == 5.0
    assert f((0.0, 1.0 + 1e-17)) == 5.0  # rounds to the same float
    with pytest.raises(EvaluationError):
        f((0.0, 2.0))


def test_nonfinite_value_raises():
    bad = monomial_fn((400,))
    with pytest.raises(EvaluationError):
        bad((1e300,))
    assert math.isfinite(bad((1.0,)))


def test_on_points_vectorizes():
    f = sum_fn(2)
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(f.on_points(pts), [1.0, 5.0])


def test_evaluation_error_names_the_cause_with_plain_floats():
    with pytest.raises(EvaluationError, match=r"value not finite at point \(1e\+300,\)$"):
        monomial_fn((400,))((1e300,))
    undefined = BorelFunction(tag="nothing", fn=lambda x: None)
    with pytest.raises(EvaluationError, match=r"undefined at point \(1\.5, -2\.0\)$"):
        undefined(np.array([1.5, -2.0]))
