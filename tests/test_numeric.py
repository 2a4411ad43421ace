from fractions import Fraction

import pytest

from isoclass._numeric import ValidationError, check_points, parse_exact

TOKENS = (
    "0.123", "-0.5", "+1.5", "007", "1/3", "-2/4", "1.", ".5", "1e3", "1_000", "1/0", "-0", "1.0",
    "٣", "0x10", "", "-", "1/-3", " 2/6 ", "+0.000", "-12.50", "123456789012345678901234567890.5",
)


@pytest.mark.parametrize("token", TOKENS)
def test_parse_exact_equals_fraction_of_the_token(token):
    try:
        expected = Fraction(token)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            parse_exact(token)
        assert type(raised.value) is type(exc)
        return
    value = parse_exact(token)
    assert type(value) is Fraction
    assert value == expected
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_check_points_names_the_first_non_finite_coordinate():
    nan, inf = float("nan"), float("inf")
    assert check_points([[1, Fraction(1, 2)], (0.5, 10**400)], "point") == ((1, Fraction(1, 2)), (0.5, 10**400))
    assert check_points(iter(()), "point") == ()
    for points, message in (
        ([(0, 1), (2,)], "points have mixed dimensions: [1, 2]"),
        ([(0, 1), (Fraction(1), inf), (nan, 0)], "covariate of point 1 must be finite, got inf"),
        ([(0.0,), (10**400,), (-inf,)], "covariate of point 2 must be finite, got -inf"),
    ):
        with pytest.raises(ValidationError) as caught:
            check_points(points, "point")
        assert str(caught.value) == message
