from fractions import Fraction

import pytest

from isoclass._numeric import parse_exact

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
