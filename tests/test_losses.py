import math
import random
from fractions import Fraction

import pytest

from isoclass import (
    Loss,
    ValidationError,
    c_plus_minus,
    delta_c,
    delta_c_weighted,
    exponential,
    hinge,
    is_classification_calibrated,
    logistic,
    parse_loss,
    phi,
    quadratic,
    truncated_quadratic,
    zero_one,
)

ALL_LOSSES = (
    zero_one(),
    hinge(1),
    exponential(),
    logistic(),
    quadratic(),
    truncated_quadratic(),
)

# exp/logistic closed forms assume the pointwise minimizer stays inside the
# [-1, 1] range box; the interval below is where that holds
INTERIOR = {
    "exponential": (1 / (1 + math.e**2), math.e**2 / (1 + math.e**2)),
    "logistic": (1 / (1 + math.e), math.e / (1 + math.e)),
}


@pytest.mark.parametrize(
    "loss,margin,expected",
    [
        (hinge(1), Fraction(3, 10), Fraction(7, 10)),
        (hinge(1), 2, 0),
        (exponential(), 0, 1.0),
        (zero_one(), 0, 1),
        (zero_one(), 0.5, 0),
        (quadratic(), Fraction(1, 2), Fraction(1, 4)),
        (truncated_quadratic(), 3, 0),
        (hinge(2), -1, 4),
    ],
)
def test_phi_examples(loss, margin, expected):
    assert phi(loss, margin) == expected


def test_phi_rejects_non_finite_margin():
    with pytest.raises(ValidationError):
        phi(hinge(1), float("nan"))
    with pytest.raises(ValidationError):
        phi(exponential(), float("inf"))


@pytest.mark.parametrize(
    "loss,eta,expected",
    [
        (hinge(1), Fraction(3, 10), Fraction(2, 5)),
        (zero_one(), Fraction(1, 2), 0),
        (quadratic(), Fraction(1, 4), Fraction(1, 4)),
        (truncated_quadratic(), Fraction(3, 4), Fraction(-1, 4)),
    ],
)
def test_delta_c_exact_examples(loss, eta, expected):
    assert delta_c(loss, eta) == expected


def test_delta_c_exponential_matches_table_form():
    assert delta_c(exponential(), 0.2) == pytest.approx(0.2, abs=1e-12)
    assert delta_c(exponential(), 0.8) == pytest.approx(-0.2, abs=1e-12)


def test_delta_c_rejects_bad_eta():
    with pytest.raises(ValidationError):
        delta_c(hinge(1), Fraction(11, 10))
    with pytest.raises(ValidationError):
        delta_c(zero_one(), -0.1)


def test_hinge_scale_must_be_positive():
    with pytest.raises(ValidationError):
        hinge(0)
    with pytest.raises(ValidationError):
        hinge(-2)
    with pytest.raises(ValidationError):
        Loss("hinge", float("inf"))


def test_hinge_is_exactly_proportional_to_zero_one():
    rng = random.Random(11)
    for _ in range(200):
        eta = Fraction(rng.randint(0, 100), 100)
        c = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        assert delta_c(hinge(c), eta) == c * delta_c(zero_one(), eta)


def test_delta_c_sign_matches_one_minus_two_eta():
    rng = random.Random(5)
    for loss in ALL_LOSSES:
        for _ in range(200):
            eta = rng.random()
            if abs(eta - 0.5) < 1e-9:
                continue
            value = float(delta_c(loss, eta))
            assert (value > 0) == (eta < 0.5)
            assert (value < 0) == (eta > 0.5)


@pytest.mark.parametrize("loss", [exponential(), logistic(), quadratic(), truncated_quadratic()])
def test_non_hinge_losses_are_not_proportional_to_zero_one(loss):
    ratio_a = float(delta_c(loss, Fraction(2, 5))) / float(delta_c(zero_one(), Fraction(2, 5)))
    ratio_b = float(delta_c(loss, Fraction(3, 10))) / float(delta_c(zero_one(), Fraction(3, 10)))
    assert abs(ratio_a - ratio_b) > 1e-6


@pytest.mark.parametrize(
    "loss,eta,expected",
    [
        (hinge(1), Fraction(8, 10), (Fraction(2, 5), 1)),
        (hinge(1), Fraction(3, 10), (1, Fraction(3, 5))),
    ],
)
def test_c_plus_minus_hinge_examples(loss, eta, expected):
    assert c_plus_minus(loss, eta) == expected


@pytest.mark.parametrize("loss", [quadratic(), truncated_quadratic()])
def test_quadratic_c_plus_minus_are_exact_fractions(loss):
    for k in range(98):
        eta = Fraction(k, 97)
        # the minimiser 2 eta - 1 lies in one box; the other box's infimum is at 0
        inner = 4 * eta * (1 - eta)
        want = (1, inner) if eta < Fraction(1, 2) else (inner, 1)
        got = c_plus_minus(loss, eta)
        assert got == want
        assert all(type(v) is Fraction for v in got)


def _smooth_conditional_risk(kind, eta, f):
    e = float(eta)
    if kind == "exponential":
        return e * math.exp(-f) + (1 - e) * math.exp(f)
    return e * math.log1p(math.exp(-f)) + (1 - e) * math.log1p(math.exp(f))


@pytest.mark.parametrize("loss", [exponential(), logistic()])
def test_smooth_c_plus_minus_are_minima_over_a_grid(loss):
    rng = random.Random(97)
    tiny = Fraction(1, 10**400)
    etas = [rng.random() for _ in range(500)] + [0, 1, tiny, 1 - tiny, 5e-324]
    for eta in etas:
        for value, (lo, hi) in zip(c_plus_minus(loss, eta), ((0.0, 1.0), (-1.0, 0.0))):
            grid = [_smooth_conditional_risk(loss.kind, eta, lo + (hi - lo) * t / 2000) for t in range(2001)]
            assert value <= min(grid) + 1e-15
            assert value >= min(grid) - 1e-6


def test_c_plus_minus_truncated_quadratic_balanced():
    plus, minus = c_plus_minus(truncated_quadratic(), 0.5)
    assert plus == pytest.approx(minus, abs=1e-9)


def test_c_plus_minus_difference_equals_delta_c():
    rng = random.Random(23)
    for loss in ALL_LOSSES:
        lo, hi = INTERIOR.get(loss.kind, (0.0, 1.0))
        for _ in range(1000):
            eta = lo + (hi - lo) * rng.random()
            plus, minus = c_plus_minus(loss, eta)
            assert float(plus) - float(minus) == pytest.approx(
                float(delta_c(loss, eta)), abs=1e-9
            )


def test_range_box_binds_for_extreme_exponential_eta():
    # below 1/(1+e^2) the conditional minimizer would leave [-1, 0), so the
    # boxed infimum sits at f = -1 and exceeds the unconstrained closed form
    eta = 0.05
    plus, minus = c_plus_minus(exponential(), eta)
    assert plus == pytest.approx(1.0, abs=1e-9)
    assert minus == pytest.approx(eta * math.e + (1 - eta) / math.e, abs=1e-9)
    assert (plus - minus) < float(delta_c(exponential(), eta))


@pytest.mark.parametrize(
    "loss,w_plus,w_minus,eta,expected",
    [
        (hinge(1), 2, 1, Fraction(1, 2), Fraction(-1, 2)),
        (zero_one(), 1, 1, Fraction(3, 10), Fraction(2, 5)),
        (exponential(), 3, 2, Fraction(2, 5), 0.0),  # mu+ = mu- = 6/5
    ],
)
def test_delta_c_weighted_examples(loss, w_plus, w_minus, eta, expected):
    got = delta_c_weighted(loss, w_plus, w_minus, eta)
    if isinstance(expected, float):
        assert got == pytest.approx(expected, abs=1e-12)
    else:
        assert got == expected


def test_delta_c_weighted_hinge_closed_form():
    rng = random.Random(3)
    for _ in range(1000):
        c = 0.25 + 4 * rng.random()
        wp, wm, eta = 5 * rng.random(), 5 * rng.random(), rng.random()
        want = c * (-wp * eta + wm * (1 - eta))
        assert delta_c_weighted(hinge(c), wp, wm, eta) == pytest.approx(want, abs=1e-12)


def test_delta_c_weighted_unit_weights_reduce_to_delta_c():
    rng = random.Random(7)
    for loss in ALL_LOSSES:
        for _ in range(300):
            eta = rng.random()
            assert delta_c_weighted(loss, 1, 1, eta) == pytest.approx(
                float(delta_c(loss, eta)), abs=1e-12
            )


def test_delta_c_weighted_rejects_negative_weights():
    with pytest.raises(ValidationError):
        delta_c_weighted(hinge(1), -1, 1, 0.5)
    with pytest.raises(ValidationError):
        delta_c_weighted(quadratic(), 1, -0.5, 0.5)


def test_builtin_losses_are_calibrated():
    for loss in ALL_LOSSES:
        assert is_classification_calibrated(loss)


def test_user_loss_calibration_check():
    assert not is_classification_calibrated(lambda a: 1.0)  # constant
    assert is_classification_calibrated(lambda a: max(0.0, 1.0 - a))
    assert is_classification_calibrated(lambda a: math.exp(-a))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("zero-one", zero_one()),
        ("hinge:2", hinge(Fraction(2))),
        ("hinge:1/2", hinge(Fraction(1, 2))),
        ("exp", exponential()),
        ("logistic", logistic()),
        ("quad", quadratic()),
        ("tquad", truncated_quadratic()),
    ],
)
def test_parse_loss(text, expected):
    assert parse_loss(text) == expected


def test_parse_loss_rejects_unknown():
    with pytest.raises(ValidationError):
        parse_loss("ramp")
    with pytest.raises(ValidationError):
        parse_loss("hinge:zero")
