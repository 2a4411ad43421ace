from fractions import Fraction
import random

import numpy as np
import pytest

from isoclass import (
    BernsteinClassifier, DiscreteDistribution, IsotoneProblem, TrialRecord, WeightedSample, basis, build_dag, c_plus_minus,
    delta_c, delta_c_weighted, empirical_risk, fit_bernstein, fit_monotone, hinge, lattice_dag, phi, solve,
)
from isoclass._numeric import WIDE, Points, ValidationError, finite_array, parse_column, read_points
from isoclass.io import load_points

TOKENS = (
    "0.123", "-0.5", "+1.5", "007", "1/3", "-2/4", "1.", ".5", "1e3", "1_000", "1/0", "-0", "1.0",
    "٣", "0x10", "", "-", "1/-3", " 2/6 ", "+0.000", "-12.50", "123456789012345678901234567890.5",
)


# each entry point that checks its numbers with check_finite, given the bool b where a number goes, and the name it gives it
BOOL_CHECKS = {
    "mass": (lambda b: DiscreteDistribution(((0,), (1,)), (b, 1 - int(b)), (0.5, 0.5)), "mass"),
    "eta": (lambda b: DiscreteDistribution(((0,),), (1,), (b,)), "eta"),
    "w_plus": (lambda b: DiscreteDistribution(((0,),), (1,), (0.5,), (b,)), "w_plus"),
    "w_minus": (lambda b: DiscreteDistribution(((0,),), (1,), (0.5,), None, (b,)), "w_minus"),
    "hinge scale": (hinge, "hinge scale"),
    "delta_c eta": (lambda b: delta_c(hinge(1), b), "eta"),
    "c_plus_minus eta": (lambda b: c_plus_minus(hinge(1), b), "eta"),
    "delta_c_weighted eta": (lambda b: delta_c_weighted(hinge(1), 1, 1, b), "eta"),
    "delta_c_weighted w_plus": (lambda b: delta_c_weighted(hinge(1), b, 1, 0.5), "w_plus"),
    "delta_c_weighted w_minus": (lambda b: delta_c_weighted(hinge(1), 1, b, 0.5), "w_minus"),
    "phi margin": (lambda b: phi(hinge(1), b), "margin"),
    "empirical_risk": (lambda b: empirical_risk((0.5, b), WeightedSample.unweighted((1, -1), ((0,), (1,))), hinge(1)), "classifier value of row 1"),
    "theta": (lambda b: BernsteinClassifier((1,), (-1, b)), "theta"),
    "basis x": (lambda b: basis(2, 1, b), "x"),
    "outcome z": (lambda b: TrialRecord(b, 1, (0,), 0.5), "outcome z"),
}


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("entry", sorted(BOOL_CHECKS))
def test_a_bool_is_refused_where_a_number_is_checked(entry, value):
    # True == 1 and False == 0, but a bool is not a number
    call, what = BOOL_CHECKS[entry]
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"{what} must be a number, got {value!r}"
    # the number the bool equals is accepted in its place; a hinge scale and a theta entry of 0 are not
    call(int(value) if entry not in ("hinge scale", "theta") else 1)


@pytest.mark.parametrize("token", TOKENS)
def test_parse_exact_equals_fraction_of_the_token(tmp_path, token):
    # a points file reads each token as Fraction(token), or names it; the second column keeps
    # the row of the empty token from being skipped as blank
    path = tmp_path / "p.csv"
    path.write_text(f"x1,x2\n{token},0\n", encoding="utf-8")
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError) as raised:
            load_points(str(path))
        assert str(raised.value) == f"{path}, line 2: cannot parse number {token.strip()!r}"
        return
    points = load_points(str(path))
    assert points.denominators is not None
    (value, zero), = points.rows()
    assert type(value) is Fraction and zero == 0
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_check_points_names_the_first_non_finite_coordinate():
    nan, inf = float("nan"), float("inf")
    assert read_points([[1, Fraction(1, 2)], (0.5, 10**400)], "point").rows() == ((1, Fraction(1, 2)), (0.5, 10**400))
    assert read_points(iter(()), "point").rows() == ()
    for points, message in (
        ([(0, 1), (2,)], "points have mixed dimensions: [1, 2]"),
        ([(0, 1), (Fraction(1), inf), (nan, 0)], "covariate of point 1 must be finite, got inf"),
        ([(0.0,), (10**400,), (-inf,)], "covariate of point 2 must be finite, got -inf"),
    ):
        with pytest.raises(ValidationError) as caught:
            read_points(points, "point")
        assert str(caught.value) == message


def test_parse_column_equals_parse_exact_or_falls_back():
    # the column path takes a column only when every token is in the grammar and fits int64;
    # what it takes must equal Fraction token by token
    in_grammar = ("0.250", "1/4", "-3", "+7", "007", "-0.5", "12/8", "0")
    outside = ("2.5e-1", " 1/4", "1_0", ".5", "1.", "", "1/0", "٣", "1\n2", "9223372036854775808", "0." + "1" * 19)
    rng = random.Random(83)
    for trial in range(400):
        column = [rng.choice(in_grammar) for _ in range(rng.randint(1, 6))]
        if trial % 3 == 0:
            column[rng.randrange(len(column))] = rng.choice(outside)
        parsed = parse_column(column)
        if any(token in outside for token in column):
            assert parsed is None
            continue
        numerators, den = parsed
        assert numerators.dtype == np.int64
        assert [Fraction(int(v), den) for v in numerators] == [Fraction(t) for t in column]
    # one denominator below 2**63 fits; the lcm of pairwise-coprime ones may leave int64
    assert parse_column(["9223372036854775807", "-9223372036854775808"])[1] == 1
    assert parse_column([f"1/{p}" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]) is None


def test_exact_points_read_as_the_fractions_they_hold():
    rng = np.random.default_rng(89)
    numerators = rng.integers(-3000, 3001, size=(50, 3))
    rows = Points(numerators, (3000, 1, 8))
    want = [tuple(Fraction(int(a), d) for a, d in zip(row, (3000, 1, 8))) for row in numerators]
    assert list(rows.rows()) == want and rows.rows(np.array([7, -1])) == (want[7], want[-1]) and len(rows) == 50
    assert all(type(v) is Fraction for row in rows.rows() for v in row)
    assert rows.texts() == [[str(v) for v in row] for row in want]
    index = np.array([4, 0, 4])
    assert rows.rows(index) == tuple(want[i] for i in index)
    assert rows.texts(index) == [[str(v) for v in want[i]] for i in index]


def _json_cells(rows) -> list:
    """The rule model files were written by before ``Points.texts`` did it: a Fraction as its ``str``, any other number as it is."""
    return [[str(v) if isinstance(v, Fraction) else v for v in p] for p in rows]


def _typed(cells) -> list:
    return [[(type(v), v) for v in row] for row in cells]


def test_texts_write_each_fraction_as_its_str_and_other_numbers_as_they_are():
    # each column draws from one or two kinds; a column of "wide" Fractions has a common denominator past WIDE
    rng = random.Random(101)
    kinds = {
        "ratio": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
        "int": lambda: rng.randint(-(10**20), 10**20),
        "float": lambda: rng.uniform(-4.0, 4.0),
        "dyadic": lambda: rng.randint(-16, 16) / 8,
        "wide": lambda: Fraction(rng.randint(-9, 9), rng.choice((3**90, 5**70, 7**60))),
    }
    seen = set()
    for _ in range(3000):
        d, n = rng.randint(1, 3), rng.randint(0, 8)
        columns = [rng.sample(sorted(kinds), rng.randint(1, 2)) for _ in range(d)]
        rows = [tuple(kinds[rng.choice(column)]() for column in columns) for _ in range(n)]
        given = read_points(rows, "point")
        built = Points(given.values, given.denominators)
        seen.add((given.denominators is None, any(v.dtype == object for v in given.values.T)))
        for index in (None, np.array([rng.randrange(n) for _ in range(rng.randint(0, 2 * n))] if n else [], dtype=np.intp)):
            picked = rows if index is None else [rows[i] for i in index.tolist()]
            assert _typed(given.texts(index)) == _typed(_json_cells(picked))
            assert given.rows(index) == tuple(picked) and all(a is b for a, b in zip(given.rows(index), picked))
            assert _typed(built.texts(index)) == _typed(_json_cells(built.rows(index)))
        if n and given.denominators is None:
            array = read_points(np.array(rows), "point")
            assert array.given is None and _typed(array.texts()) == _typed(_json_cells(rows))
    # float points, exact points in int64 and exact points past WIDE all occurred
    assert {(True, False), (False, False), (False, True)} <= seen


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(np.float64).maxexp, reason="longdouble is float64 here")
def test_a_finite_longdouble_beyond_float_range_builds_and_solves():
    big = np.longdouble(2) ** 1100
    assert finite_array([big], 1) is None
    values, _ = solve(IsotoneProblem(lattice_dag((1,)), (big, -1.0)))
    assert list(values) == [1, 1]


# nonempty points of dimension 0 are refused where they are read; no points are no points, at any width
ZERO_DIM = "must have at least one coordinate"


def test_fit_monotone_refuses_zero_dimensional_points():
    with pytest.raises(ValidationError, match=ZERO_DIM):
        fit_monotone(WeightedSample.unweighted([1, -1], [(), ()]))
    with pytest.raises(ValidationError, match="empty sample"):
        fit_monotone(WeightedSample.unweighted([], []))


def test_build_dag_refuses_zero_dimensional_points():
    for points in ([(), ()], [()], np.zeros((2, 0))):
        with pytest.raises(ValidationError, match=ZERO_DIM):
            build_dag(points)
    assert build_dag([]).n == build_dag(np.zeros((0, 3))).n == 0


def test_fit_bernstein_refuses_zero_dimensional_points():
    with pytest.raises(ValidationError, match=ZERO_DIM):
        fit_bernstein(WeightedSample.unweighted([1, -1], np.zeros((2, 0))), ())
    with pytest.raises(ValidationError, match="empty sample"):
        fit_bernstein(WeightedSample.unweighted([], np.zeros((0, 2))), (2, 2))
