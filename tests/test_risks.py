import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_rational_distribution, rational_eta

from isoclass import (
    DiscreteDistribution,
    PredictionSet,
    ValidationError,
    WeightedSample,
    c_plus_minus,
    classification_risk_at_set,
    delta_c,
    delta_c_weighted,
    empirical_risk,
    enumerate_up_sets,
    build_dag,
    exponential,
    hinge,
    logistic,
    quadratic,
    surrogate_risk_at_set,
    truncated_quadratic,
    weighted_risk_at_set,
    zero_one,
)
from isoclass.bench import example_distribution_1
from isoclass.risks import set_risks
from isoclass.bernstein import float_points
from isoclass.monotone import fit as fit_monotone

THIRD = Fraction(1, 3)


def chain_sets(dist):
    return list(enumerate_up_sets(build_dag(dist.points)))


def test_classification_risk_examples():
    dist = example_distribution_1()
    empty = PredictionSet((False,) * 3)
    full = PredictionSet((True,) * 3)
    assert classification_risk_at_set(dist, empty) == Fraction(14, 30)
    assert classification_risk_at_set(dist, full) == Fraction(16, 30)
    sure = DiscreteDistribution(((0,), (1,)), (THIRD, 2 * THIRD), (1, 1))
    assert classification_risk_at_set(sure, PredictionSet((True, True))) == 0


def test_classification_risk_length_mismatch():
    dist = example_distribution_1()
    with pytest.raises(ValidationError):
        classification_risk_at_set(dist, PredictionSet((True,)))


def test_hinge_set_risk_is_the_pointwise_infimum():
    # at the empty set every point contributes the minimal conditional risk
    # over f(x) in [-1, 0): 1, 2*0.3, 2*0.2 with a uniform third of mass each
    dist = example_distribution_1()
    empty = PredictionSet((False,) * 3)
    assert surrogate_risk_at_set(dist, empty, hinge(1)) == Fraction(2, 3)
    # full support: C+ is 2c(1-eta) = 1/5 at eta = 0.9 and c = 1 at the others
    full = PredictionSet((True,) * 3)
    assert surrogate_risk_at_set(dist, full, hinge(1)) == Fraction(11, 15)


def test_set_risk_telescoping_difference():
    rng = random.Random(2)
    for _ in range(20):
        dist = random_rational_distribution(rng)
        empty = PredictionSet((False,) * dist.n)
        full = PredictionSet((True,) * dist.n)
        for loss in (hinge(2), exponential()):
            gap = sum(
                m * (c_plus_minus(loss, e)[0] - c_plus_minus(loss, e)[1])
                for m, e in zip(dist.mass, dist.eta)
            )
            diff = surrogate_risk_at_set(dist, full, loss) - surrogate_risk_at_set(
                dist, empty, loss
            )
            assert float(diff) == pytest.approx(float(gap), abs=1e-12)


def test_set_risks_are_the_point_order_sums_of_their_rows():
    # the reference sums each row from the int 0, in point order, as Python adds
    def loop(terms, row):
        total = 0
        for (inside, outside), member in zip(terms, row):
            total += inside if member else outside
        return total

    rng = random.Random(27)
    floats = (-0.0, 0.0, 1e-300, 0.1, 1 / 3, 1.0, 3e15, 1e16, 1e300)
    for trial in range(60):
        n = rng.randint(0, 20)
        if trial % 3 == 0:
            # numerators far beyond int64 over unrelated denominators
            terms = [tuple(Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6)) for _ in "io") for _ in range(n)]
        elif trial % 3 == 1:
            terms = [tuple(rng.randint(-9, 9) for _ in "io") for _ in range(n)]
        else:
            terms = [tuple(rng.choice((-1, 1)) * rng.choice(floats) for _ in "io") for _ in range(n)]
        rows = rng.randint(1, 6)
        members = np.array([rng.random() < 0.5 for _ in range(rows * n)], dtype=bool).reshape(rows, n)
        got = set_risks(terms, members)
        want = [loop(terms, row) for row in members.tolist()]
        assert got == want
        kind = float if trial % 3 == 2 and n else Fraction
        assert [type(r) for r in got] == [kind] * len(want)
        assert [str(r) for r in got] == [str(kind(r)) for r in want]
    # int64 holds each numerator, not their sum
    assert set_risks([(2**62, 0)] * 3, np.ones((1, 3), dtype=bool)) == [3 * 2**62]
    # -0.0 alone sums to 0.0, as 0 + -0.0 does
    assert str(set_risks([(-0.0, -0.0)] * 2, np.array([[True, False]]))[0]) == "0.0"
    with pytest.raises(ValidationError, match="^prediction set has 2 flags for 3 support points$"):
        set_risks([(0, 1)] * 3, np.ones((1, 2), dtype=bool))


def test_exponential_argmin_is_full_support_on_example_1():
    dist = example_distribution_1()
    sets = chain_sets(dist)
    risks = [surrogate_risk_at_set(dist, g, exponential()) for g in sets]
    assert min(range(len(sets)), key=risks.__getitem__) == len(sets) - 1
    assert sets[-1].indices == (0, 1, 2)


def test_hinge_and_zero_one_orderings_agree():
    rng = random.Random(9)
    for _ in range(60):
        dist = random_rational_distribution(rng, max_points=5)
        sets = chain_sets(dist)
        hinge_risks = [surrogate_risk_at_set(dist, g, hinge(3)) for g in sets]
        class_risks = [classification_risk_at_set(dist, g) for g in sets]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                lhs = hinge_risks[i] - hinge_risks[j]
                rhs = class_risks[i] - class_risks[j]
                assert (lhs > 0) == (rhs > 0) and (lhs < 0) == (rhs < 0)


def test_generalized_zhang_inequality_holds_exactly():
    rng = random.Random(17)
    for _ in range(100):
        dist = random_rational_distribution(rng, max_points=5, d=rng.randint(1, 2))
        dag = build_dag(dist.points)
        sets = list(enumerate_up_sets(dag))
        c = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        loss = hinge(c)
        best_class = min(classification_risk_at_set(dist, g) for g in sets)
        best_hinge = min(surrogate_risk_at_set(dist, g, loss) for g in sets)
        # a random classifier with values in [-1,1] whose prediction set is a
        # random up-set (no monotonicity of the values themselves is needed)
        g = rng.choice(sets)
        values = [
            Fraction(rng.randint(0, 20), 20) if inside else Fraction(-rng.randint(1, 20), 20)
            for inside in g.members
        ]
        risk_f = classification_risk_at_set(dist, g)
        hinge_f = sum(
            m * (c * (1 - 2 * e) * f + c)
            for m, e, f in zip(dist.mass, dist.eta, values)
        )
        assert c * (risk_f - best_class) <= hinge_f - best_hinge


def test_weighted_risk_reduces_to_classification_with_unit_weights():
    dist = example_distribution_1()
    empty = PredictionSet((False,) * 3)
    assert weighted_risk_at_set(dist, empty) == Fraction(14, 30)


def test_weighted_risk_single_point_examples():
    treat = DiscreteDistribution(((0,),), (1,), (1,), (2,), (0,))
    assert weighted_risk_at_set(treat, PredictionSet((False,))) == 2
    ctrl = DiscreteDistribution(((0,),), (1,), (0,), (0,), (3,))
    assert weighted_risk_at_set(ctrl, PredictionSet((True,))) == 3


def test_weighted_risk_keeps_the_inside_term_beside_a_huge_outside_weight():
    # inside the set a point costs m w- (1 - eta); built as m (gap + w+ eta), gap = w- (1 - eta) - w+ eta,
    # it is lost in floats beside a huge w+ eta
    one = DiscreteDistribution(((0,),), (1.0,), (0.5,), (1e16,), (1.0,))
    assert weighted_risk_at_set(one, PredictionSet((True,))) == 0.5
    assert weighted_risk_at_set(one, PredictionSet((False,))) == 5e15
    two = DiscreteDistribution(((0,), (1,)), (0.5, 0.5), (0.5, 0.33), (1e16, 1.0), (1.0, 1.0))
    risk = weighted_risk_at_set(two, PredictionSet((True, True)))
    assert risk == 0.5 * (1.0 * 0.5) + 0.5 * (1.0 * (1 - 0.33)) and risk == pytest.approx(0.585)
    # exact terms give the closed form
    exact = DiscreteDistribution(
        ((0,), (1,)), (Fraction(1, 2),) * 2, (Fraction(1, 2), Fraction(33, 100)), (10**16, 1), (1, 1)
    )
    assert weighted_risk_at_set(exact, PredictionSet((True, True))) == Fraction(117, 200)
    assert weighted_risk_at_set(exact, PredictionSet((False, True))) == Fraction(10**16, 4) + Fraction(67, 200)
    assert weighted_risk_at_set(exact, PredictionSet((False, False))) == Fraction(10**16, 4) + Fraction(33, 200)


def test_weighted_hinge_ordering_agrees_with_weighted_zero_one():
    # orderings under the weighted gap c(-mu+ + mu-) match the weighted 0-1 gap
    rng = random.Random(31)
    for _ in range(50):
        dist = DiscreteDistribution(
            ((0,), (1,), (2,)),
            (THIRD, THIRD, THIRD),
            tuple(rational_eta(rng) for _ in range(3)),
            tuple(Fraction(rng.randint(0, 12), 4) for _ in range(3)),
            tuple(Fraction(rng.randint(0, 12), 4) for _ in range(3)),
        )
        sets = chain_sets(dist)
        weighted = [weighted_risk_at_set(dist, g) for g in sets]
        c = Fraction(rng.randint(1, 5))
        scaled = [
            sum(
                m * (c * (-wp * e + wm * (1 - e)) * int(inside) + c * wp * e)
                for m, e, wp, wm, inside in zip(
                    dist.mass, dist.eta, dist.w_plus, dist.w_minus, g.members
                )
            )
            for g in sets
        ]
        for i in range(len(sets)):
            for j in range(len(sets)):
                assert (weighted[i] <= weighted[j]) == (scaled[i] <= scaled[j])


def test_empirical_risk_examples():
    two = WeightedSample.unweighted([-1, 1], [(0,), (1,)])
    assert empirical_risk([-1, 1], two, hinge(1)) == 0
    flipped = WeightedSample.unweighted([1, -1], [(0,), (1,)])
    assert empirical_risk([1, 1], flipped, hinge(1)) == 1
    weighted = WeightedSample((2,), (-1,), ((0,),))
    assert empirical_risk([0], weighted, zero_one()) == 2


def test_empirical_hinge_rejects_values_outside_box():
    sample = WeightedSample.unweighted([1], [(0,)])
    with pytest.raises(ValidationError):
        empirical_risk([1.5], sample, hinge(1))


def test_empirical_risk_refuses_non_finite_values_under_every_loss():
    # sign(nan) is -1: unchecked, the 0-1 loss would score [nan, nan] on labels (1, -1) as 1/2
    sample = WeightedSample.unweighted([1, -1], [(0,), (1,)])
    with pytest.raises(ValidationError, match=r"^classifier value of row 0 must be finite, got nan$"):
        empirical_risk([float("nan")] * 2, sample, zero_one())
    for loss in (zero_one(), hinge(1), exponential(), logistic(), quadratic(), truncated_quadratic()):
        for bad in (float("nan"), float("inf"), float("-inf"), np.float64("nan")):
            with pytest.raises(ValidationError, match=r"^classifier value of row 1 must be finite"):
                empirical_risk([Fraction(1, 2), bad], sample, loss)
        assert empirical_risk([Fraction(1, 2), Fraction(-1, 2)], sample, loss) is not None


def test_sample_validation():
    with pytest.raises(ValidationError):
        WeightedSample((-1,), (1,), ((0,),))
    with pytest.raises(ValidationError):
        WeightedSample((1,), (2,), ((0,),))
    with pytest.raises(ValidationError):
        WeightedSample((1, 1), (1, -1), ((0,), (0, 1)))


def test_sample_validation_names_the_first_bad_row():
    def rejects(weights, labels, points, message):
        with pytest.raises(ValidationError) as caught:
            WeightedSample(weights, labels, points)
        assert str(caught.value) == message

    pts = [(0.0,), (1,), (Fraction(1, 2),), (3.0,)]
    nan, inf = float("nan"), float("inf")
    rejects((1, 1, nan, 1), (1,) * 4, pts, "weight of row 2 must be finite, got nan")
    rejects((1, inf, nan, 1), (1,) * 4, pts, "weight of row 1 must be finite, got inf")
    rejects((1, 1, -1, nan), (1,) * 4, pts, "row 2: weight must be nonnegative, got -1")
    rejects((1, 1, 1, -0.5), (1,) * 4, pts, "row 3: weight must be nonnegative, got -0.5")
    tiny = Fraction(-1, 10**400)  # float() rounds it to -0.0
    rejects((1, tiny, 1, 1), (1,) * 4, pts, f"row 1: weight must be nonnegative, got {tiny!r}")
    rejects((1,) * 4, (1, -1, 0, 2), pts, "row 2: label must be -1 or +1, got 0")
    rejects((1,) * 4, (1,) * 4, [(0.0,), (1,), (nan,), (inf,)], "covariate of row 2 must be finite, got nan")
    rejects((1,) * 4, (1,) * 4, [(0.0,), (-inf,), (nan,), (1,)], "covariate of row 1 must be finite, got -inf")
    # beyond float range but finite: still accepted
    sample = WeightedSample((10**400, -0.0, Fraction(1, 3), 2), (1, -1, 1, -1), [(10**400,), (1,), (-(10**400),), (0.5,)])
    assert sample.n == 4 and sample.points[0] == (10**400,)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        DiscreteDistribution(((0,), (0,)), (THIRD, 2 * THIRD), (0, 1))
    with pytest.raises(ValidationError):
        DiscreteDistribution(((0,), (1,)), (THIRD, THIRD), (0, 1))
    with pytest.raises(ValidationError):
        DiscreteDistribution(((0,),), (1,), (Fraction(3, 2),))


HALF = Fraction(1, 2)
# each ranged number: what its error names, and a call reading value v in its place
RANGED = (
    pytest.param("eta", lambda v: delta_c(hinge(1), v), id="delta_c-eta"),
    pytest.param("eta", lambda v: c_plus_minus(hinge(1), v), id="c_plus_minus-eta"),
    pytest.param("eta", lambda v: delta_c_weighted(hinge(1), 1, 1, v), id="delta_c_weighted-eta"),
    pytest.param("w_plus", lambda v: delta_c_weighted(hinge(1), v, 1, HALF), id="delta_c_weighted-w_plus"),
    pytest.param("w_minus", lambda v: delta_c_weighted(hinge(1), 1, v, HALF), id="delta_c_weighted-w_minus"),
    pytest.param("mass", lambda v: DiscreteDistribution(((0,), (1,)), (1, v), (HALF, HALF)), id="distribution-mass"),
    pytest.param("eta", lambda v: DiscreteDistribution(((0,), (1,)), (HALF, HALF), (HALF, v)), id="distribution-eta"),
    pytest.param("w_plus", lambda v: DiscreteDistribution(((0,), (1,)), (HALF, HALF), (HALF, HALF), (1, v)), id="distribution-w_plus"),
    pytest.param("w_minus", lambda v: DiscreteDistribution(((0,), (1,)), (HALF, HALF), (HALF, HALF), None, (1, v)), id="distribution-w_minus"),
)


@pytest.mark.parametrize("what, call", RANGED)
def test_ranged_numbers_name_their_range(what, call):
    rule = "lie in [0, 1]" if what == "eta" else "be nonnegative"
    cases = [(-1, "-1"), (Fraction(-1, 2), "Fraction(-1, 2)"), (-0.5, "-0.5")]
    cases += [(Fraction(3, 2), "Fraction(3, 2)"), (3 / 2, "1.5")] if what == "eta" else []
    for value, shown in cases:
        with pytest.raises(ValidationError) as caught:
            call(value)
        assert str(caught.value) == f"{what} must {rule}, got {shown}"
    for value, shown in ((float("nan"), "nan"), (float("inf"), "inf")):
        with pytest.raises(ValidationError) as caught:
            call(value)
        assert str(caught.value) == f"{what} must be finite, got {shown}"


@pytest.mark.parametrize("what, call", RANGED)
def test_ranged_numbers_refuse_a_non_number(what, call):
    for value in ("a", None):
        with pytest.raises(ValidationError) as caught:
            call(value)
        assert str(caught.value) == f"{what} must be a number, got {value!r}"


def test_ranged_numbers_are_checked_in_order():
    # eta, then w+, then w-; a distribution checks mass, eta, w+, w-
    for args, what in (((-1, -1, 2), "eta"), ((-1, -1, HALF), "w_plus"), ((1, -1, HALF), "w_minus")):
        with pytest.raises(ValidationError, match=f"^{what} "):
            delta_c_weighted(hinge(1), *args)
    with pytest.raises(ValidationError, match="^mass "):
        DiscreteDistribution(((0,),), (-1,), (2,), (-1,), (-1,))
    with pytest.raises(ValidationError, match="^eta "):
        DiscreteDistribution(((0,),), (1,), (2,), (-1,), (-1,))


def test_distribution_rejects_mixed_dimensions_and_non_finite_points():
    for points, message in (
        (((0,), (1, 2)), "mixed dimensions"),
        (((0, 1), (1, float("nan"))), "covariate of support point 1 must be finite"),
        (((float("-inf"),), (1,)), "covariate of support point 0 must be finite"),
    ):
        with pytest.raises(ValidationError, match=message):
            DiscreteDistribution(points, (THIRD, 2 * THIRD), (0, 1))


def test_labels_are_checked_before_int_maps_them():
    def message(labels):
        with pytest.raises(ValidationError) as caught:
            WeightedSample((1,) * len(labels), labels, [(0.1,)] * len(labels))
        return str(caught.value)

    # int() would have truncated 1.7 and -1.2 to a valid (1, -1), and 0.9 to 0
    assert message((1.7, -1.2)) == "row 0: label must be -1 or +1, got 1.7"
    assert message((1, 0.9)) == "row 1: label must be -1 or +1, got 0.9"
    assert message((-1, Fraction(3, 2))) == "row 1: label must be -1 or +1, got Fraction(3, 2)"
    # values equal to -1 or +1 stay accepted and become ints
    sample = WeightedSample((1,) * 4, (1.0, Fraction(-1), -1.0, Fraction(1)), [(0.1,)] * 4)
    assert sample.labels == (1, -1, -1, 1) and all(type(y) is int for y in sample.labels)


def test_bool_labels_are_refused():
    def message(labels):
        with pytest.raises(ValidationError) as caught:
            WeightedSample((1, 1), labels, ((0,), (1,)))
        return str(caught.value)

    # a bool is neither -1 nor +1, as MonotoneClassifier has it, although True == 1
    assert message((True, -1)) == "row 0: label must be -1 or +1, got True"
    assert message([1, False]) == "row 1: label must be -1 or +1, got False"
    assert message(np.array([True, True])) == "row 0: label must be -1 or +1, got True"
    assert message(np.array([1, True], dtype=object)) == "row 1: label must be -1 or +1, got True"
    assert message((-1, np.True_)).startswith("row 1: label must be -1 or +1")
    assert WeightedSample((1, 1), np.array([1, -1]), ((0,), (1,))).labels == (1, -1)


def test_bool_weights_and_coordinates_are_refused():
    def message(weights, points):
        with pytest.raises(ValidationError) as caught:
            WeightedSample(weights, (1, -1), points)
        return str(caught.value)

    # True == 1, but a bool is not a number: the first one is named, a bool array's as a numpy bool
    assert message((True, False), ((0,), (1,))) == "row 0: a bool is not a number, got True"
    assert message([1, np.False_], ((0,), (1,))) == "row 1: a bool is not a number, got np.False_"
    assert message(np.array([True, True]), ((0,), (1,))) == "row 0: a bool is not a number, got np.True_"
    assert message((1, 1), ((True,), (False,))) == "row 0: a bool is not a number, got True"
    assert message((1, 1), ((0.5, 1), (0.25, np.True_))) == "row 1: a bool is not a number, got np.True_"
    assert message((1, 1), np.array([[False], [True]])) == "row 0: a bool is not a number, got np.False_"
    with pytest.raises(ValidationError, match="row 2: a bool is not a number"):
        build_dag([(0,), (1,), (True,)])
    # numbers equal to 1 and 0 stay accepted, as do an int and a float array
    assert WeightedSample((1, 0.0), (1, -1), ((1,), (Fraction(0),))).weights == (1, 0.0)
    assert WeightedSample(np.array([1, 0]), (1, -1), np.array([[1.0], [0.0]])).weights == (1, 0)


def test_sample_keeps_its_float_coordinates_and_weights_read_only():
    # a mixed sample keeps exact columns, its floats taken exactly; the floats a Bernstein fit
    # reads are float(v), as float_points gives; its weights are numerators over one scale, read back as given
    big = 2**53 + 1
    sample = WeightedSample((1, Fraction(1, 3), 0.25), (1, -1, 1), [(0.5, big), (Fraction(1, 3), 2), (0.1, 0.2)])
    assert sample._points.denominators is not None and list(sample._points.rows()) == [tuple(map(Fraction, p)) for p in sample.points]
    assert float_points(sample.points, 2).tolist() == [[0.5, float(big)], [float(Fraction(1, 3)), 2.0], [0.1, 0.2]]
    assert sample._points.floats().tolist() == float_points(sample.points, 2).tolist()
    assert sample._weights.tolist() == [12, 4, 3] and sample._weight_scale == 12 and sample._labels.tolist() == [1, -1, 1]
    assert sample.weights == (1, Fraction(1, 3), 0.25) and type(sample.weights[2]) is float
    assert not sample._weights.flags.writeable and not sample._labels.flags.writeable
    floats = WeightedSample((1, 1), (1, -1), [(0.5, 0.25), (-0.0, 3.0)])
    assert floats._points.values.tolist() == [[0.5, 0.25], [-0.0, 3.0]] and np.signbit(floats._points.values[1, 0])
    assert not floats._points.values.flags.writeable
    # beyond float range the columns stay exact, as Python ints; the fits that need floats then raise
    huge = WeightedSample((10**400, 1), (1, -1), [(10**400,), (1,)])
    assert huge._points.denominators is not None and huge._weights.dtype == object and huge._points.values.dtype == object
    # equality and the repr look at the three given fields only
    assert WeightedSample((1,), (1,), [(0.5,)]) == WeightedSample((1,), (1,), [(0.5,)])
    assert not any(name in repr(sample) for name in ("_points", "_weights", "_labels"))


def test_sample_reads_back_the_weights_it_was_given():
    # fits read the exact numerators; the weights read back are the objects given, so a risk summed over them stays a float
    given = (1, 0.5, np.float64(0.25))
    sample = WeightedSample(given, (1, -1, 1), [(0,), (1,), (2,)])
    assert sample._weights.tolist() == [4, 2, 1] and sample._weight_scale == 4
    assert sample.weights is given and [type(w) for w in sample.weights] == [int, float, np.float64]
    risk = empirical_risk((1, 1, -1), sample, hinge())
    assert isinstance(risk, float) and not isinstance(risk, Fraction) and risk == (0 + 0.5 * 2 + 0.25 * 2) / 3


def _bits(array):
    return None if array is None else (array.dtype, array.shape, array.tobytes())


def test_array_sample_equals_its_tuple_built_copy():
    rng = np.random.default_rng(41)
    values = np.array([-0.0, 0.0, 0.5, -1.25, 5e-324, 1e300, 0.1, 2.0])
    for d in (1, 2, 3):
        for n in (0, 1, 2, 9, 300):
            points = rng.choice(values, size=(n, d))
            labels = rng.choice((-1, 1), size=n)
            weights = rng.integers(0, 4, size=n)
            copy = WeightedSample(tuple(weights.tolist()), tuple(labels.tolist()), [tuple(p) for p in points.tolist()])
            for sample in (
                WeightedSample(weights, labels, points),
                WeightedSample(weights, labels.astype(float), points),
                WeightedSample(weights.astype(np.uint8), labels.astype(np.int8), points),
            ):
                assert sample == copy and type(sample.points) is tuple
                assert all(type(p) is tuple for p in sample.points)
                assert all(type(v) is float for p in sample.points for v in p)
                assert all(type(y) is int for y in sample.labels) and all(type(w) is int for w in sample.weights)
                assert [[str(v) for v in p] for p in sample.points] == [[str(v) for v in p] for p in copy.points]
                assert (sample._points.denominators is None) == (copy._points.denominators is None) == (n != 0)
                assert _bits(sample._points.values) == _bits(copy._points.values)
                for name in ("_weights", "_labels"):
                    assert _bits(getattr(sample, name)) == _bits(getattr(copy, name)), name
                assert not sample._points.values.flags.writeable
    # the kept matrix is a copy: changing the caller's array afterwards changes nothing
    points = np.array([[0.5], [0.25]])
    sample = WeightedSample.unweighted(np.array([1, -1]), points)
    points[0, 0] = 9.0
    assert sample.points == ((0.5,), (0.25,)) and sample._points.values.tolist() == [[0.5], [0.25]]
    # float32 coordinates become the float64 values they equal
    narrow = WeightedSample.unweighted(np.array([1]), np.array([[0.1]], dtype=np.float32))
    assert narrow.points == ((float(np.float32(0.1)),),)


def test_array_sample_errors_are_those_of_the_tuple_path():
    def message(weights, labels, points):
        with pytest.raises(ValidationError) as caught:
            WeightedSample(weights, labels, points)
        return str(caught.value)

    nan, inf = float("nan"), float("inf")
    ones = np.ones(3, dtype=np.int64)
    for bad in ([[0.0, 1.0], [0.5, nan], [inf, 0.0]], [[0.0, -inf], [0.5, 1.0], [nan, 0.0]], [[0.0, 1.0], [0.5, 1.0], [1.0, inf]]):
        want = message((1,) * 3, (1,) * 3, [tuple(p) for p in bad])
        assert message(ones, ones, np.array(bad)) == want and "must be finite" in want
    points = np.zeros((3, 1))
    for labels in ([1, 0, -1], [1, -1, 2], [1.0, 1.5, -1.0], [-1.0, 1.0, nan]):
        want = message((1,) * 3, tuple(labels), [(0.0,)] * 3)
        assert message(ones, np.array(labels), points) == want and "label must be -1 or +1" in want
    assert message(np.array([1, -3, 2]), ones, points) == message((1, -3, 2), (1,) * 3, [(0.0,)] * 3)
    assert message(np.ones(2, dtype=int), ones, points) == "weights, labels and points must have equal length"
    for shape in ((3,), (3, 1, 1)):
        assert "must have shape (n, d)" in message(ones, ones, np.zeros(shape))


def test_non_float_point_arrays_are_read_as_sequences():
    for points in (np.array([[1, 2], [3, 4]]), np.array([[Fraction(1, 3)], [1]], dtype=object)):
        sample = WeightedSample((1, 1), (1, -1), points)
        copy = WeightedSample((1, 1), (1, -1), [tuple(p) for p in points])
        assert sample == copy and sample._points.denominators is not None
        assert [list(map(type, p)) for p in sample.points] == [list(map(type, p)) for p in copy.points]


def test_numpy_integer_weights_become_python_ints():
    # int64 sums of these weights overflow; as Python ints they do not
    points, labels = [(0.0,), (0.0,), (1.0,)], [1, 1, -1]
    big = np.array([2**62, 2**62, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in (big, tuple(big), (np.int64(2**62), 2**62, np.uint8(1))):
            sample = WeightedSample(weights, labels, points)
            assert sample.weights == (2**62, 2**62, 1) and all(type(w) is int for w in sample.weights)
            assert sample._weights.dtype == np.int64 and sample._weight_scale == 1
            assert fit_monotone(sample).values == (1, 1)
