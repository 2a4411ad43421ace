import random
from fractions import Fraction

import pytest

from helpers import random_rational_distribution, rational_eta

from isoclass import (
    DiscreteDistribution,
    PredictionSet,
    ValidationError,
    WeightedSample,
    c_plus_minus,
    classification_risk_at_set,
    empirical_risk,
    enumerate_up_sets,
    build_dag,
    exponential,
    hinge,
    surrogate_risk_at_set,
    weighted_risk_at_set,
    zero_one,
)
from isoclass.bench import example_distribution_1

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


def test_sample_keeps_its_float_coordinates_and_weights_read_only():
    big = 2**53 + 1  # float() rounds it; the kept matrix holds float(v), as float_points would
    sample = WeightedSample((1, Fraction(1, 3), 0.25), (1, -1, 1), [(0.5, big), (Fraction(1, 3), 2), (0.1, 0.2)])
    assert sample._float_points.tolist() == [[0.5, float(big)], [float(Fraction(1, 3)), 2.0], [0.1, 0.2]]
    assert sample._float_weights.tolist() == [1.0, float(Fraction(1, 3)), 0.25]
    assert not sample._float_points.flags.writeable and not sample._float_weights.flags.writeable
    assert not sample._all_float
    assert WeightedSample((1, 1), (1, -1), [(0.5, 0.25), (-0.0, 3.0)])._all_float
    # beyond float range the arrays are not kept; the fits that need floats then raise
    huge = WeightedSample((10**400, 1), (1, -1), [(10**400,), (1,)])
    assert huge._float_points is None and huge._float_weights is None and not huge._all_float
    # equality and the repr look at the three given fields only
    assert WeightedSample((1,), (1,), [(0.5,)]) == WeightedSample((1,), (1,), [(0.5,)])
    assert "_float" not in repr(sample)
