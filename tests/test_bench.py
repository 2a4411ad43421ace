import random
from fractions import Fraction

import pytest

from helpers import random_rational_distribution

from isoclass import (
    calibration_table,
    exponential,
    hinge,
    reproduce_example_1,
    reproduce_example_2,
    simulate_regret,
    zero_one,
)
from isoclass.bench import DGPS, StepDgp, example_distribution_1, _threshold_1d
from isoclass import MonotoneClassifier, fit_bernstein, WeightedSample


def test_example_1_reproduction():
    result = reproduce_example_1()
    hinge_row = result.by_loss("hinge:1")
    assert hinge_row.argmin_set == ()
    assert hinge_row.classification_risk == Fraction(14, 30)
    assert result.by_loss("zero-one").classification_risk == Fraction(14, 30)
    for name in ("exp", "tquad"):
        row = result.by_loss(name)
        assert tuple(sorted(row.argmin_set)) == (0, 1, 2)
        assert row.classification_risk == Fraction(16, 30)


def test_example_1_candidate_sets_are_the_monotone_family():
    result = reproduce_example_1()
    assert sorted(result.sets) == [(), (0, 1, 2), (1, 2), (2,)]


def test_example_2_reproduction():
    result = reproduce_example_2()
    assert result.exhaustive_set == (2,)
    assert result.exhaustive_risk == Fraction(1, 3)
    assert result.linear_vertex == (Fraction(-1), Fraction(1))
    assert tuple(sorted(result.linear_set)) == (1, 2)
    assert result.linear_risk == Fraction(8, 15)


def test_calibration_hinge_never_disagrees_with_zero_one():
    rng = random.Random(3)
    for _ in range(60):
        dist = random_rational_distribution(rng, max_points=5, d=rng.randint(1, 2))
        report = calibration_table(dist, [zero_one(), hinge(2)])
        verdict = report.agreements[("zero-one", "hinge:2")]
        assert verdict.agree, verdict


def test_calibration_exponential_disagrees_on_example_1():
    report = calibration_table(example_distribution_1(), [zero_one(), exponential()])
    verdict = report.agreements[("zero-one", "exp")]
    assert not verdict.agree
    assert verdict.witness == ((), (0, 1, 2))


def test_calibration_single_point_always_agrees():
    from isoclass import DiscreteDistribution

    dist = DiscreteDistribution(((0,),), (1,), (Fraction(7, 10),))
    report = calibration_table(dist, [zero_one(), exponential(), hinge(1)])
    assert all(v.agree for v in report.agreements.values())


def test_step_dgp_exact_threshold_risk():
    dgp = StepDgp()
    assert dgp.risk_of_threshold(0.5) == 0.25
    assert dgp.risk_of_threshold(0.0) == 0.5
    assert dgp.risk_of_threshold(1.0) == 0.5
    model = MonotoneClassifier(((0.2,), (0.7,)), (-1, 1))
    assert dgp.population_risk(model) == dgp.risk_of_threshold(0.2)
    all_pos = MonotoneClassifier(((0.4,),), (1,))
    assert dgp.population_risk(all_pos) == 0.5


def test_threshold_of_bernstein_model():
    sample = WeightedSample.unweighted([-1, -1, 1, 1], [(0.1,), (0.3,), (0.7,), (0.9,)])
    model = fit_bernstein(sample, (4,))
    a = _threshold_1d(model)
    assert 0.3 < a < 0.7


def test_simulate_regret_is_deterministic():
    first = simulate_regret("step", (60, 120), reps=8, seed=11)
    second = simulate_regret("step", (60, 120), reps=8, seed=11)
    assert first == second
    assert simulate_regret("step", (60,), reps=8, seed=12) != first


def test_simulate_regret_step_regrets_nonnegative():
    curve = simulate_regret("step", (50, 100), reps=12, seed=5)
    assert curve.negative_count == 0
    assert all(m >= 0 for m in curve.mean_regret)


def test_simulate_regret_shrinks_with_n():
    curve = simulate_regret("step", (50, 800), reps=30, seed=2)
    assert curve.mean_regret[1] < curve.mean_regret[0]


def test_simulate_regret_bernstein_estimator():
    curve = simulate_regret("smooth", (80,), reps=5, seed=9, estimator="bernstein", orders=(4,))
    assert curve.mean_regret[0] >= 0
    assert curve.estimator == "bernstein"


def test_simulate_regret_2d_dgp():
    curve = simulate_regret("step2d", (60,), reps=3, seed=4)
    assert curve.sample_sizes == (60,)
    assert curve.mean_regret[0] > -2e-3  # quadrature error only


def test_dgp_registry():
    assert set(DGPS) == {"step", "smooth", "step2d"}
    with pytest.raises(Exception):
        simulate_regret("nope", (10,), reps=1, seed=0)
