import random
from fractions import Fraction

import numpy as np
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
from isoclass._numeric import halton
from isoclass.bench import DGPS, StepDgp, Step2dDgp, example_distribution_1, _threshold_1d
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


def _van_der_corput(i, base):
    x, denom = 0.0, 1.0
    while i > 0:
        i, rem = divmod(i, base)
        denom *= base
        x += rem / denom
    return x


def test_halton_equals_reference_van_der_corput_loop():
    bases = (2, 3, 5, 7, 11, 13, 17, 19)
    for dim in range(1, 9):
        pts = halton(700, dim)
        assert pts.shape == (700, dim)
        want = [[_van_der_corput(i + 1, b) for b in bases[:dim]] for i in range(700)]
        assert pts.tolist() == want
    assert halton(0, 2).shape == (0, 2)
    with pytest.raises(ValueError):
        halton(10, 9)


def test_step2d_population_risk_pinned_on_hand_built_model():
    model = MonotoneClassifier(
        ((0.2, 0.7), (Fraction(1, 2), 0.45), (0.8, 0.15), (0.1, 0.3),
         (0.3, 0.75), (0.6, Fraction(3, 5)), (0.9, 0.3)),
        (-1, -1, -1, -1, 1, 1, 1),
    )
    assert Step2dDgp().population_risk(model) == 0.33985


def _reference_draws(name, rng, n):
    """Each design's draw with its eta written out: X first, then one uniform per label."""
    if name == "step2d":
        xs = rng.random((n, 2))
        etas = np.where(xs.sum(axis=1) >= 1.0, 0.75, 0.25)
        ys = np.where(rng.random(n) < etas, 1, -1)
        return [(float(a), float(b)) for a, b in xs], [int(y) for y in ys]
    xs = rng.random(n)
    etas = np.where(xs >= 0.5, 0.75, 0.25) if name == "step" else xs
    ys = np.where(rng.random(n) < etas, 1, -1)
    return [(float(x),) for x in xs], [int(y) for y in ys]


def test_dgp_draws_are_bit_identical_to_the_written_out_formulas():
    for name, cls in DGPS.items():
        for n in (0, 1, 257):
            points, labels = cls().sample(np.random.default_rng([11, n]), n)
            assert (points, labels) == _reference_draws(name, np.random.default_rng([11, n]), n)
            assert all(type(v) is float for p in points for v in p)
            assert all(type(y) is int for y in labels)
