import random
from fractions import Fraction

import pytest

from isoclass import (
    TrialRecord,
    ValidationError,
    build_dag,
    empirical_risk,
    enumerate_up_sets,
    fit_monotone,
    max_weight_bound,
    monotone_predict,
    to_weighted_sample,
    welfare_constant,
    welfare_estimate,
    zero_one,
)


def test_record_to_weight_and_label():
    sample = to_weighted_sample([TrialRecord(2, 1, (0.0,), Fraction(1, 2))], kappa=0.1)
    assert sample.weights == (4,)
    assert sample.labels == (1,)


def test_control_arm_denominator():
    sample = to_weighted_sample([TrialRecord(-3, -1, (0.0,), Fraction(1, 4))], kappa=0.1)
    assert sample.weights == (4,)  # |-3| / (1 - 1/4)
    assert sample.labels == (1,)  # sign(-3) * (-1)


def test_zero_outcome_keeps_sign_convention():
    sample = to_weighted_sample([TrialRecord(0, -1, (0.0,), 0.3)], kappa=0.1)
    assert sample.weights == (0,)
    assert sample.labels == (-1,)  # sign(0) = +1 times d = -1


def test_overlap_violation_lists_offending_rows():
    records = [
        TrialRecord(1, 1, (0.0,), 0.5),
        TrialRecord(1, 1, (0.0,), 0.995),
    ]
    with pytest.raises(ValidationError) as err:
        to_weighted_sample(records, kappa=0.01)
    assert "record(s) 1" in str(err.value)


def test_propensity_must_be_interior():
    with pytest.raises(ValidationError):
        TrialRecord(1, 1, (0.0,), 1.0)
    with pytest.raises(ValidationError):
        TrialRecord(1, 1, (0.0,), 0)


def test_welfare_examples():
    record = TrialRecord(2, 1, (0.0,), 0.5)
    assert welfare_estimate(lambda x: 1, [record]) == 4
    assert welfare_estimate(lambda x: -1, [record]) == 0


def test_welfare_treat_all_is_ipw_mean_of_treated_arm():
    records = [
        TrialRecord(Fraction(3), 1, (0.1,), Fraction(1, 2)),
        TrialRecord(Fraction(-1), -1, (0.9,), Fraction(1, 2)),
    ]
    assert welfare_estimate(lambda x: 1, records) == Fraction(3)  # 6 / 2


def test_max_weight_bound_examples():
    records = [TrialRecord(5, 1, (0.0,), 0.5), TrialRecord(-2, -1, (0.0,), 0.4)]
    assert max_weight_bound(records, kappa=0.1) == 50
    zeros = [TrialRecord(0, 1, (0.0,), 0.5)]
    assert max_weight_bound(zeros, kappa=0.1) == 0
    assert max_weight_bound([TrialRecord(1, 1, (0.0,), 0.5)], kappa=0.499999) == pytest.approx(2, rel=1e-4)


def random_records(rng, n, d=1):
    records = []
    for _ in range(n):
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 5))
        treat = rng.choice((-1, 1))
        x = tuple(Fraction(rng.randint(0, 9), 10) for _ in range(d))
        e = Fraction(rng.randint(2, 8), 10)
        records.append(TrialRecord(z, treat, x, e))
    return records


def test_welfare_plus_weighted_risk_is_constant():
    rng = random.Random(19)
    records = random_records(rng, 30)
    sample = to_weighted_sample(records, kappa=Fraction(1, 10))
    constant = welfare_constant(records)
    for _ in range(50):
        threshold = Fraction(rng.randint(0, 10), 10)
        policy = lambda x, t=threshold: 1 if x[0] >= t else -1
        labels = [policy(r.x) for r in records]
        risk = empirical_risk(labels, sample, zero_one())
        assert welfare_estimate(policy, records) + risk == constant


def test_weights_respect_certified_bound():
    rng = random.Random(23)
    records = random_records(rng, 50)
    kappa = Fraction(1, 10)
    sample = to_weighted_sample(records, kappa)
    bound = max_weight_bound(records, kappa)
    assert all(0 <= w <= bound for w in sample.weights)


def test_policy_fit_maximizes_welfare_over_up_set_policies():
    rng = random.Random(41)
    for _ in range(15):
        records = random_records(rng, rng.randint(2, 10))
        sample = to_weighted_sample(records, kappa=Fraction(1, 10))
        model = fit_monotone(sample)
        fitted_welfare = welfare_estimate(model, records)
        support = sorted(set(sample.points))
        dag = build_dag(support)
        best = max(
            welfare_estimate(
                lambda x, g=g: 1 if g.members[support.index(tuple(x))] else -1,
                records,
            )
            for g in enumerate_up_sets(dag)
        )
        assert fitted_welfare == best


def test_fitted_policy_is_usable_as_classifier():
    records = [
        TrialRecord(2, 1, (0.8,), 0.5),
        TrialRecord(1, -1, (0.2,), 0.5),
        TrialRecord(-1, 1, (0.1,), 0.5),
    ]
    sample = to_weighted_sample(records, kappa=0.05)
    model = fit_monotone(sample)
    assert monotone_predict(model, (0.9,)) in (-1, 1)
    assert isinstance(welfare_estimate(model, records), float)


def test_treatment_is_checked_before_int_maps_it():
    for d in (1.5, 0.9, -1.2, Fraction(1, 2)):
        with pytest.raises(ValidationError) as caught:
            TrialRecord(1, d, (0.1,), 0.5)
        assert str(caught.value) == f"treatment must be -1 or +1, got {d!r}"
    for d, want in ((1.0, 1), (Fraction(-1), -1), (-1.0, -1)):
        record = TrialRecord(1, d, (0.1,), 0.5)
        assert record.d == want and type(record.d) is int
