import math
import random
from fractions import Fraction

import numpy as np
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
    # a bool is neither -1 nor +1, though True == 1
    for d in (1.5, 0.9, -1.2, Fraction(1, 2), True, False, np.bool_(True), np.bool_(False)):
        with pytest.raises(ValidationError) as caught:
            TrialRecord(1, d, (0.1,), 0.5)
        assert str(caught.value) == f"treatment must be -1 or +1, got {d!r}"
    for d, want in ((1.0, 1), (Fraction(-1), -1), (-1.0, -1)):
        record = TrialRecord(1, d, (0.1,), 0.5)
        assert record.d == want and type(record.d) is int


def test_bool_outcomes_are_refused():
    # True == 1, but a bool is not an outcome
    for z in (True, False, np.bool_(True)):
        with pytest.raises(ValidationError) as caught:
            TrialRecord(z, 1, (0.1,), 0.5)
        assert str(caught.value) == f"outcome z must be a number, got {z!r}"
    assert TrialRecord(1, 1, (0.1,), 0.5).z == 1


def test_trial_columns_read_and_map_as_the_records_they_hold(tmp_path):
    from isoclass.io import load_trials
    from isoclass.policy import TrialColumns

    text = "z,d,x1,x2,e\n2,1,0.3,1/3,0.5\n-3,-1,0.8,0,1/4\n1.5,1,0.6,2,0.5\n-1,1,0.1,-1/3,0.75\n0,-1,0.1,1,0.5\n"
    path = tmp_path / "t.csv"
    path.write_text(text)
    columns = load_trials(str(path))
    records = [TrialRecord(Fraction(z), int(d), (Fraction(a), Fraction(b)), Fraction(e))
               for z, d, a, b, e in (line.split(",") for line in text.splitlines()[1:])]
    assert isinstance(columns, TrialColumns) and len(columns) == 5
    assert list(columns) == records and columns[3] == records[3] and columns[-1] == records[-1]
    mapped, want = to_weighted_sample(columns, kappa=0.1), to_weighted_sample(records, kappa=0.1)
    assert (mapped.weights, mapped.labels, mapped.points) == (want.weights, want.labels, want.points)
    assert [type(w) for w in mapped.weights] == [type(w) for w in want.weights]
    for policy in (lambda x: 1, lambda x: -1, lambda x: 1 if x[0] > 0.5 else -1, fit_monotone(want)):
        got = welfare_estimate(policy, columns)
        assert got == welfare_estimate(policy, records) and type(got) is type(welfare_estimate(policy, records))
    # no record agrees with a policy of 0: the welfare of exact columns is the Fraction 0, as for a list
    assert welfare_estimate(lambda x: 0, columns) == 0 and type(welfare_estimate(lambda x: 0, columns)) is Fraction
    for kappa in (0.1, Fraction(1, 10)):
        got = max_weight_bound(columns, kappa)
        assert got == max_weight_bound(records, kappa) and type(got) is type(max_weight_bound(records, kappa))
    with pytest.raises(ValidationError) as err:
        to_weighted_sample(columns, kappa=Fraction(1, 4))
    assert str(err.value) == "propensity outside (1/4, 3/4) for record(s) 1, 3"


def test_float_welfare_is_summed_in_row_order():
    # terms z / e = 2**54, then 1s: in row order each 1 is lost against 2**54; a compensated sum keeps them
    records = [TrialRecord(2.0**53, 1, (0.0,), 0.5)] + [TrialRecord(0.5, 1, (0.0,), 0.5)] * 9
    records += [TrialRecord(-0.5, -1, (1.0,), 0.5)]
    assert math.fsum([2.0**54] + [1.0] * 9) != 2.0**54
    assert welfare_constant(records) == welfare_estimate(lambda x: 1, records) == 2.0**54 / 11


def test_a_float_outcome_over_an_exact_propensity_divides_by_the_rounded_exact_denominator():
    # as Python's z / (1 - e) does for a float z and a Fraction e: 1 - 1/3 is taken exactly, then rounded
    records = [TrialRecord(1.0, -1, (0.0,), Fraction(1, 3)), TrialRecord(Fraction(1, 3), 1, (1.0,), 0.5)]
    want = [1.0 / float(Fraction(2, 3)), float(Fraction(1, 3)) / 0.5]
    assert 1.0 / (1 - float(Fraction(1, 3))) != want[0]
    assert to_weighted_sample(records, kappa=0.1).weights == tuple(want)
    assert welfare_constant(records) == (want[0] + want[1]) / 2


def test_exact_welfare_is_the_fraction_0_when_nothing_is_summed():
    # no record agrees with a policy of 0, and no IPW term of these records is positive
    exact = [TrialRecord(-2, 1, (0,), Fraction(1, 2)), TrialRecord(0, -1, (1,), Fraction(1, 4))]
    floats = [TrialRecord(-2.0, 1, (0.0,), 0.5), TrialRecord(0.0, -1, (1.0,), 0.25)]
    for records, kind in ((exact, Fraction), (floats, float)):
        for got in (welfare_estimate(lambda x: 0, records), welfare_constant(records)):
            assert got == 0 and type(got) is kind
    assert welfare_estimate(lambda x: 1, exact) == -2 and type(welfare_estimate(lambda x: 1, exact)) is Fraction
