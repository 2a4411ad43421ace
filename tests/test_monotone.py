import json
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_small_sample

from isoclass import (
    MonotoneClassifier,
    ValidationError,
    WeightedSample,
    build_dag,
    dominates,
    empirical_risk,
    enumerate_up_sets,
    fit_monotone,
    hinge,
    monotone_predict,
    zero_one,
)
from isoclass.monotone import predict_batch


def example_41_sample():
    labels, points = [], []
    for x, pos, neg in ((0, 9, 1), (1, 3, 7), (2, 2, 8)):
        labels += [1] * pos + [-1] * neg
        points += [(x,)] * (pos + neg)
    return WeightedSample.unweighted(labels, points)


def test_fit_separable_monotone_data():
    sample = WeightedSample.unweighted([-1, -1, 1], [(1,), (2,), (3,)])
    model = fit_monotone(sample)
    assert model.values == (-1, -1, 1)
    fitted = [monotone_predict(model, p) for p in sample.points]
    assert empirical_risk(fitted, sample, hinge(1)) == 0


def test_fit_example_41_sample_recovers_empty_set():
    sample = example_41_sample()
    model = fit_monotone(sample)
    assert model.values == (-1, -1, -1)
    fitted = [monotone_predict(model, p) for p in sample.points]
    assert empirical_risk(fitted, sample, zero_one()) == Fraction(14, 30)


def test_fit_tied_instance_takes_maximal_set():
    sample = WeightedSample.unweighted([1, -1], [(1,), (2,)])
    model = fit_monotone(sample)
    assert model.values == (1, 1)
    fitted = [monotone_predict(model, p) for p in sample.points]
    assert empirical_risk(fitted, sample, hinge(1)) == 1


def test_fit_rejects_empty_sample():
    with pytest.raises(ValidationError):
        fit_monotone(WeightedSample((), (), ()))


def test_predict_out_of_sample_rule():
    model = MonotoneClassifier(((1,), (2,), (3,)), (-1, -1, 1))
    assert monotone_predict(model, (2.5,)) == 1
    assert monotone_predict(model, (0,)) == -1
    assert monotone_predict(model, (4,)) == 1


def test_predict_dimension_mismatch():
    model = MonotoneClassifier(((1, 1),), (1,))
    with pytest.raises(ValidationError):
        monotone_predict(model, (1,))


def test_fit_minimizes_empirical_zero_one_over_up_sets():
    rng = random.Random(71)
    for _ in range(60):
        sample = random_small_sample(rng, max_n=12, d=rng.randint(1, 2))
        model = fit_monotone(sample)
        fitted = [monotone_predict(model, p) for p in sample.points]
        achieved = empirical_risk(fitted, sample, zero_one())
        dag = build_dag(sorted(set(sample.points)))
        best = min(
            empirical_risk(
                [1 if g.members[dag.nodes.index(p)] else -1 for p in sample.points],
                sample,
                zero_one(),
            )
            for g in enumerate_up_sets(dag)
        )
        assert achieved == best


def test_predict_is_monotone():
    rng = random.Random(29)
    for _ in range(20):
        sample = random_small_sample(rng, max_n=10, d=2, grid=4)
        model = fit_monotone(sample)
        for _ in range(40):
            a = (rng.uniform(-1, 4), rng.uniform(-1, 4))
            b = (a[0] + rng.uniform(0, 2), a[1] + rng.uniform(0, 2))
            assert monotone_predict(model, a) <= monotone_predict(model, b)


def test_predict_agrees_with_fitted_values_at_support():
    rng = random.Random(43)
    for _ in range(30):
        sample = random_small_sample(rng, max_n=10, d=rng.randint(1, 3))
        model = fit_monotone(sample)
        for p, v in zip(model.support, model.values):
            assert monotone_predict(model, p) == v


def test_weight_rescaling_leaves_fit_unchanged():
    rng = random.Random(83)
    for _ in range(20):
        base = random_small_sample(rng, max_n=10, d=2)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        assert fit_monotone(base) == fit_monotone(base.scaled(lam))


def test_values_monotone_along_dominance():
    rng = random.Random(59)
    for _ in range(30):
        sample = random_small_sample(rng, max_n=12, d=2)
        model = fit_monotone(sample)
        dag = build_dag(model.support)
        for i, j in dag.cover_edges:
            assert model.values[i] <= model.values[j]


def test_serialization_round_trip():
    model = fit_monotone(example_41_sample())
    payload = json.loads(json.dumps(model.to_dict()))
    back = MonotoneClassifier.from_dict(payload)
    assert back == model


def test_compact_serialization_reproduces_predictions():
    rng = random.Random(97)
    for _ in range(20):
        sample = random_small_sample(rng, max_n=10, d=2, grid=4)
        model = fit_monotone(sample)
        compact = MonotoneClassifier.from_dict(
            json.loads(json.dumps(model.to_compact_dict()))
        )
        for _ in range(50):
            x = (rng.uniform(-1, 4), rng.uniform(-1, 4))
            assert monotone_predict(compact, x) == monotone_predict(model, x)


def test_model_rejects_fractional_values():
    with pytest.raises(ValidationError):
        MonotoneClassifier(((0,),), (0,))


def _brute_force_label(model, q):
    """-1 iff some -1-valued support point dominates q (all support points scanned)."""
    dominated = any(
        v < 0 and all(a <= b for a, b in zip(q, p)) for p, v in zip(model.support, model.values)
    )
    return -1 if dominated else 1


def _mixed_value(rng, top):
    k = rng.randint(0, top)
    # k/3 as a float lies just off Fraction(k, 3), so a float shortcut would tie them
    return rng.choice((k, Fraction(k, 2), k / 2, Fraction(2 * k + 1, 4), (2 * k + 1) / 4,
                       Fraction(k, 3), k / 3))


def test_predict_batch_equals_brute_force_dominance():
    rng = random.Random(131)
    for trial in range(45):
        d = 1 + trial % 3
        n = rng.randint(1, 40)
        # a mix of equal Fraction and float values makes ties across types
        points = [tuple(_mixed_value(rng, 4) for _ in range(d)) for _ in range(n)]
        labels = [rng.choice((-1, 1)) for _ in range(n)]
        model = fit_monotone(WeightedSample.unweighted(labels, points))
        queries = [tuple(_mixed_value(rng, 5) - 1 for _ in range(d)) for _ in range(60)]
        queries += list(model.support)
        want = [_brute_force_label(model, q) for q in queries]
        assert predict_batch(model, queries).tolist() == want
        compact = MonotoneClassifier.from_dict(json.loads(json.dumps(model.to_compact_dict())))
        assert predict_batch(compact, queries).tolist() == want


def test_predict_batch_float_array_equals_brute_force():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        support = [tuple(p) for p in np.round(rng.random((30, d)), 1).tolist()]
        support = sorted(set(support))
        model = fit_monotone(WeightedSample.unweighted([int(rng.choice((-1, 1))) for _ in support], support))
        queries = np.round(rng.random((200, d)), 1)
        want = [_brute_force_label(model, tuple(q)) for q in queries.tolist()]
        assert predict_batch(model, queries).tolist() == want


def test_predict_batch_edge_cases():
    all_positive = MonotoneClassifier(((0, 0), (1, 2)), (1, 1))
    assert predict_batch(all_positive, [(-5, -5), (3, 3)]).tolist() == [1, 1]
    model = MonotoneClassifier(((1, 1), (2, Fraction(1, 2)), (3, 3)), (-1, -1, 1))
    assert predict_batch(model, []).tolist() == []
    assert predict_batch(model, np.zeros((0, 2))).tolist() == []
    # ties: a query equal to a -1 point is dominated by it
    assert predict_batch(model, [(1.0, 1.0), (2, 0.5), (2.0, 1.0), (Fraction(1, 2), 0)]).tolist() == [-1, -1, 1, -1]
    assert model.frontier == ((1, 1), (2, Fraction(1, 2)))


def test_predict_batch_separates_a_fraction_from_its_nearest_float():
    third = Fraction(1, 3)
    assert 1 / 3 < third
    exact = MonotoneClassifier(((third, third), (1, 1)), (-1, 1))
    near = MonotoneClassifier(((1 / 3, 1 / 3), (1, 1)), (-1, 1))
    queries = np.array([[1 / 3, 1 / 3], [0.0, 0.5]])
    assert predict_batch(exact, queries).tolist() == [-1, 1]
    assert predict_batch(near, [(third, 0), (1 / 3, 0)]).tolist() == [1, -1]


def test_predict_rejects_non_finite_queries():
    model = MonotoneClassifier(((1, 1), (2, 2)), (-1, 1))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            monotone_predict(model, (bad, 0.5))
        with pytest.raises(ValidationError):
            predict_batch(model, [(0.5, 0.5), (0.5, bad)])
        with pytest.raises(ValidationError):
            predict_batch(model, np.array([[0.5, bad]]))


def test_compact_frontiers_equal_pure_python_definition():
    rng = random.Random(211)
    for trial in range(30):
        d = 1 + trial % 3
        points = [tuple(_mixed_value(rng, 3) for _ in range(d)) for _ in range(rng.randint(1, 30))]
        labels = [rng.choice((-1, 1)) for _ in points]
        model = fit_monotone(WeightedSample.unweighted(labels, points))
        pos = [p for p, v in zip(model.support, model.values) if v > 0]
        neg = [p for p, v in zip(model.support, model.values) if v < 0]
        min_pos = [p for p in pos if not any(q != p and dominates(q, p) for q in pos)]
        max_neg = [p for p in neg if not any(q != p and dominates(p, q) for q in neg)]
        assert list(model.frontier) == max_neg
        compact = MonotoneClassifier.from_dict(json.loads(json.dumps(model.to_compact_dict())))
        assert list(compact.support) == max_neg + min_pos


def test_frontier_of_a_large_model_equals_quadratic_definition():
    # thousands of -1 points make the frontier sweep span several blocks
    rng = np.random.default_rng(23)
    for d, grid in ((1, 10**6), (2, 300), (3, 40)):
        cloud = np.unique(rng.integers(0, grid, size=(2600, d)), axis=0)
        cloud = cloud[rng.permutation(len(cloud))]
        model = MonotoneClassifier(tuple(map(tuple, cloud.tolist())), (-1,) * len(cloud))
        below = (cloud[:, None, :] <= cloud[None, :, :]).all(axis=2).sum(axis=1)
        assert list(model.frontier) == [tuple(p) for p in cloud[below == 1].tolist()]
