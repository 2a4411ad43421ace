import gc
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_small_sample

from isoclass import (
    IsotoneProblem,
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
import isoclass.monotone as monotone
from isoclass.io import load_sample
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
        scaled = WeightedSample(tuple(w * lam for w in base.weights), base.labels, base.points)
        assert fit_monotone(base) == fit_monotone(scaled)


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


def test_support_strings_beyond_the_column_grammar_load_as_exact_columns():
    # a 19-digit decimal, an exponent, a numerator past int64 and a blank are read as a CSV column is
    rows = [["0.1234567890123456789", "1e0"], ["0.5", "1/3"], ["9223372036854775808", "-2"], ["0.7", " 1/3"]]
    values = [-1, 1, 1, -1]
    model = MonotoneClassifier.from_dict({"type": "monotone", "dim": 2, "support": rows, "values": values})
    assert model._support.denominators is not None and model._ranks is not None
    checked = MonotoneClassifier(tuple(tuple(map(Fraction, p)) for p in rows), values)
    axis = [Fraction(v) for v in ("-3", "0", "0.1234567890123456789", "1/3", "1/2", "0.7", "1", "9223372036854775808", "1e20")]
    queries = [(a, b) for a in axis for b in axis]
    assert predict_batch(model, queries).tolist() == predict_batch(checked, queries).tolist()
    assert -1 in predict_batch(model, queries) and model == checked
    assert model.to_dict() == checked.to_dict() and model.to_compact_dict() == checked.to_compact_dict()


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


def test_model_rejects_support_points_of_unequal_dimension():
    for support in (((0, 1), (2,)), ((0,), (1, 2), (3,))):
        with pytest.raises(ValidationError, match="mixed dimensions"):
            MonotoneClassifier(support, (-1,) * len(support))
    payload = {"type": "monotone", "dim": 2, "support": [[0, 1], [2]], "values": [-1, 1]}
    with pytest.raises(ValidationError):
        MonotoneClassifier.from_dict(payload)


def test_model_rejects_non_finite_support_points():
    for support in (((0, 1), (float("nan"), 2)), ((float("inf"),),)):
        with pytest.raises(ValidationError, match="must be finite"):
            MonotoneClassifier(support, (-1,) * len(support))


def _dict_fit_problem(sample):
    """The support and coefficients of a fit, from a dict keyed by point tuples.

    The dict keeps each point as the object of its first row and adds w * y in
    row order: as Python floats when every weight is a float, else exactly, in
    units of the weights' common denominator; ``sorted`` gives the
    lexicographic order of the support.
    """
    floats = set(map(type, sample.weights)) == {float}
    scale = 1 if floats else math.lcm(*(Fraction(w).denominator for w in sample.weights))
    totals = {}
    for w, y, p in zip(sample.weights, sample.labels, sample.points):
        totals[p] = totals.get(p, 0) + (w if floats else int(Fraction(w) * scale)) * y
    support = sorted(totals)
    return support, [totals[p] for p in support]


def _assert_coefficient_types(given, coeffs, sample):
    """``solve`` gets int64 when the weight numerators and n * max of them fit 2**62, else Python ints or floats."""
    if sample._weights.dtype == np.int64 and sample.n * int(sample._weights.max()) < 2**62:
        assert isinstance(given, np.ndarray) and given.dtype == np.int64
    else:
        assert type(given) is tuple and list(map(type, given)) == list(map(type, coeffs))


def test_fit_equals_a_dict_aggregation_of_the_rows(monkeypatch):
    problems = []
    real_solve = monotone.solve
    monkeypatch.setattr(monotone, "solve", lambda problem, **options: problems.append(problem) or real_solve(problem, **options))
    rng = random.Random(223)
    # equal values of every type, so duplicates arrive as 1, 1.0 and Fraction(1)
    values = (0, 0.0, -0.0, Fraction(0), 1, 1.0, Fraction(1), Fraction(1, 2), 0.5, 2, Fraction(7, 3))
    weights = (1, 2, 0, 0.0, -0.0, Fraction(1, 3), Fraction(5, 2), 0.25, 0.1, 3.5)
    for trial in range(300):
        d = 1 + trial % 3
        n = rng.randint(1, 40)
        pool = [tuple(rng.choice(values) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        points = [rng.choice(pool) for _ in range(n)]
        row_weights = [rng.choice(weights) for _ in range(n)] if trial % 2 else [1] * n
        sample = WeightedSample(row_weights, [rng.choice((-1, 1)) for _ in range(n)], points)
        support, coeffs = _dict_fit_problem(sample)
        model = fit_monotone(sample)
        assert list(model.support) == support
        assert [list(map(type, p)) for p in model.support] == [list(map(type, p)) for p in support]
        assert list(problems[-1].coeffs) == coeffs
        _assert_coefficient_types(problems[-1].coeffs, coeffs, sample)
        want = MonotoneClassifier(support, real_solve(IsotoneProblem(build_dag(support), coeffs))[0])
        assert model == want
        assert json.dumps(model.to_dict()) == json.dumps(want.to_dict())


def test_fit_builds_the_model_the_public_constructor_would(monkeypatch):
    # the fit trusts its validated sample; the checked constructor must give the same model
    problems = []
    real_solve = monotone.solve
    monkeypatch.setattr(monotone, "solve", lambda problem, **options: problems.append(problem) or real_solve(problem, **options))
    rng = random.Random(307)
    values = (0, 0.0, -0.0, Fraction(0), 1, 1.0, Fraction(1), Fraction(-1, 2), -0.5, 3, Fraction(7, 3))
    guard = 1 << 62
    sides = set()
    for trial in range(400):
        d = 1 + trial % 3
        n = rng.randint(1, 30)
        pool = [tuple(rng.choice(values) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        points = [rng.choice(pool) for _ in range(n)]
        kind = trial % 4
        if kind == 0:
            row_weights = [rng.randint(0, 9) for _ in range(n)]
        elif kind == 1:
            # n * max(w) just below, at or just above 2**62, or near 2**63, where int64 sums overflow
            top = rng.choice((guard, 2 * guard)) // n + rng.choice((-1, 0, 1))
            row_weights = [rng.choice((top, top - rng.randint(0, 3))) for _ in range(n)]
        elif kind == 2:
            row_weights = [rng.choice((1, 10**18, 10**30, 3 * 10**29)) for _ in range(n)]
        else:
            row_weights = [rng.choice((0, 2, Fraction(1, 3), Fraction(5, 2))) for _ in range(n)]
        signs = (-1, 1)
        if kind == 1 and trial % 8 == 1:
            # one point and one label: the sum of the large weights reaches n * max(w)
            points, signs = [points[0]] * n, (rng.choice(signs),)
        sample = WeightedSample(row_weights, [rng.choice(signs) for _ in range(n)], points)
        if set(map(type, row_weights)) == {int}:
            sides.add(n * max(row_weights) < guard)
        model = fit_monotone(sample)
        support, coeffs = _dict_fit_problem(sample)
        assert list(problems[-1].coeffs) == coeffs
        _assert_coefficient_types(problems[-1].coeffs, coeffs, sample)
        checked = MonotoneClassifier(model.support, model.values)
        assert model == checked
        assert type(model.support) is tuple and type(model.values) is tuple
        assert [list(map(type, p)) for p in model.support] == [list(map(type, p)) for p in checked.support]
        assert all(type(p) is tuple for p in model.support)
        assert all(type(v) is int for v in model.values)
        assert json.dumps(model.to_dict()) == json.dumps(checked.to_dict())
    assert sides == {True, False}


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
    for trial in range(60):
        d = 1 + trial % 3
        # every fourth trial is 2-d on a coarse grid: many points tie in one coordinate
        top = 1 if trial % 4 == 1 else 3
        points = [tuple(_mixed_value(rng, top) for _ in range(d)) for _ in range(rng.randint(1, 30))]
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
    # k stands for k/2, written as an int, a Fraction or a float at random
    kinds = (lambda k: k // 2 if k % 2 == 0 else Fraction(k, 2), lambda k: Fraction(k, 2), lambda k: k / 2)
    for d, grid in ((1, 10**6), (2, 300), (2, 25), (3, 40)):
        cloud = np.unique(rng.integers(0, grid, size=(2600, d)), axis=0)
        cloud = cloud[rng.permutation(len(cloud))]
        below = (cloud[:, None, :] <= cloud[None, :, :]).all(axis=2).sum(axis=1)
        above = (cloud[:, None, :] >= cloud[None, :, :]).all(axis=2).sum(axis=1)
        for mixed in (False, True):
            support = [tuple(kinds[rng.integers(3)](k) if mixed else k for k in p) for p in cloud.tolist()]
            model = MonotoneClassifier(support, (-1,) * len(support))
            assert list(model.frontier) == [p for p, b in zip(support, below) if b == 1]
            lowest = MonotoneClassifier(support, (1,) * len(support)).to_compact_dict()["min_positive"]
            want = [p for p, a in zip(support, above) if a == 1]
            assert lowest == MonotoneClassifier(want, (1,) * len(want)).to_dict()["support"]


def test_repeated_support_points_count_once_in_the_frontiers():
    for d in (1, 2, 3):
        zero, one, two = (0,) * d, (1,) * d, (2,) * d
        repeated = MonotoneClassifier((one, one, zero), (-1, -1, -1))
        assert repeated.frontier == MonotoneClassifier((one, zero), (-1, -1)).frontier == (one,)
        assert predict_batch(repeated, (zero, one, two)).tolist() == [-1, -1, 1]
        assert repeated.to_compact_dict()["max_negative"] == [[1] * d]
        rising = MonotoneClassifier((zero, one, zero, two), (1, 1, 1, 1))
        assert rising.to_compact_dict()["min_positive"] == [[0] * d]
        # of equal points, the last one given is kept, on both sides
        assert MonotoneClassifier(((1.0,) * d, one, zero), (-1, -1, -1)).frontier == (one,)
        assert MonotoneClassifier((one, (1.0,) * d, zero), (-1, -1, -1)).frontier == ((1.0,) * d,)
        lowest = MonotoneClassifier(((0.0,) * d, one, zero), (1, 1, 1)).to_compact_dict()["min_positive"]
        assert lowest == [[0] * d] and all(type(v) is int for v in lowest[0])
    rng = random.Random(307)
    for trial in range(60):
        d = 1 + trial % 3
        pool = [tuple(_mixed_value(rng, 2) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        support = [rng.choice(pool) for _ in range(rng.randint(1, 20))]
        # the last copy of each point, then the quadratic definition
        last = {p: i for i, p in enumerate(support)}
        distinct = [p for i, p in enumerate(support) if last[p] == i]
        model = MonotoneClassifier(support, (-1,) * len(support))
        assert list(model.frontier) == [p for p in distinct if not any(q != p and dominates(p, q) for q in distinct)]
        lowest = MonotoneClassifier(support, (1,) * len(support)).to_compact_dict()["min_positive"]
        want = [p for p in distinct if not any(q != p and dominates(q, p) for q in distinct)]
        assert lowest == MonotoneClassifier(want, (1,) * len(want)).to_dict()["support"]


def test_float_sample_fits_as_its_exact_rational_copy():
    # a float sample ranks its kept float matrix; the Fraction copy of every coordinate takes
    # the exact ranking path: both must give the same values in the same support order
    rng = np.random.default_rng(419)
    for d in (1, 2, 3):
        for grid in (None, 4):
            n = 300
            x = rng.random((n, d)) if grid is None else rng.integers(grid, size=(n, d)) / grid
            floats = [tuple(p) for p in x.tolist()]
            labels = rng.choice((-1, 1), size=n).tolist()
            for weights in (
                [1] * n,
                rng.integers(0, 5, size=n).tolist(),
                [Fraction(int(k), 3) for k in rng.integers(0, 7, size=n)],
                (rng.random(n) * 2).tolist(),
            ):
                by_float = WeightedSample(weights, labels, floats)
                exact = WeightedSample(weights, labels, [tuple(map(Fraction, p)) for p in floats])
                assert by_float._points.denominators is None and exact._points.denominators is not None
                a, b = fit_monotone(by_float), fit_monotone(exact)
                assert a.support == b.support and a.values == b.values
                assert all(type(v) is float for p in a.support for v in p)
                # each support point is the object of its first row
                first = {}
                for p in reversed(floats):
                    first[p] = p
                assert all(p is first[p] for p in a.support)
                assert a.frontier == b.frontier and _lowest(a) == _lowest(b)


def test_array_sample_and_its_fit_build_rows_only_when_read():
    rng = np.random.default_rng(467)
    for d in (1, 2, 3):
        x = rng.random((500, d))
        labels = rng.choice((-1, 1), size=500)
        sample = WeightedSample.unweighted(labels, x)
        model = fit_monotone(sample)
        frontier, lowest = model.frontier, _lowest(model)
        assert not {"points", "weights", "labels"} & set(vars(sample))
        assert not {"support", "values"} & set(vars(model)) and model.dim == d
        checked = MonotoneClassifier(model.support, model.values)
        assert model == checked and (frontier, lowest) == (checked.frontier, _lowest(checked))
        assert all(type(v) is float for p in frontier + lowest for v in p)
        assert {"support", "values"} <= set(vars(model)) and "points" not in vars(sample)
        assert sample.points == tuple(map(tuple, x.tolist())) and sample.labels == tuple(labels.tolist())
        assert sample.weights == (1,) * 500 and {"points", "weights", "labels"} <= set(vars(sample))


def test_fitted_frontiers_equal_those_of_the_round_trip():
    # a fitted model finds its frontiers on the fit's ranks, a loaded one ranks its points
    rng = random.Random(421)
    for d in (1, 2, 3):
        for trial in range(20):
            top = 2 if trial % 2 else 6
            points = [tuple(_mixed_value(rng, top) for _ in range(d)) for _ in range(rng.randint(1, 80))]
            labels = [rng.choice((-1, 1)) for _ in points]
            model = fit_monotone(WeightedSample.unweighted(labels, points))
            loaded = MonotoneClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
            assert model.frontier == loaded.frontier
            assert model.to_compact_dict() == loaded.to_compact_dict()


def _five_ways(tmp_path, weights, labels, points):
    """One sample given five ways: Python Fractions and ints, exactly representable Python floats,
    numpy float64 arrays, a rational CSV and a --float CSV (each value's shortest float text)."""
    exact = [tuple(Fraction(v) for v in p) for p in points]
    exact = [tuple(int(v) if v.denominator == 1 else v for v in p) for p in exact]
    header = "w,y," + ",".join(f"x{i + 1}" for i in range(len(points[0]))) + "\n"
    files = {}
    for name, text in (("rational", lambda v: str(Fraction(v))), ("float", repr)):
        path = tmp_path / f"{name}.csv"
        path.write_text(header + "".join(
            f"{text(w)},{y}," + ",".join(map(text, p)) + "\n" for w, y, p in zip(weights, labels, points)))
        files[name] = str(path)
    return {
        "fractions": WeightedSample([Fraction(w) for w in weights], labels, exact),
        "floats": WeightedSample(weights, labels, points),
        "arrays": WeightedSample(np.array(weights), np.array(labels), np.array(points)),
        "rational csv": load_sample(files["rational"], "weighted"),
        "float csv": load_sample(files["float"], "weighted", rational=False),
    }


def _table_points(path, rng, n):
    """n rows of exactly representable floats that send a fit down ``path``."""
    if path == "chain":
        return [(rng.randint(0, 300) / 8,) for _ in range(n)]
    if path == "grid":
        # every cell of a 25 x 40 grid, then repeats: the distinct points fill their rank grid
        axes = [sorted(rng.sample(range(-500, 500), k)) for k in (25, 40)]
        cells = [(a / 4, b * 0.1) for a in axes[0] for b in axes[1]]
        return cells + [rng.choice(cells) for _ in range(n - len(cells))]
    if path == "staircase":
        return [(rng.uniform(-1, 1), rng.randint(0, 60) / 16) for _ in range(n)]
    return [(rng.randint(0, 9) / 4, rng.randint(0, 11) * 0.1, rng.randint(0, 5) * 1e-3) for _ in range(n)]


@pytest.mark.parametrize("path, n", [("chain", 2000), ("grid", 2000), ("staircase", 2000), ("mincut", 2000)])
def test_one_sample_given_five_ways_fits_alike(tmp_path, path, n):
    # every representation of the same numbers must give the same +/-1 values on the same support,
    # and the same objective sum(w y f), exact or float, as a number (dyadic weights sum exactly in floats)
    rng = random.Random(path)
    points = _table_points(path, rng, n)
    weights = [rng.randint(0, 12) / 4 for _ in range(n)]
    labels = [rng.choice((-1, 1)) for _ in range(n)]
    models, objectives = {}, {}
    for name, sample in _five_ways(tmp_path, weights, labels, points).items():
        model = models[name] = fit_monotone(sample)
        fitted = predict_batch(model, sample.points).tolist()
        objectives[name] = sum(w * y * f for w, y, f in zip(sample.weights, sample.labels, fitted))
    dag = build_dag(models["floats"].support)
    taken = "chain" if dag.is_chain else "grid" if dag.dim == 2 and dag.grid_shape else "staircase" if dag.dim == 2 else "mincut"
    assert taken == path
    first = models["floats"]
    for name, model in models.items():
        assert model.values == first.values, name
        assert [tuple(map(Fraction, p)) for p in model.support] == [tuple(map(Fraction, p)) for p in first.support], name
        assert objectives[name] == objectives["floats"], name
    assert type(objectives["fractions"]) is Fraction and type(objectives["floats"]) is float
    for name in ("arrays", "float csv"):
        assert json.dumps(models[name].to_dict()) == json.dumps(first.to_dict()), name
        assert json.dumps(models[name].to_compact_dict()) == json.dumps(first.to_compact_dict()), name


def test_float_weight_sums_are_added_in_row_order():
    # one point, whose coefficient is 2**54 - 298 - 2**54: added in row order as Python floats,
    # each -1 is lost against 2**54 and the sum is 0.0, which the tie-break fits +1; numpy's
    # pairwise float64 sum keeps them and gives -296, which would fit -1
    weights = [2.0**54] + [1.0] * 298 + [2.0**54]
    labels = [1] + [-1] * 299
    assert np.add.reduceat(np.array(weights) * np.array(labels), [0])[0] == -296.0
    for points in ([(0.5,)] * 300, np.full((300, 1), 0.5)):
        assert fit_monotone(WeightedSample(weights, labels, points)).values == (1,)


@pytest.mark.parametrize("kind", ["tuples", "float array", "rational csv"])
def test_a_fitted_model_keeps_only_its_support_rows(tmp_path, kind):
    # 600 rows on at most 30 distinct dyadic points, each row its own tuple object
    rng = random.Random(kind)
    pool = [(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4) for _ in range(30)]
    labels = [rng.choice((-1, 1)) for _ in range(600)]
    rows = [tuple(list(rng.choice(pool))) for _ in range(600)]
    if kind == "tuples":
        sample = WeightedSample.unweighted(labels, rows)
    elif kind == "float array":
        sample = WeightedSample.unweighted(np.array(labels), np.array(rows))
    else:
        path = tmp_path / "sample.csv"
        path.write_text("y,x1,x2\n" + "".join(f"{y},{Fraction(a)},{Fraction(b)}\n" for y, (a, b) in zip(labels, rows)))
        sample = load_sample(str(path))
    model = fit_monotone(sample)
    # the model the public constructor builds from a dict aggregation, each point the object of its first row
    support, coeffs = _dict_fit_problem(sample)
    want = MonotoneClassifier(support, monotone.solve(IsotoneProblem(build_dag(support), coeffs))[0])
    form = weakref.ref(sample._points.values)
    del sample
    gc.collect()
    assert form() is None
    m = len(support)
    assert 1 < m <= 30
    # only a sample given as tuples hands its tuples on to the model
    assert (model._support.given is None) == (kind != "tuples")
    for read in ((), ("support", "values")):
        for name in read:
            getattr(model, name)
        held = {name: value for name, value in model.__dict__.items() if value is not None}
        assert set(held) == {"_support", "_values", "_ranks", *read}
        assert {name: len(value) for name, value in held.items()} == dict.fromkeys(held, m)
    assert model.support == tuple(support) and model == want
    assert [list(map(type, p)) for p in model.support] == [list(map(type, p)) for p in want.support]
    if kind == "tuples":
        assert all(a is b for a, b in zip(model.support, support))
        # each support point is the sample's own tuple of its point's first row
        first = {}
        for p in reversed(rows):
            first[p] = p
        assert all(p is first[p] for p in model.support) and len(model._support.given) == m
    assert model.values == want.values and model.frontier == want.frontier
    assert json.dumps(model.to_dict()) == json.dumps(want.to_dict())
    assert json.dumps(model.to_compact_dict()) == json.dumps(want.to_compact_dict())
    queries = [(a / 8, b / 8) for a in range(-1, 19) for b in range(-1, 19)]
    assert predict_batch(model, queries).tolist() == predict_batch(want, queries).tolist()
    assert predict_batch(model, rows).tolist() == predict_batch(want, rows).tolist()


def _lowest(model):
    """The minimal +1 support points of ``model``, as its frontier gives the maximal -1 ones."""
    return model._support.rows(model._extreme_rows(1))


def _fit_spied(sample, monkeypatch):
    """The fit of ``sample``, the coefficients its ``solve`` was given (each as its type and repr), and its ``lex_argsort`` calls."""
    seen, sorts = [], []
    real_solve, real_sort = monotone.solve, monotone.lex_argsort
    monkeypatch.setattr(monotone, "solve", lambda problem, **options: seen.append(problem.coeffs) or real_solve(problem, **options))
    monkeypatch.setattr(monotone, "lex_argsort", lambda ranks: sorts.append(len(ranks)) or real_sort(ranks))
    model = fit_monotone(sample)
    monkeypatch.undo()
    coeffs = seen[0].tolist() if isinstance(seen[0], np.ndarray) else list(seen[0])
    return model, [(type(c), repr(c)) for c in coeffs], len(sorts)


@pytest.mark.parametrize("case", ["untied floats", "tied floats", "ints and fractions", "wide ints"])
def test_a_one_dimensional_fit_equals_the_fit_of_its_lift(monkeypatch, case):
    # the lift x -> (x, 0) keeps the order, so the 2-d fit, through the general lexicographic
    # path, must give the 1-d fit's support order, first-row objects, coefficient sums and values
    rng = np.random.default_rng(list(map(ord, case)))
    for trial in range(6):
        n = int(rng.integers(1, 400))
        labels = rng.choice([-1, 1], n)
        weights = rng.uniform(0.0, 2.0, n) if trial % 2 else np.ones(n, dtype=np.int64)
        if case == "untied floats":
            xs = rng.random(n)
        elif case == "tied floats":
            xs = np.round(rng.random(n) * 8) / 8 - 0.5
            xs[rng.random(n) < 0.2] = -0.0
        elif case == "ints and fractions":
            pool = (1, 1.0, Fraction(1), 0, Fraction(1, 2), -2, 0.25, Fraction(7, 3))
            xs = [pool[i] for i in rng.integers(0, len(pool), n)]
        else:
            xs = [2**70 + int(k) for k in rng.integers(-20, 20, n)]
        if isinstance(xs, np.ndarray) and trial % 3 == 0:
            points, lifted = xs[:, None], np.column_stack((xs, np.zeros(n)))
        else:
            points = [(x,) for x in (xs.tolist() if isinstance(xs, np.ndarray) else xs)]
            lifted = [(x, 0) for (x,) in points]
        model, coeffs, sorts = _fit_spied(WeightedSample(weights, labels, points), monkeypatch)
        lift, lift_coeffs, _ = _fit_spied(WeightedSample(weights, labels, lifted), monkeypatch)
        # one column of distinct values is ordered by its ranking alone
        assert sorts == (0 if len(model.values) == n else 1)
        assert lift.values == model.values and lift_coeffs == coeffs
        assert [(type(q[0]), q[0], q[1]) for q in lift.support] == [(type(p[0]), p[0], 0) for p in model.support]
        zero = 0.0 if isinstance(points, np.ndarray) else 0
        for form in ("to_dict", "to_compact_dict"):
            flat, plane = getattr(model, form)(), getattr(lift, form)()
            for key in ("support", "min_positive", "max_negative"):
                if key in flat:
                    flat[key] = [p + [zero] for p in flat[key]]
            assert json.dumps(plane) == json.dumps({**flat, "dim": 2}), form
        if isinstance(points, list):
            # each support point is the tuple of its first row, and its lift holds that row's object
            first = {}
            for p in points:
                first.setdefault(p[0], p)
            assert all(p is first[p[0]] and q[0] is p[0] for p, q in zip(model.support, lift.support))
