import json
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from isoclass import bench, bernstein
from isoclass import (
    BernsteinClassifier,
    IsotoneProblem,
    ValidationError,
    WeightedSample,
    basis,
    bernstein_evaluate,
    bernstein_predict,
    brute_force_solve,
    fit_bernstein,
    lattice_dag,
    solve,
    suggest_orders,
)
from isoclass.bernstein import (
    MAX_LATTICE_SIZE,
    MAX_ORDER_PER_DIM,
    _basis_matrices,
    _chunk_rows,
    _log_features,
    empirical_hinge_risk,
    evaluate_batch,
    predict_batch,
)
from isoclass.cli import main as cli_main
from isoclass.io import save_model


def random_cube_sample(rng, n, d):
    points = [tuple(rng.random() for _ in range(d)) for _ in range(n)]
    labels = [rng.choice((-1, 1)) for _ in range(n)]
    return WeightedSample.unweighted(labels, points)


def test_basis_examples():
    assert basis(2, 1, 0.5) == pytest.approx(0.5)
    assert basis(5, 0, 0.0) == 1.0
    assert sum(basis(3, j, 0.3) for j in range(4)) == pytest.approx(1.0, abs=1e-12)


def test_basis_validation():
    with pytest.raises(ValidationError):
        basis(2, 3, 0.5)
    with pytest.raises(ValidationError):
        basis(2, 1, 1.5)
    for k, j in ((2, 3), (-1, 0), (np.int64(3), 4), (3, np.int64(-1))):
        with pytest.raises(ValidationError) as caught:
            basis(k, j, 0.5)
        assert str(caught.value) == f"index j={int(j)} out of range for order k={int(k)}"
    # numpy integers are read as ints; a bool or a float is not an index
    assert basis(np.int64(3), np.int32(1), 0.5) == basis(3, 1, 0.5) == 0.375
    for k, j in ((True, 0), (1, False), (np.bool_(True), 0), (2.0, 1), (2, 1.0)):
        with pytest.raises(ValidationError) as caught:
            basis(k, j, 0.5)
        assert str(caught.value) == f"order k and index j must be integers, got {[k, j]!r}"


def test_evaluate_linear_model():
    model = BernsteinClassifier((1,), (-1.0, 1.0))
    assert bernstein_evaluate(model, (0.75,)) == pytest.approx(0.5)
    assert bernstein_evaluate(model, (0.5,)) == pytest.approx(0.0)


def test_evaluate_constant_one():
    model = BernsteinClassifier((2, 3), (1,) * 12)
    rng = random.Random(1)
    for _ in range(50):
        x = (rng.random(), rng.random())
        assert bernstein_evaluate(model, x) == pytest.approx(1.0, abs=1e-12)


def test_predict_calls_evaluate_through_the_module_attribute(monkeypatch):
    # span tracers wrap bernstein.evaluate and bench.bernstein_value by name
    seen = []
    real = bernstein.evaluate

    def spy(model, x):
        seen.append(tuple(x))
        return real(model, x)

    monkeypatch.setattr(bernstein, "evaluate", spy)
    model = BernsteinClassifier((1,), (-1.0, 1.0))
    assert [bernstein.predict(model, (x,)) for x in (0.25, 0.75)] == [-1, 1]
    assert seen == [(0.25,), (0.75,)]
    assert bench.bernstein_value is real


def test_evaluate_clamps_with_warning():
    model = BernsteinClassifier((1,), (-1.0, 1.0))
    with pytest.warns(UserWarning):
        assert bernstein_evaluate(model, (1.5,)) == pytest.approx(1.0)


def test_evaluate_monotone_when_theta_lattice_monotone():
    model = BernsteinClassifier((2, 2), (-1, -1, 1, -1, 1, 1, 1, 1, 1))
    rng = random.Random(2)
    for _ in range(60):
        a = (rng.random(), rng.random())
        b = (min(1.0, a[0] + rng.random() * 0.3), min(1.0, a[1] + rng.random() * 0.3))
        assert bernstein_evaluate(model, a) <= bernstein_evaluate(model, b) + 1e-12


def test_fit_two_point_example():
    sample = WeightedSample.unweighted([-1, 1], [(0.0,), (1.0,)])
    model = fit_bernstein(sample, (1,))
    assert model.theta == (-1, 1)


def test_fit_all_positive_labels():
    sample = WeightedSample.unweighted([1, 1, 1], [(0.2,), (0.5,), (0.9,)])
    model = fit_bernstein(sample, (3,))
    assert model.theta == (1, 1, 1, 1)


def test_fit_corner_square():
    sample = WeightedSample.unweighted(
        [-1, 1, 1, 1], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    )
    model = fit_bernstein(sample, (1, 1))
    assert model.theta == (-1, 1, 1, 1)


def test_fit_rejects_out_of_cube_covariates():
    sample = WeightedSample.unweighted([1], [(1.2,)])
    with pytest.raises(ValidationError):
        fit_bernstein(sample, (1,))


def test_fit_rejects_zero_order():
    sample = WeightedSample.unweighted([1], [(0.5,)])
    with pytest.raises(ValidationError):
        fit_bernstein(sample, (0,))


def test_fit_and_model_refuse_orders_that_are_not_integers():
    # 2.9 is not truncated to order 2, "2" is not parsed, a bool is not an order; numpy integers are orders
    sample = WeightedSample.unweighted([1, -1], [(0.25,), (0.75,)])
    for orders in ((2.9,), ("2",), (True,), (np.float64(2.0),)):
        with pytest.raises(ValidationError, match="orders must be integers"):
            fit_bernstein(sample, orders)
        with pytest.raises(ValidationError, match="orders must be integers"):
            BernsteinClassifier(orders, (-1, 0, 1))
    assert fit_bernstein(sample, (np.int64(2),)).orders == (2,)


def test_fitted_theta_is_lattice_monotone():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(1, 2)
        sample = random_cube_sample(rng, rng.randint(2, 30), d)
        orders = tuple(rng.randint(1, 3) for _ in range(d))
        model = fit_bernstein(sample, orders)
        dag = lattice_dag(orders)
        for i, j in dag.cover_edges:
            assert model.theta[i] <= model.theta[j]


def test_fit_evaluations_stay_in_box():
    rng = random.Random(5)
    sample = random_cube_sample(rng, 40, 2)
    model = fit_bernstein(sample, (2, 3))
    for _ in range(1000):
        x = (rng.random(), rng.random())
        assert -1.0 - 1e-12 <= bernstein_evaluate(model, x) <= 1.0 + 1e-12


def test_fit_objective_matches_brute_force_on_small_lattices():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(1, 2)
        orders = (rng.randint(1, 2),) if d == 1 else (rng.randint(1, 2), rng.randint(1, 2))
        sample = random_cube_sample(rng, rng.randint(2, 20), d)
        model = fit_bernstein(sample, orders)
        dag = lattice_dag(orders)
        signed = [w * y for w, y in zip(sample.weights, sample.labels)]
        coeffs = []
        for idx in dag.nodes:
            total = 0.0
            for s, p in zip(signed, sample.points):
                term = float(s)
                for v, j in enumerate(idx):
                    term *= basis(orders[v], j, p[v])
                total += term
            coeffs.append(total)
        values, _ = brute_force_solve(IsotoneProblem(dag, tuple(coeffs)))
        objective_fit = sum(c * t for c, t in zip(coeffs, model.theta))
        objective_oracle = sum(c * v for c, v in zip(coeffs, values))
        assert objective_fit == pytest.approx(objective_oracle, abs=1e-9)


def test_fit_beats_random_feasible_coefficients():
    rng = random.Random(13)
    sample = random_cube_sample(rng, 30, 1)
    orders = (4,)
    model = fit_bernstein(sample, orders)
    fitted_risk = empirical_hinge_risk(model, sample)
    dag = lattice_dag(orders)
    # the hinge risk of any theta, from the public basis: a rival may be fractional, which no model holds
    bases = [[basis(orders[0], j, x) for j in range(dag.n)] for (x,) in sample.points]

    def risk(theta):
        values = [sum(t * b for t, b in zip(theta, row)) for row in bases]
        return sum(float(w) * max(0.0, 1.0 - y * v) for w, y, v in zip(sample.weights, sample.labels, values)) / sample.n

    assert risk(model.theta) == pytest.approx(fitted_risk, abs=1e-12)
    for _ in range(100):
        theta = [rng.uniform(-1, 1) for _ in range(dag.n)]
        for _ in range(dag.n):
            for i, j in dag.cover_edges:
                theta[j] = max(theta[j], theta[i])
        assert fitted_risk <= risk(theta) + 1e-12


def test_predict_boundary_and_signs():
    model = BernsteinClassifier((1,), (-1, 1))
    assert bernstein_predict(model, (0.5,)) == 1  # evaluate = 0 -> +1
    low = BernsteinClassifier((2,), (-1, -1, -1))
    assert bernstein_predict(low, (0.3,)) == -1


def test_serialization_round_trip():
    rng = random.Random(17)
    sample = random_cube_sample(rng, 20, 2)
    model = fit_bernstein(sample, (2, 2))
    back = BernsteinClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
    assert back == model
    for _ in range(100):
        x = (rng.random(), rng.random())
        assert bernstein_evaluate(back, x) == bernstein_evaluate(model, x)


def test_scaled_model_round_trip():
    model = BernsteinClassifier((1,), (-1, 1), ((0.0,), (10.0,)))
    assert bernstein_predict(model, (9.0,)) == 1
    assert bernstein_predict(model, (1.0,)) == -1
    back = BernsteinClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
    assert back == model


def test_suggest_orders_examples():
    assert suggest_orders(2, 1) == (1,)  # the n-1 parameter cap floors it at 1
    assert suggest_orders(10, 1) == (1,)  # the rate exceeds the log(k)/k hump


def test_suggest_orders_refuses_dimensions_where_no_order_fits():
    assert suggest_orders(30, 19) == (1,) * 19  # 2^19 coefficients fit under 10^6
    with pytest.raises(ValidationError, match="at most 19 covariates"):
        suggest_orders(30, 20)


def test_suggest_orders_satisfies_rate_bound():
    for n in (50, 100, 400, 1600, 10_000):
        (k,) = suggest_orders(n, 1)
        rate = math.log(n) / math.sqrt(n)
        if k == 500:  # the per-dimension cap binds before the rate rule
            continue
        assert math.sqrt(math.log(k) / k) <= rate
        if k > 3:
            assert math.sqrt(math.log(k - 1) / (k - 1)) > rate


def test_suggest_orders_nondecreasing_in_n():
    previous = 0
    for n in range(2, 2000, 7):
        (k,) = suggest_orders(n, 1)
        assert k >= previous
        previous = k


def test_suggest_orders_caps_lattice_size():
    orders = suggest_orders(10**6, 3)
    size = np.prod([k + 1 for k in orders])
    assert size <= 10**6
    # the cap is the largest order that fits, found in integers
    assert orders == (99,) * 3
    assert suggest_orders(10**6, 6) == (9,) * 6
    for d in range(1, 9):
        for n in (100, 10**4, 10**6, 10**9):
            k = suggest_orders(n, d)[0]
            assert (k + 1) ** d <= MAX_LATTICE_SIZE
            rate = math.log(n) / math.sqrt(n) if d == 1 else n ** (-1.0 / d)
            if k < min(n - 1, MAX_ORDER_PER_DIM) and math.log(max(k, 3)) / max(k, 3) > rate * rate:
                # only the lattice cap stops the search here: the next order would not fit
                assert (k + 2) ** d > MAX_LATTICE_SIZE


def test_suggest_orders_stops_at_its_caps_without_searching_past_them():
    start = time.perf_counter()
    assert suggest_orders(10**6, 2) == (500, 500)
    assert suggest_orders(10**12, 1) == (500,)
    assert time.perf_counter() - start < 1.0


def _error(call, *args) -> str:
    with pytest.raises(ValidationError) as info:
        call(*args)
    return str(info.value)


def test_coordinates_beyond_float_range_are_validation_errors():
    huge = Fraction(10**400)
    with pytest.raises(ValidationError, match="beyond float range"):
        fit_bernstein(WeightedSample.unweighted([1, -1], [(huge,), (Fraction(1, 2),)]), (2,))
    model = BernsteinClassifier((1,), (-1, 1))
    for points in ([(Fraction(1, 2),), (-(10**400),)], np.array([[huge]], dtype=object)):
        with pytest.raises(ValidationError, match="beyond float range"):
            evaluate_batch(model, points)
    # the single-point path names the coordinate as the batch path does
    for bad in (10**400, -(10**400), huge):
        message = _error(evaluate_batch, model, [(bad,)])
        assert "beyond float range" in message
        assert _error(bernstein_evaluate, model, (bad,)) == message
        assert _error(bernstein_predict, model, (bad,)) == message


# binarized is the flag that a file written before thresholds holds next to its theta; it is ignored
@pytest.mark.parametrize(
    "theta, binarized, message",
    [
        ((float("nan"), 1), False, "theta must be finite, got nan"),
        ((-1, 2), False, "theta entries must lie in {-1, +1}, got 2"),
        ((-1, 10**400), True, f"theta entries must lie in {{-1, +1}}, got {10**400!r}"),
        ((1, 0.5), True, "theta entries must lie in {-1, +1}, got 0.5"),
        # the first entry that is not +/-1 is named
        ((0.5, 2.0, float("nan")), True, "theta entries must lie in {-1, +1}, got 0.5"),
        ((Fraction(1, 2), -1.5), False, "theta entries must lie in {-1, +1}, got Fraction(1, 2)"),
    ],
)
def test_theta_errors_name_the_first_bad_entry(theta, binarized, message):
    orders = (len(theta) - 1,)
    assert _error(BernsteinClassifier, orders, theta) == message
    payload = {"type": "bernstein", "orders": list(orders), "theta": list(theta), "binarized": binarized}
    assert _error(BernsteinClassifier.from_dict, payload) == message


def test_theta_of_any_number_type_in_the_box_is_accepted():
    # the box is {-1, +1}: any number equal to -1 or +1, but not a bool
    for theta in ((-1, 1.0), (Fraction(-1), np.float64(1.0)), (-1.0, np.int64(1), Fraction(1))):
        assert BernsteinClassifier((len(theta) - 1,), theta).theta == theta


@pytest.mark.parametrize(
    "orders, theta, pair",
    [
        ((1,), (1, -1), "theta[0] = 1 > theta[1] = -1"),
        ((2,), (-1, 1.0, -1), "theta[1] = 1.0 > theta[2] = -1"),
        # the first pair along the first axis that falls, by flat indices in row-major order
        ((1, 1), (-1, 1, 1, -1), "theta[1] = 1 > theta[3] = -1"),
        ((1, 1), (-1, -1, 1, -1), "theta[2] = 1 > theta[3] = -1"),
        ((1, 1, 1), (-1, -1, -1, -1, 1, 1, 1, -1), "theta[5] = 1 > theta[7] = -1"),
    ],
)
def test_a_theta_that_falls_along_the_lattice_is_refused(tmp_path, capsys, orders, theta, pair):
    message = f"theta must be nondecreasing along the lattice: {pair}"
    assert _error(BernsteinClassifier, orders, theta) == message
    # a file written before thresholds holds theta itself
    payload = {"type": "bernstein", "orders": list(orders), "theta": list(theta), "binarized": True, "scale": None}
    assert _error(BernsteinClassifier.from_dict, payload) == message
    model, points, out = tmp_path / "b.json", tmp_path / "pts.csv", tmp_path / "labels.csv"
    model.write_text(json.dumps(payload))
    points.write_text(",".join(f"x{v + 1}" for v in range(len(orders))) + "\n" + ",".join(["0.5"] * len(orders)) + "\n")
    assert cli_main(["predict", "--model", str(model), "--in", str(points), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {model}: malformed bernstein model (ValidationError: {message})\n"
    assert not out.exists()


def test_weights_beyond_float_range_are_validation_errors():
    sample = WeightedSample((Fraction(10**400), 1), (1, -1), ((0.25,), (0.75,)))
    with pytest.raises(ValidationError, match="weight 1000"):
        fit_bernstein(sample, (2,))
    with pytest.raises(ValidationError, match="weight 1000"):
        empirical_hinge_risk(BernsteinClassifier((1,), (-1, 1)), sample)


def _up_set(rng, orders) -> tuple:
    """A random +/-1 up-set of the lattice: the signs, about a random level, of normal draws sorted along each axis in turn."""
    grid = rng.normal(size=[k + 1 for k in orders])
    for v in range(grid.ndim):
        grid = np.sort(grid, axis=v)
    return tuple(np.where(grid >= rng.normal(), 1, -1).ravel().tolist())


def _tensor_product_value(model, x):
    """Per-point oracle from the public basis: sum_j theta_j prod_v b_{k_v j_v}(x_v)."""
    if model.scale is not None:
        mins, maxs = model.scale
        x = [(v - lo) / (hi - lo) if hi > lo else 0.5 for v, lo, hi in zip(x, mins, maxs)]
    x = [min(1.0, max(0.0, float(v))) for v in x]
    total = 0.0
    for t, j in zip(model.theta, model.multi_indices()):
        term = t
        for k, jv, xv in zip(model.orders, j, x):
            term *= basis(k, jv, xv)
        total += term
    return total


@pytest.mark.filterwarnings("ignore:coordinates outside")
def test_evaluate_batch_matches_per_point_tensor_product():
    rng = np.random.default_rng(5)
    for orders in ((7,), (1,), (4, 3), (6, 6), (2, 3, 4)):
        theta = _up_set(rng, orders)
        d = len(orders)
        for scale in (None, (tuple(rng.uniform(-2, 0, d).tolist()), tuple(rng.uniform(1, 3, d).tolist()))):
            model = BernsteinClassifier(orders, theta, scale=scale)
            pts = rng.uniform(0, 1, (50, d)) if scale is None else rng.uniform(-1, 2, (50, d))
            want = [_tensor_product_value(model, p) for p in pts.tolist()]
            got = evaluate_batch(model, pts)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert evaluate_batch(model, [tuple(p) for p in pts.tolist()]).tolist() == got.tolist()
            assert [bernstein_evaluate(model, p) for p in pts.tolist()] == pytest.approx(want, abs=1e-12)
            assert predict_batch(model, pts).tolist() == [1 if v >= 0 else -1 for v in got]


def test_evaluate_batch_clamps_with_one_warning_per_batch():
    model = BernsteinClassifier((2, 2), (-1, -1, 1, -1, 1, 1, 1, 1, 1))
    pts = [(1.5, 0.2), (-0.3, 0.4), (0.5, 2.0), (0.1, 0.1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = evaluate_batch(model, pts)
    assert len(caught) == 1 and "clamped" in str(caught[0].message)
    want = [_tensor_product_value(model, p) for p in pts]
    assert np.max(np.abs(got - want)) <= 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_batch(model, [(0.0, 1.0), (0.5, 0.5)])
    assert caught == []


def test_evaluate_batch_empty_and_dimension_checks():
    model = BernsteinClassifier((2, 1), (-1, -1, -1, 1, 1, 1))
    assert evaluate_batch(model, []).shape == (0,)
    assert evaluate_batch(model, np.zeros((0, 2))).shape == (0,)
    with pytest.raises(ValidationError):
        evaluate_batch(model, [(0.5,)])
    with pytest.raises(ValidationError):
        evaluate_batch(model, np.zeros((3, 3)))
    for point in ((0.5,), (0.5, 0.5, 0.5), ()):
        message = f"point has dimension {len(point)}, model expects 2"
        # a batch is read as monotone.predict_batch reads one: points of no coordinates are refused as such
        assert _error(evaluate_batch, model, [point]) == (message if point else "points must have at least one coordinate")
        assert _error(bernstein_evaluate, model, point) == message
        assert _error(bernstein_predict, model, point) == message
    assert _error(evaluate_batch, model, [(0.5, 0.5), (0.5,)]) == "points have mixed dimensions: [1, 2]"
    assert _error(evaluate_batch, model, np.zeros(3)) == "an array of points must have shape (n, d), got (3,)"


def test_predict_rejects_non_finite_queries():
    model = BernsteinClassifier((1, 1), (-1, 1, 1, 1))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            bernstein_predict(model, (bad, 0.5))
        with pytest.raises(ValidationError):
            predict_batch(model, [(0.5, 0.5), (0.5, bad)])
        with pytest.raises(ValidationError):
            evaluate_batch(model, np.array([[bad, 0.5]]))
        # a batch names the point and the value, as monotone.predict_batch does; one point keeps its own message
        assert _error(evaluate_batch, model, [(0.5, 0.5), (0.5, bad)]) == f"covariate of point 1 must be finite, got {bad!r}"
        assert _error(evaluate_batch, model, np.array([[bad, 0.5]])) == f"covariate of point 0 must be finite, got {bad!r}"
        assert _error(bernstein_evaluate, model, (0.5, bad)) == "coordinates must be finite"


def test_empirical_hinge_risk_matches_per_point_sum():
    rng, draws = random.Random(8), np.random.default_rng(8)
    for d, orders in ((1, (5,)), (2, (3, 4))):
        sample = random_cube_sample(rng, 40, d)
        model = BernsteinClassifier(orders, _up_set(draws, orders))
        want = sum(
            float(w) * max(0.0, 1.0 - y * _tensor_product_value(model, p))
            for w, y, p in zip(sample.weights, sample.labels, sample.points)
        ) / sample.n
        assert abs(empirical_hinge_risk(model, sample) - want) <= 1e-12


def test_basis_matrices_match_basis_at_interior_and_end_points():
    rng = np.random.default_rng(21)
    special = [0.0, 1.0, 1e-300, 1 - 2**-53, 5e-324, 0.5]
    for k in (1, 4, 80, 147, 500):
        xs = np.array(special + rng.random(40).tolist())
        # one call for all rows, one call per row, and a two-column block
        batch = _basis_matrices((k,), _log_features(xs[:, None]))[0]
        rows = np.vstack([_basis_matrices((k,), _log_features(np.array([[x]])))[0] for x in xs])
        pair = _basis_matrices((k, 3), _log_features(np.stack([xs, xs[::-1]], axis=1)))
        want = np.array([[basis(k, j, x) for j in range(k + 1)] for x in xs.tolist()])
        for got in (batch, rows, pair[0]):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(pair[1] - [[basis(3, j, x) for j in range(4)] for x in xs[::-1].tolist()])) <= 1e-12
        # the end points give exactly one-hot rows
        assert batch[0].tolist() == [1.0] + [0.0] * k
        assert batch[1].tolist() == [0.0] * k + [1.0]


def _power_basis(k, xs):
    """Reference basis matrix in the power form C(k, j) x^j (1 - x)^(k - j)."""
    col = np.asarray(xs, dtype=float)[:, None]
    j = np.arange(k + 1)[None, :]
    return np.array([math.comb(k, i) for i in range(k + 1)], dtype=float) * col**j * (1.0 - col) ** (k - j)


def test_evaluate_batch_across_chunk_boundaries_matches_single_rows():
    rng = np.random.default_rng(22)
    for orders in ((500,), (80, 80)):
        model = BernsteinClassifier(orders, _up_set(rng, orders))
        pts = rng.random((2 * _chunk_rows(orders) + 7, len(orders)))
        pts[:3] = [[0.0] * len(orders), [1.0] * len(orders), [1e-300] * len(orders)]
        got = evaluate_batch(model, pts)
        sample = rng.choice(len(pts), 40, replace=False).tolist() + [0, 1, 2, len(pts) - 1]
        single = [bernstein_evaluate(model, tuple(pts[i])) for i in sample]
        assert np.max(np.abs(got[sample] - single)) <= 1e-12
        grid = model.theta_grid
        want = _power_basis(orders[0], pts[sample, 0]) @ grid.reshape(grid.shape[0], -1)
        if len(orders) == 2:
            want = (want * _power_basis(orders[1], pts[sample, 1])).sum(axis=1, keepdims=True)
        assert np.max(np.abs(got[sample] - want[:, 0])) <= 1e-12


def test_fit_matches_power_form_reference_across_chunks():
    rng = np.random.default_rng(23)
    for orders, n in (((500,), 2 * _chunk_rows((500,)) + 11), ((2, 3, 4), 300), ((6, 5), 200)):
        pts = rng.random((n, len(orders)))
        labels = np.where(rng.random(n) < pts.mean(axis=1), 1, -1)
        sample = WeightedSample.unweighted(labels.tolist(), [tuple(p) for p in pts.tolist()])
        coeff = labels.astype(float)
        for v, k in enumerate(orders):
            # weighted row-wise products over the dimensions so far, last index fastest
            coeff = (coeff.reshape(n, -1)[:, :, None] * _power_basis(k, pts[:, v])[:, None, :]).reshape(n, -1)
        coeff = coeff.sum(axis=0)
        want, _ = solve(IsotoneProblem(lattice_dag(orders), tuple(coeff.tolist())))
        assert list(fit_bernstein(sample, orders).theta) == want


def _packed_at_the_ends(rng, n, d):
    """n points within 0.01 of 0 or of 1 in every coordinate; the first rows at 0, 1, 1e-300 and 5e-324."""
    pts = rng.uniform(0.0, 0.01, (n, d))
    pts[rng.random((n, d)) < 0.5] += 0.99
    pts[:4] = np.array([0.0, 1.0, 1e-300, 5e-324])[:, None]
    return pts


def _spy_on_solve(monkeypatch):
    """The coefficient array of every ``solve`` that ``fit`` makes."""
    seen, real = [], bernstein.solve
    monkeypatch.setattr(bernstein, "solve", lambda problem, **options: seen.append(problem.coeffs) or real(problem, **options))
    return seen


def _unscaled_coefficients(orders, pts, signed):
    """sum_i signed_i prod_v b_{k_v j_v}(x_iv) over the unscaled ``_basis_matrices``, last index fastest."""
    coeff = signed.astype(float)
    for b in _basis_matrices(orders, _log_features(pts)):
        coeff = (coeff.reshape(len(pts), -1)[:, :, None] * b[:, None, :]).reshape(len(pts), -1)
    return coeff.sum(axis=0)


def test_fit_first_basis_is_scaled_with_no_subnormal_and_keeps_every_nonzero_entry(monkeypatch):
    tiny, factor = np.finfo(float).tiny, math.exp(bernstein._SHIFT)
    built, real = [], bernstein._scaled_basis_matrix

    def spy(k, features):
        built.append((k, features.copy(), real(k, features)))
        return built[-1][2]

    monkeypatch.setattr(bernstein, "_scaled_basis_matrix", spy)
    rng = np.random.default_rng(24)
    subnormals = 0
    for k in (147, 500):
        built.clear()
        n = 2 * _chunk_rows((k,)) + 9
        pts = _packed_at_the_ends(rng, n, 1)
        fit_bernstein(WeightedSample.unweighted(rng.choice([-1, 1], n).tolist(), pts), (k,))
        assert sum(len(b) for _, _, b in built) == n
        for order, features, b in built:
            assert order == k
            assert ((b == 0.0) | (b >= tiny)).all()
            assert (b[features @ bernstein._basis_rows(k) < bernstein._CUT - bernstein._SHIFT - 1e-9] == 0.0).all()
            unscaled = _basis_matrices((k,), features[:, None])[0]
            subnormals += ((unscaled > 0.0) & (unscaled < tiny)).sum()
            assert (b[unscaled != 0.0] != 0.0).all()
            # within 1e-12 where the unscaled entry is normal, and within its rounding (5e-324) where it is not
            assert (np.abs(b / factor - unscaled) <= 1e-12 * unscaled + 5e-324).all()
    assert subnormals > 0


def test_scaled_basis_matrix_is_the_exp_of_the_logs_clipped_at_the_cut_with_the_cut_entries_zeroed():
    cut = bernstein._CUT
    # the end rows u = 0 and 1 and the rows next to them, then rows whose shifted logs straddle the cut
    u = np.concatenate(([0.0, 1.0, 1e-300, 1.0 - 2.0**-53], np.linspace(0.001, 0.999, 61)))
    for k in (1, 147, 500):
        features = _log_features(u[:, None])[:, 0]
        logs = features @ bernstein._basis_rows(k, bernstein._SHIFT)
        want = np.exp(np.maximum(logs, cut))
        want[logs < cut] = 0.0
        assert bernstein._scaled_basis_matrix(k, features).tobytes() == want.tobytes()
    near = np.abs(logs - cut) < 1.0
    assert (near & (logs < cut)).any() and (near & (logs >= cut)).any()
    assert ((logs < cut).any(axis=1) & (logs >= cut).any(axis=1)).sum() >= 30


def test_fit_coefficients_are_the_unscaled_ones_times_the_shift(monkeypatch):
    seen = _spy_on_solve(monkeypatch)
    factor = math.exp(bernstein._SHIFT)
    rng = np.random.default_rng(25)
    for orders, n in (((500,), 300), ((80, 80), 300), ((2, 3, 4), 200)):
        for pts in (rng.random((n, len(orders))), _packed_at_the_ends(rng, n, len(orders))):
            labels = np.where(rng.random(n) < pts.mean(axis=1), 1, -1)
            weights = rng.uniform(0.0, 3.0, n)
            seen.clear()
            fit_bernstein(WeightedSample(weights.tolist(), labels.tolist(), pts), orders)
            want = _unscaled_coefficients(orders, pts, weights * labels)
            # relative to the sum of the terms' magnitudes; a term whose unscaled basis entry is subnormal
            # or 0 is off by its rounding and the product's, at most (w_i + 1) 2.5e-324
            bound = 1e-12 * _unscaled_coefficients(orders, pts, weights) + 5e-324 * (weights + 1.0).sum()
            assert (np.abs(seen[0] / factor - want) <= bound).all()


def test_fit_scales_only_the_first_basis_and_only_within_float_range(monkeypatch):
    seen = _spy_on_solve(monkeypatch)
    # 16 order-1 dimensions: their 16 shifts together would make 2^1024; only the first is shifted
    model = fit_bernstein(WeightedSample.unweighted([-1], [(0.0,) * 16]), (1,) * 16)
    assert model.theta == (-1,) + (1,) * (2**16 - 1)
    assert seen[0][0] == -math.exp(bernstein._SHIFT) and not seen[0][1:].any()
    # max |w_i| n beyond 2^900: the first basis is unscaled, and the coefficients are the unscaled sums bit for bit
    rng = np.random.default_rng(26)
    pts = rng.random((40, 1))
    labels = np.where(rng.random(40) < pts[:, 0], 1, -1)
    for weight in (1e290, 1e300):
        seen.clear()
        model = fit_bernstein(WeightedSample([weight] * 40, labels.tolist(), pts), (50,))
        signed = weight * labels.astype(float)
        want = (_basis_matrices((50,), _log_features(pts))[0].T @ signed[:, None]).reshape(-1)
        assert np.isfinite(seen[0]).all() and np.array_equal(seen[0], want)
        assert list(model.theta) == solve(IsotoneProblem(lattice_dag((50,)), want))[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda model, sample: evaluate_batch(model, sample.points),
        lambda model, sample: predict_batch(model, sample.points),
        lambda model, sample: bernstein_evaluate(model, sample.points[0]),
        lambda model, sample: bernstein_predict(model, sample.points[0]),
        lambda model, sample: empirical_hinge_risk(model, sample),
    ],
    ids=["evaluate_batch", "predict_batch", "evaluate", "predict", "empirical_hinge_risk"],
)
def test_clamp_warning_names_the_callers_line(call):
    model = BernsteinClassifier((2, 1), (-1, -1, -1, 1, 1, 1))
    sample = WeightedSample.unweighted([1, -1], [(1.5, 0.5), (0.2, -0.5)])
    with pytest.warns(UserWarning, match="clamped") as record:
        call(model, sample)
    assert [w.filename for w in record] == [__file__]


def test_fit_builds_the_model_the_public_constructor_would():
    # the fit skips the constructor's per-entry checks; the checked model must be the same
    rng = random.Random(439)
    for orders in ((1,), (7,), (3, 4), (2, 1, 3)):
        sample = random_cube_sample(rng, 60, len(orders))
        model = fit_bernstein(sample, orders)
        checked = BernsteinClassifier(orders, model.theta)
        assert model == checked and model.to_dict() == checked.to_dict()
        assert type(model.orders) is tuple and type(model.theta) is tuple
        assert all(type(t) is int for t in model.theta)
        assert model.scale is None
        assert bernstein_evaluate(model, (0.5,) * len(orders)) == bernstein_evaluate(checked, (0.5,) * len(orders))


def test_fit_and_risk_read_the_samples_kept_float_arrays():
    # the float copy's kept matrix holds float(v) for every coordinate, as float_points gives
    # for the exact sample, which keeps none; so both fit the same thetas
    rng = random.Random(443)
    for orders in ((9,), (4, 3)):
        d = len(orders)
        points = [tuple(Fraction(rng.randint(0, 24), 24) for _ in range(d)) for _ in range(80)]
        labels = [rng.choice((-1, 1)) for _ in points]
        weights = [Fraction(rng.randint(0, 9), 7) for _ in points]
        exact = WeightedSample(weights, labels, points)
        floats = WeightedSample([float(w) for w in weights], labels, [tuple(map(float, p)) for p in points])
        assert exact._points.denominators is not None and np.array_equal(floats._points.values, bernstein.float_points(points, d))
        model = fit_bernstein(exact, orders)
        assert model.theta == fit_bernstein(floats, orders).theta
        assert empirical_hinge_risk(model, exact) == empirical_hinge_risk(model, floats)
        assert empirical_hinge_risk(model, exact) == float(
            np.dot([float(w) for w in weights], np.maximum(0.0, 1.0 - np.array(labels) * evaluate_batch(model, points)))
        ) / len(points)


def _one_row_values(model, x):
    """``_values`` of the one log-feature row of ``x``: the batch contraction, as ``evaluate`` once called it."""
    u = [float(v) for v in x]
    if model.scale is not None:
        u = [(v - lo) / (hi - lo) if hi > lo else 0.5 for v, lo, hi in zip(u, *model.scale)]
    u = [min(max(v, 0.0), 1.0) for v in u]
    row = [(1.0, np.log(v) if v > 0.0 else bernstein._LOG_ZERO, np.log1p(-v) if v < 1.0 else bernstein._LOG_ZERO) for v in u]
    return float(bernstein._values(model, np.array([row]))[0])


def _threshold_in_80_steps(model):
    """The bisection of ``bench._threshold_1d`` for a model below 0 at 0 and at least 0 at 1, always 80 steps."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bernstein_evaluate(model, (mid,)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_evaluate_is_the_one_row_batch_contraction_bit_for_bit():
    rng = np.random.default_rng(31)
    for orders in ((1,), (500,), (80, 80), (3, 9), (5, 7, 3)):
        d = len(orders)
        for _ in range(2):
            model = BernsteinClassifier(orders, _up_set(rng, orders))
            pts = rng.random((150, d))
            pts[:3] = [[0.0] * d, [1.0] * d, [1e-300] * d]
            pts[3:20] **= 40
            for p in pts.tolist():
                assert bernstein_evaluate(model, p) == _one_row_values(model, p)
    # a scaled model with a degenerate second range; a clamped point still warns at this line
    model = BernsteinClassifier((4, 3), _up_set(rng, (4, 3)), ((-2.0, 5.0), (3.0, 5.0)))
    for p in rng.uniform(-2.0, 3.0, (50, 2)).tolist():
        assert bernstein_evaluate(model, p) == _one_row_values(model, p)
    with pytest.warns(UserWarning, match="clamped") as record:
        value = bernstein_evaluate(model, (7.5, -1.0))
    assert [w.filename for w in record] == [__file__]
    assert value == _one_row_values(model, (7.5, -1.0))
    # the bisection stops once lo and hi are adjacent floats, with the threshold of all 80 steps; the
    # last two models cross 0 near 1.4e-3 and, scaled onto [0, 2e-20], at 1e-20, where the 80 steps
    # end before adjacency (every point above 2e-20 is clamped)
    draws = np.random.default_rng(457)
    models = [fit_bernstein(WeightedSample.unweighted(*bench.StepDgp().sample(draws, 400)[::-1]), (k,)) for k in (12, 147, 500)]
    models += [BernsteinClassifier((500,), (-1,) + (1,) * 500), BernsteinClassifier((1,), (-1, 1), ((0.0,), (2e-20,)))]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "coordinates outside")
        for model in models:
            assert bernstein_evaluate(model, (0.0,)) < 0.0 <= bernstein_evaluate(model, (1.0,))
            assert bench._threshold_1d(model) == _threshold_in_80_steps(model)


@pytest.mark.filterwarnings("ignore:coordinates outside")
def test_evaluate_is_the_one_row_batch_contraction_at_large_orders_scaled_and_clamped():
    rng = np.random.default_rng(467)
    for orders in ((147,), (8, 8, 8), (399, 399)):
        d = len(orders)
        theta = _up_set(rng, orders)
        scale = (tuple(rng.uniform(-2.0, 0.0, d).tolist()), tuple(rng.uniform(1.0, 3.0, d).tolist()))
        for model in (BernsteinClassifier(orders, theta), BernsteinClassifier(orders, theta, scale)):
            # about half of the points have a coordinate outside the unit cube (or the training range)
            pts = rng.uniform(-0.2, 1.2, (60, d)) if model.scale is None else rng.uniform(-3.0, 4.0, (60, d))
            for p in pts.tolist():
                assert bernstein_evaluate(model, p) == _one_row_values(model, p)
            assert [bernstein_predict(model, p) for p in pts.tolist()] == [1 if _one_row_values(model, p) >= 0 else -1 for p in pts.tolist()]


def test_evaluate_warns_once_per_call_and_only_after_every_check():
    model = BernsteinClassifier((2, 1, 3), _up_set(np.random.default_rng(479), (2, 1, 3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bernstein_evaluate(model, (1.5, -0.5, 2.0))
        bernstein_evaluate(model, (0.5, 0.5, -1.0))
        bernstein_evaluate(model, (0.0, 1.0, 0.5))
        # a NaN after a coordinate that would clamp is refused, with no warning
        assert _error(bernstein_evaluate, model, (1.5, float("nan"), 0.5)) == "coordinates must be finite"
        assert _error(bernstein_predict, model, (-1.0, 0.5, float("inf"))) == "coordinates must be finite"
    assert [str(w.message) for w in caught] == ["coordinates outside [0,1] were clamped"] * 2
    # every coordinate is read by float() before any is checked to be finite
    plane = BernsteinClassifier((1, 1), (-1, 1, 1, 1))
    assert _error(bernstein_evaluate, plane, (float("nan"), 10**400)) == f"coordinate {str(10**400)[:20]}... is beyond float range"


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_a_bool_coordinate_is_refused_by_the_one_point_path_as_by_the_batch(flag):
    line, plane = BernsteinClassifier((3,), (-1, -1, 1, 1)), BernsteinClassifier((2, 1), (-1, -1, -1, 1, 1, 1))
    for model, point in ((line, (flag,)), (plane, (0.5, flag)), (plane, (flag, 0.25))):
        message = f"coordinate must be a number, got {flag!r}"
        assert _error(bernstein_evaluate, model, point) == message
        assert _error(bernstein_predict, model, point) == message
        assert _error(evaluate_batch, model, [point]) == f"row 0: a bool is not a number, got {flag!r}"
        # the equal int is a number
        number = tuple(int(v) if v is flag else v for v in point)
        assert bernstein_evaluate(model, number) == evaluate_batch(model, [number])[0]


def test_a_model_makes_its_evaluation_plan_once_and_keeps_it_out_of_its_value(monkeypatch):
    rng, draws = random.Random(487), np.random.default_rng(487)
    fitted = fit_bernstein(random_cube_sample(rng, 80, 2), (5, 3))
    scaled = BernsteinClassifier((2, 4, 1), _up_set(draws, (2, 4, 1)), ((0.0, -1.0, 2.0), (2.0, 1.0, 2.0)))
    real = bernstein._basis_rows
    for model in (fitted, scaled):
        assert "_plan" not in model.__dict__
        point = (0.3,) * model.dim
        value = bernstein_evaluate(model, point)
        plan = model._plan
        grid, steps = plan
        assert np.shares_memory(grid, model.theta_grid) and grid.shape == (model.orders[0] + 1, len(model.theta) // (model.orders[0] + 1))
        assert [k for k, _ in steps] == list(model.orders) and all(rows is real(k) for k, rows in steps)
        calls = []
        monkeypatch.setattr(bernstein, "_basis_rows", lambda *args: calls.append(args) or real(*args))
        assert [bernstein_evaluate(model, point), bernstein_predict(model, point)] == [value, 1 if value >= 0 else -1]
        monkeypatch.undo()
        assert calls == [] and model._plan is plan
        twin = BernsteinClassifier(model.orders, model.theta, model.scale)
        assert "_plan" not in twin.__dict__ and model == twin and repr(model) == repr(twin) and "_plan" not in repr(model)
        assert model.to_dict() == twin.to_dict() and "_plan" not in model.to_dict()


def test_theta_grid_is_theta_as_floats_however_the_model_is_made(tmp_path):
    rng, draws = random.Random(461), np.random.default_rng(461)
    for orders in ((7,), (3, 4), (2, 1, 3)):
        shape = tuple(k + 1 for k in orders)
        fitted = fit_bernstein(random_cube_sample(rng, 60, len(orders)), orders)
        floats = tuple(map(float, _up_set(draws, orders)))
        kinds = (Fraction, np.float64, np.int64, float, int)
        mixed = tuple(kinds[i % len(kinds)](t) for i, t in enumerate(_up_set(draws, orders)))
        for model in (
            fitted,
            BernsteinClassifier(orders, fitted.theta),
            BernsteinClassifier.from_dict(fitted.to_dict()),
            BernsteinClassifier(orders, floats),
            BernsteinClassifier.from_dict(BernsteinClassifier(orders, floats).to_dict()),
            BernsteinClassifier(orders, mixed),
        ):
            assert model.theta_grid.dtype == np.float64
            assert np.array_equal(model.theta_grid, np.asarray(model.theta, dtype=float).reshape(shape))
        assert all(type(t) is int for t in fitted.theta)
    # the saved file holds the up-set as one threshold per last-axis row: the count of its -1 entries
    sample = WeightedSample.unweighted(
        [-1, -1, 1, 1, -1, 1], [(0.1, 0.2), (0.3, 0.9), (0.8, 0.7), (0.6, 0.1), (0.2, 0.5), (0.9, 0.95)]
    )
    model = fit_bernstein(sample, (2, 1))
    assert model.theta == (-1, -1, 1, 1, 1, 1)
    expected = {"type": "bernstein", "orders": [2, 1], "thresholds": [2, 0, 0], "scale": None}
    for saved in (model, BernsteinClassifier.from_dict(model.to_dict())):
        save_model(str(tmp_path / "model.json"), saved)
        assert (tmp_path / "model.json").read_bytes() == (json.dumps(expected) + "\n").encode()


def test_a_model_file_holds_one_threshold_per_last_axis_row_and_reads_back_the_same_model():
    rng = np.random.default_rng(467)
    for orders in ((1,), (6,), (3, 4), (2, 1, 3)):
        shape = tuple(k + 1 for k in orders)
        size = math.prod(shape)
        for theta in (_up_set(rng, orders), _up_set(rng, orders), (-1,) * size, (1,) * size):
            model = BernsteinClassifier(orders, theta)
            payload = json.loads(json.dumps(model.to_dict()))
            assert list(payload) == ["type", "orders", "thresholds", "scale"]
            # row r, in row-major order of the other axes, is -1 up to its threshold and +1 from it
            rows = np.array(theta).reshape(-1, shape[-1]).tolist()
            assert payload["thresholds"] == [row.count(-1) for row in rows]
            assert all(row == [-1] * t + [1] * (shape[-1] - t) for row, t in zip(rows, payload["thresholds"]))
            back = BernsteinClassifier.from_dict(payload)
            assert back == model and back.theta_grid.tobytes() == model.theta_grid.tobytes()
    assert BernsteinClassifier((4,), (-1, -1, 1, 1, 1)).to_dict()["thresholds"] == [2]


def _predict_file(tmp_path, payload, points) -> tuple:
    """(exit code, labels file bytes or None) of ``predict`` on ``payload`` written as a model file."""
    model, out = tmp_path / "model.json", tmp_path / "labels.csv"
    model.write_text(json.dumps(payload))
    out.unlink(missing_ok=True)
    code = cli_main(["predict", "--model", str(model), "--in", str(points), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def test_a_file_holding_theta_as_written_before_thresholds_predicts_the_same_labels(tmp_path, capsys):
    data, points, saved = tmp_path / "d.csv", tmp_path / "pts.csv", tmp_path / "b.json"
    data.write_text("w,y,x1,x2\n1/4,1,0.25,1.5\n5/4,-1,0.75,0.5\n1,1,1,1.25\n3/4,-1,0,0.75\n2,1,0.5,0.25\n1/2,-1,1.25,0\n")
    points.write_text("x1,x2\n0.1,0.3\n0.6,0.7\n1.2,1.4\n0.3,1.1\n1,0.2\n0.75,0.5\n")
    assert cli_main(["fit-bernstein", "--in", str(data), "--weighted", "--rescale", "--orders", "2,2", "--out", str(saved)]) == 0
    payload = json.loads(saved.read_text())
    theta = list(BernsteinClassifier.from_dict(payload).theta)
    assert len(set(theta)) == 2
    want = _predict_file(tmp_path, payload, points)
    assert want[0] == 0
    for binarized in (True, False):
        old = {"type": "bernstein", "orders": payload["orders"], "theta": theta, "binarized": binarized, "scale": payload["scale"]}
        assert _predict_file(tmp_path, old, points) == want
    capsys.readouterr()


@pytest.mark.parametrize(
    "orders, key, values, message",
    [
        ((1,), "theta", [-1, 0.5], "theta entries must lie in {-1, +1}, got 0.5"),
        ((2,), "theta", [-0.5, 0.25, 1], "theta entries must lie in {-1, +1}, got -0.5"),
        ((1,), "thresholds", [3], "thresholds must lie in [0, 2], got 3"),
        ((2, 1), "thresholds", [2, -1, 0], "thresholds must lie in [0, 2], got -1"),
        ((2, 1), "thresholds", [2, 1], "thresholds has 2 entries, lattice needs 3"),
        ((1, 1), "thresholds", [True, 0], "thresholds must be integers, got [True, 0]"),
        # thresholds that rise make a theta that falls along the first axis
        ((1, 1), "thresholds", [0, 2], "theta must be nondecreasing along the lattice: theta[0] = 1 > theta[2] = -1"),
    ],
)
def test_a_fractional_theta_or_a_bad_threshold_in_a_model_file_exits_2(tmp_path, capsys, orders, key, values, message):
    points = tmp_path / "pts.csv"
    points.write_text(",".join(f"x{v + 1}" for v in range(len(orders))) + "\n" + ",".join(["0.5"] * len(orders)) + "\n")
    payload = {"type": "bernstein", "orders": list(orders), key: values, "scale": None}
    assert _predict_file(tmp_path, payload, points) == (2, None)
    assert capsys.readouterr().err == f"error: {tmp_path / 'model.json'}: malformed bernstein model (ValidationError: {message})\n"


def test_a_fitted_399_by_399_model_file_is_under_4_kb(tmp_path):
    rng = np.random.default_rng(479)
    pts = rng.random((400, 2))
    labels = np.where(rng.random(400) < pts.mean(axis=1), 1, -1)
    model = fit_bernstein(WeightedSample.unweighted(labels.tolist(), pts), (399, 399))
    assert len(set(model.theta)) == 2
    path = tmp_path / "model.json"
    save_model(str(path), model)
    assert path.stat().st_size < 4096
    assert BernsteinClassifier.from_dict(json.loads(path.read_text())) == model


def test_every_model_is_held_to_the_lattice_caps_before_its_lattice_is_made():
    # an 83-byte file whose last order is a million: its 2 thresholds would make a 2 000 002-entry lattice
    payload = {"type": "bernstein", "orders": [1, 1000000], "thresholds": [0, 0], "scale": None}
    capped = f"orders are capped at {MAX_ORDER_PER_DIM} per dimension"
    for make in (lambda: BernsteinClassifier((1, 10**6), ()), lambda: BernsteinClassifier.from_dict(payload),
                 lambda: BernsteinClassifier.from_dict({**payload, "theta": [1] * 4})):
        with pytest.raises(ValidationError, match=f"^{capped}$"):
            make()
    # orders under the cap whose lattice is too large
    for orders in ((100, 100, 100), (9, 9, 9, 9, 9, 10)):
        size = math.prod(k + 1 for k in orders)
        message = f"^coefficient lattice of size {size} exceeds {MAX_LATTICE_SIZE}$"
        with pytest.raises(ValidationError, match=message):
            BernsteinClassifier(orders, ())
        with pytest.raises(ValidationError, match=message):
            BernsteinClassifier.from_dict({**payload, "orders": list(orders)})
    # the largest orders under both caps still make a model
    assert BernsteinClassifier((MAX_ORDER_PER_DIM,), (1,) * (MAX_ORDER_PER_DIM + 1)).orders == (MAX_ORDER_PER_DIM,)
    assert BernsteinClassifier.from_dict({**payload, "orders": [1, MAX_ORDER_PER_DIM]}).orders == (1, MAX_ORDER_PER_DIM)


@pytest.mark.parametrize("n, d", [(2.5, 1), (100, True), (100, 1.0), ("100", 2), (100, None), (np.float64(100), 1)])
def test_suggest_orders_refuses_a_count_that_is_not_an_integer(n, d):
    with pytest.raises(ValidationError, match=r"^sample size and dimension must be integers, got \["):
        suggest_orders(n, d)


def test_suggest_orders_takes_numpy_integers():
    assert suggest_orders(np.int64(100), np.int32(1)) == suggest_orders(100, 1)
