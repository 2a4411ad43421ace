import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import random_rational_distribution

from isoclass import (
    DiscreteDistribution,
    PredictionSet,
    ValidationError,
    calibration_table,
    classification_risk_at_set,
    exponential,
    fit_monotone,
    hinge,
    logistic,
    monotone_predict_batch,
    quadratic,
    reproduce_example_1,
    reproduce_example_2,
    simulate_regret,
    truncated_quadratic,
    zero_one,
)
import isoclass.bench as bench
import isoclass.risks as risks
from isoclass._numeric import halton
from isoclass.bench import DGPS, PairAgreement, StepDgp, Step2dDgp, example_distribution_1, _threshold_1d
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


def _enumerated_linear_hinge_vertex(dist):
    """The hinge-optimal line by enumeration: every pairwise intersection of the 2n + 1 constraints, kept if feasible."""
    xs = [p[0] for p in dist.points]
    # constraints as (a, b, rhs) meaning a*c0 + b*c1 >= rhs
    cons = [(Fraction(0), Fraction(1), Fraction(0))]
    for x in xs:
        cons.append((Fraction(1), Fraction(x), Fraction(-1)))   # c0 + x c1 >= -1
        cons.append((Fraction(-1), Fraction(-x), Fraction(-1)))  # c0 + x c1 <= 1
    vertices = set()
    for (a1, b1, r1), (a2, b2, r2) in combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        c0 = (r1 * b2 - r2 * b1) / det
        c1 = (a1 * r2 - a2 * r1) / det
        if all(a * c0 + b * c1 >= r for a, b, r in cons):
            vertices.add((c0, c1))

    def gain(v):
        c0, c1 = v
        return sum((2 * e - 1) * (c0 + c1 * x) for e, x in zip(dist.eta, xs))

    return max(sorted(vertices), key=gain)


def test_linear_hinge_vertex_is_the_enumerated_vertex():
    rng = random.Random(27)
    pool = sorted({Fraction(k, d) for k in range(-8, 9) for d in (1, 2, 3)})
    cases = [bench.example_distribution_2()]
    for i in range(1200):
        n = rng.randint(2, 6)
        # eta = 1/2 everywhere makes every vertex optimal: the least one is taken
        eta = [Fraction(5, 10)] * n if i % 40 == 0 else [Fraction(rng.randint(0, 10), 10) for _ in range(n)]
        cases.append(DiscreteDistribution([(x,) for x in rng.sample(pool, n)], [Fraction(1, n)] * n, eta))
    for dist in cases:
        got = bench._linear_hinge_vertex(dist)
        assert got == _enumerated_linear_hinge_vertex(dist), dist
        assert all(type(v) is Fraction for v in got)


def test_example_2_linear_risk_is_the_classification_risk_of_its_set():
    dist = bench.example_distribution_2()
    result = reproduce_example_2()
    linear_set = PredictionSet(tuple(p[0] in result.linear_set for p in dist.points))
    assert result.linear_risk == classification_risk_at_set(dist, linear_set) == Fraction(8, 15)


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


def _scan_agreement(sets, risks_a, risks_b):
    """The first pair of sets whose risks compare differently; floats tie within 1e-12."""
    def cmp(x, y):
        if isinstance(x, float) or isinstance(y, float):
            return 0 if abs(float(x) - float(y)) <= 1e-12 else (1 if x > y else -1)
        return (x > y) - (x < y)

    for i, j in combinations(range(len(sets)), 2):
        if cmp(risks_a[i], risks_a[j]) != cmp(risks_b[i], risks_b[j]):
            return False, (sets[i], sets[j])
    return True, None


def test_calibration_agreement_equals_the_pairwise_scan():
    rng = random.Random(71)
    losses = [zero_one(), hinge(1), hinge(Fraction(5, 2)), quadratic(), truncated_quadratic(), exponential(), logistic()]
    verdicts = set()
    for trial in range(80):
        dist = random_rational_distribution(rng, max_points=6, d=rng.randint(1, 3), grid=3)
        if trial % 2:
            # equal masses and eta in quarters: many sets tie under one loss and not the other
            dist = DiscreteDistribution(dist.points, (Fraction(1, dist.n),) * dist.n,
                                        tuple(Fraction(rng.randint(0, 4), 4) for _ in dist.points))
        report = calibration_table(dist, rng.sample(losses, 3))
        for (a, b), verdict in report.agreements.items():
            want = _scan_agreement(report.sets, report.surrogate[a], report.surrogate[b])
            assert (verdict.agree, verdict.witness) == want, (a, b)
            exact = not any(isinstance(r, float) for r in report.surrogate[a] + report.surrogate[b])
            verdicts.add((exact, verdict.agree))
    # both verdicts occur among exact pairs, and float risks are compared too
    assert {(True, True), (True, False), (False, True)} <= verdicts


def test_calibration_compares_float_risks_with_the_tolerant_scan(monkeypatch):
    # loss a's float risks rise by 1e-13 per set, within the tie tolerance, while loss b's
    # rise by 1: sorted exactly the two orders agree, but the scan sees ties against rises
    # a set's risk is step times the number its membership flags spell in binary
    def terms(dist, loss):
        step = 1e-13 if loss.kind == "zero_one" else 1.0
        return tuple((step * 2 ** (dist.n - 1 - i), 0.0) for i in range(dist.n))

    monkeypatch.setattr(bench, "surrogate_terms", terms)
    report = calibration_table(example_distribution_1(), [zero_one(), hinge(1)])
    want = _scan_agreement(report.sets, report.surrogate["zero-one"], report.surrogate["hinge:1"])
    assert want[0] is False
    assert report.agreements[("zero-one", "hinge:1")] == PairAgreement(*want)


def test_calibration_computes_each_loss_terms_once(monkeypatch):
    # one c_plus_minus call per point per loss, not per point per up-set; the
    # classification column reuses the requested zero-one terms
    k = 6
    dist = DiscreteDistribution(
        tuple((i, k - 1 - i) for i in range(k)), (Fraction(1, k),) * k, tuple(Fraction(i, k) for i in range(k))
    )
    calls = []
    real = risks.c_plus_minus
    monkeypatch.setattr(risks, "c_plus_minus", lambda loss, eta: calls.append(loss.name) or real(loss, eta))
    for losses in ([zero_one(), hinge(1), hinge(2)], [hinge(1), exponential()]):
        calls.clear()
        report = calibration_table(dist, losses)
        assert len(report.sets) == 2**k
        assert sorted(calls) == sorted(name for name in {"zero-one", *report.surrogate} for _ in range(k))


def test_calibration_of_a_12_point_antichain_takes_seconds(monkeypatch):
    # 4096 up-sets: the pairwise scan would make about 8.4 million comparisons per pair of losses
    k = 12
    dist = DiscreteDistribution(
        tuple((i, k - 1 - i) for i in range(k)),
        (Fraction(1, k),) * k,
        tuple(Fraction(i + 1, k + 2) for i in range(k)),
    )
    calls = []
    real_cmp = bench._cmp
    monkeypatch.setattr(bench, "_cmp", lambda a, b: calls.append(1) or real_cmp(a, b))
    start = time.perf_counter()
    report = calibration_table(dist, [zero_one(), hinge(1), hinge(2)])
    assert time.perf_counter() - start < 30
    assert len(report.sets) == 2**k
    assert all(v == PairAgreement(True) for v in report.agreements.values())
    assert not calls


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


@pytest.mark.parametrize("ns, reps, seed", [
    ([50.9], 2, 0),  # int() ran n = 50
    ([True, 40], 2, 0),  # int() ran n = 1
    ([50], True, 0),  # reported as reps=True
    ([50], 2, True),  # reported as seed=True
    ([50], 2.5, 0),  # a raw TypeError from range()
    ([50], 2, 1.5),  # a raw TypeError from default_rng()
    ([50], 2, -1),  # a raw ValueError from default_rng()
], ids=["float-size", "bool-size", "bool-reps", "bool-seed", "float-reps", "float-seed", "negative-seed"])
def test_simulate_regret_refuses_sizes_reps_and_seeds_that_are_not_integers(ns, reps, seed):
    with pytest.raises(ValidationError, match="must be integers|seed must be >= 0"):
        simulate_regret("step", ns, reps, seed)


def test_simulate_regret_reads_numpy_integers_as_ints():
    curve = simulate_regret("step", np.array([30]), np.int64(2), np.uint32(5))
    assert curve == simulate_regret("step", (30,), 2, 5)
    assert all(type(v) is int for v in (*curve.sample_sizes, curve.reps, curve.seed))


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
    # monotone step2d risks are exact, so every regret is nonnegative
    assert curve.negative_count == 0
    assert curve.mean_regret[0] > 0


def test_simulate_regret_2d_bernstein_curve_pinned():
    # Bernstein step2d risks still come from the Halton quadrature; these are its values
    curve = simulate_regret("step2d", (40, 120), reps=2, seed=12, estimator="bernstein", orders=(3, 3))
    assert curve.mean_regret == (0.104685, 0.06802)
    assert curve.std_error == (0.04613999999999999, 0.009474999999999982)
    assert curve.negative_count == 0


# monotone curves on the closed-form risks, bit for bit, up to the sizes the benchmark fits; 1-d
# Bernstein curves are not pinned, as their thresholds follow the last bits of numpy's vectorized
# logs, which may differ between machines
PINNED_CURVES = {
    ("step", 3): "RegretCurve(dgp='step', estimator='monotone', sample_sizes=(100, 4000, 64000), mean_regret=(0.016541765532203462, 1.1590422141383172e-05, 6.466778218944258e-06), std_error=(0.007161116623379343, 4.085056979463708e-06, 4.189447617902742e-06), reps=2, seed=3, negative_count=0)",
    ("smooth", 3): "RegretCurve(dgp='smooth', estimator='monotone', sample_sizes=(100, 4000, 64000), mean_regret=(0.022147619864389012, 0.0015300575225760393, 1.2466426370122408e-05), std_error=(0.018973879726430106, 7.363797374673742e-05, 1.139544560954664e-05), reps=2, seed=3, negative_count=0)",
    ("step2d", 3): "RegretCurve(dgp='step2d', estimator='monotone', sample_sizes=(100, 400), mean_regret=(0.05783967533372203, 0.0314969773522778), std_error=(0.0021979187474151507, 0.006386848150449708), reps=2, seed=3, negative_count=0)",
    ("step", 11): "RegretCurve(dgp='step', estimator='monotone', sample_sizes=(100, 4000, 64000), mean_regret=(0.011043828077278217, 0.00047281276558527874, 4.045835215071847e-06), std_error=(0.00028446162713813283, 0.00014237026328364763, 3.1517059297381245e-06), reps=2, seed=11, negative_count=0)",
    ("smooth", 11): "RegretCurve(dgp='smooth', estimator='monotone', sample_sizes=(100, 4000, 64000), mean_regret=(0.01482128992674095, 0.0003497813765140634, 1.5293282395967278e-05), std_error=(0.0064795208302320375, 0.00025147135224276584, 9.538623946869771e-06), reps=2, seed=11, negative_count=0)",
    ("step2d", 11): "RegretCurve(dgp='step2d', estimator='monotone', sample_sizes=(100, 400), mean_regret=(0.07531011923188383, 0.02848147419204372), std_error=(0.010358630844712197, 0.0004140976372714044), reps=2, seed=11, negative_count=0)",
}


def test_monotone_regret_curves_are_pinned():
    for (dgp, seed), want in PINNED_CURVES.items():
        ns = (100, 400) if dgp == "step2d" else (100, 4000, 64000)
        assert repr(simulate_regret(dgp, ns, 2, seed)) == want


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
    # |D| = 0.2*0.7 + 0.3*0.45 + 0.3*0.15 = 0.32 and D misses x1 + x2 >= 1: risk 1/2 - 0.32/2
    assert Step2dDgp().population_risk(model) == pytest.approx(17 / 50, abs=1e-15)


def test_step2d_population_risk_rejects_other_models():
    dgp = Step2dDgp()
    with pytest.raises(ValidationError):
        dgp.population_risk(MonotoneClassifier(((0.5,),), (-1,)))
    with pytest.raises(ValidationError):
        dgp.population_risk(lambda x: 1.0)


def _clip_unit(v):
    return min(Fraction(1), max(Fraction(0), v))


def _shoelace(poly):
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))) / 2


def _clip_to_upper_half_plane(poly):
    """Sutherland-Hodgman clip of a polygon to {x1 + x2 >= 1}, in exact arithmetic."""
    def inside(p):
        return p[0] + p[1] >= 1

    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        if inside(p):
            out.append(p)
        if inside(p) != inside(q):
            t = (1 - p[0] - p[1]) / (q[0] + q[1] - p[0] - p[1])
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _staircase_risk_oracle(negatives):
    """Exact step2d risk of labelling -1 the union of the boxes [0, p], p in ``negatives``.

    The region is drawn as a polygon from its own maximal corners, and areas come
    from the shoelace formula over Fractions.
    """
    corners = {(_clip_unit(Fraction(x)), _clip_unit(Fraction(y))) for x, y in negatives}
    corners = sorted(p for p in corners if p[0] > 0 and p[1] > 0
                     and not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in corners))
    if not corners:
        return Fraction(1, 2)
    # counterclockwise from the origin: along the x1 axis, then down the steps right to left
    lefts = [Fraction(0)] + [x for x, _ in corners[:-1]]
    poly = [(Fraction(0), Fraction(0)), (corners[-1][0], Fraction(0))]
    for (x, y), left in zip(corners[::-1], lefts[::-1]):
        poly += [(x, y), (left, y)]
    area = _shoelace(poly)
    upper = _shoelace(_clip_to_upper_half_plane(poly))
    return Fraction(1, 2) + (2 * upper - area) / 2


def test_step2d_monotone_risk_equals_exact_polygon_areas():
    rng = random.Random(2024)
    dgp = Step2dDgp()
    assert dgp.population_risk(MonotoneClassifier(((0.3, 0.4),), (1,))) == 0.5
    for trial in range(400):
        k = rng.randint(0, 8)
        if trial % 2:
            pts = [(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)) for _ in range(k)]
        else:  # coarse coordinates make ties, boundary hits and repeated corners likely
            pts = [(rng.randint(-2, 10) / 8, rng.randint(-2, 10) / 8) for _ in range(k)]
        pts = list(dict.fromkeys(pts)) + [(0.5, 0.5)]
        values = [rng.choice((-1, 1)) for _ in pts[:-1]] + [1]
        model = MonotoneClassifier(tuple(pts), tuple(values))
        want = _staircase_risk_oracle([p for p, v in zip(pts, values) if v < 0])
        assert abs(dgp.population_risk(model) - want) <= 1e-15, (pts, values)


def test_step2d_monotone_risk_agrees_with_the_halton_quadrature():
    dgp = Step2dDgp()
    grid = halton(Step2dDgp.grid_size, 2)
    etas = dgp.eta(grid)
    for n in (400, 1600, 6400):
        for rep in range(5):
            pts, ys = dgp.sample(np.random.default_rng([31, n, rep]), n)
            model = fit_monotone(WeightedSample.unweighted(ys, pts))
            quadrature = np.where(monotone_predict_batch(model, grid) > 0, 1.0 - etas, etas).mean()
            assert abs(dgp.population_risk(model) - quadrature) <= 3e-4, (n, rep)


def test_step2d_monotone_curve_builds_no_quadrature_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("halton grid built for a monotone model")

    monkeypatch.setattr("isoclass.bench.halton", no_grid)
    curve = simulate_regret("step2d", (50, 200), reps=2, seed=8)
    assert curve.negative_count == 0


def _reference_draws(name, rng, n):
    """Each design's draw with its eta written out: X first, then one uniform per label."""
    if name == "step2d":
        xs = rng.random((n, 2))
        etas = np.where(xs.sum(axis=1) >= 1.0, 0.75, 0.25)
        return xs, np.where(rng.random(n) < etas, 1, -1)
    xs = rng.random(n)
    etas = np.where(xs >= 0.5, 0.75, 0.25) if name == "step" else xs
    return xs[:, None], np.where(rng.random(n) < etas, 1, -1)


def test_dgp_draws_are_bit_identical_to_the_written_out_formulas():
    for name, cls in DGPS.items():
        for n in (0, 1, 257):
            points, labels = cls().sample(np.random.default_rng([11, n]), n)
            want_points, want_labels = _reference_draws(name, np.random.default_rng([11, n]), n)
            assert points.dtype == np.float64 and points.shape == (n, cls.dim)
            assert labels.dtype == np.int64 and labels.shape == (n,)
            assert points.tobytes() == want_points.tobytes()
            assert labels.tobytes() == want_labels.astype(np.int64).tobytes()


def test_calibration_table_refuses_a_node_limit_that_is_not_an_integer():
    dist = example_distribution_1()
    for limit in (2.5, "15", None):
        with pytest.raises(ValidationError, match=r"^node limit must be integers, got \["):
            calibration_table(dist, (hinge(1),), node_limit=limit)
    assert calibration_table(dist, (hinge(1),), node_limit=np.int64(3)).sets == calibration_table(dist, (hinge(1),)).sets


def test_each_design_refuses_a_model_of_another_dimension():
    rng = np.random.default_rng(3)
    x2, x3 = rng.random((30, 2)), rng.random((30, 3))
    y = np.where(x2.sum(axis=1) > 1, 1, -1)
    models = {
        2: (fit_monotone(WeightedSample.unweighted(y, x2)), fit_bernstein(WeightedSample.unweighted(y, x2), (2, 2))),
        3: (fit_monotone(WeightedSample.unweighted(y, x3)), fit_bernstein(WeightedSample.unweighted(y, x3), (1, 1, 1))),
    }
    for dgp in DGPS.values():
        for dim, fitted in models.items():
            for model in fitted if dim != dgp.dim else ():
                with pytest.raises(ValidationError, match=f"^model has dimension {dim}, design expects {dgp.dim}$"):
                    dgp().population_risk(model)
        # a monotone model with an empty support has dimension 0 and labels every point +1
        assert dgp().population_risk(MonotoneClassifier((), ())) == 0.5
