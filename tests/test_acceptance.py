"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Every test ends by printing a single PASS line (visible with ``pytest -s`` or
in captured output), so the suite doubles as a checklist report.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import random_distinct_points, random_rational_distribution, random_small_sample

from isoclass import (
    BernsteinClassifier,
    DiscreteDistribution,
    IsotoneProblem,
    PredictionSet,
    TrialRecord,
    WeightedSample,
    brute_force_solve,
    build_dag,
    calibration_table,
    classification_risk_at_set,
    delta_c,
    delta_c_weighted,
    empirical_risk,
    enumerate_up_sets,
    exponential,
    fit_bernstein,
    fit_monotone,
    hinge,
    lattice_dag,
    logistic,
    monotone_predict,
    quadratic,
    reproduce_example_1,
    reproduce_example_2,
    simulate_regret,
    solve,
    surrogate_risk_at_set,
    to_weighted_sample,
    truncated_quadratic,
    welfare_constant,
    welfare_estimate,
    zero_one,
)
from isoclass.bench import example_distribution_1
from isoclass.bernstein import empirical_hinge_risk

SIX_LOSSES = (
    zero_one(),
    hinge(1),
    exponential(),
    logistic(),
    quadratic(),
    truncated_quadratic(),
)


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def test_criterion_01_example_41_reproduction():
    start = time.perf_counter()
    result = reproduce_example_1()
    hinge_row = result.by_loss("hinge:1")
    assert hinge_row.argmin_set == ()
    assert hinge_row.classification_risk == Fraction(14, 30)
    for name in ("exp", "tquad"):
        row = result.by_loss(name)
        assert tuple(sorted(row.argmin_set)) == (0, 1, 2)
        assert row.classification_risk == Fraction(16, 30)
    # float-mode rerun of the risk evaluations
    dist = example_distribution_1()
    float_dist = DiscreteDistribution(
        dist.points, tuple(map(float, dist.mass)), tuple(map(float, dist.eta))
    )
    empty = PredictionSet((False,) * 3)
    full = PredictionSet((True,) * 3)
    assert classification_risk_at_set(float_dist, empty) == pytest.approx(14 / 30, abs=1e-12)
    assert classification_risk_at_set(float_dist, full) == pytest.approx(16 / 30, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exact 14/30 and 16/30 in {elapsed:.3f}s")


def test_criterion_02_example_51_reproduction():
    start = time.perf_counter()
    result = reproduce_example_2()
    assert result.exhaustive_set == (2,)
    assert result.exhaustive_risk == Fraction(1, 3)
    assert tuple(sorted(result.linear_set)) == (1, 2)
    assert result.linear_risk == Fraction(8, 15)
    assert abs(float(result.exhaustive_risk) - 1 / 3) < 1e-12
    assert abs(float(result.linear_risk) - 8 / 15) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"exact 1/3 and 8/15 in {elapsed:.3f}s")


def test_criterion_03_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20_240_808)
    for trial in range(500):
        d = rng.randint(1, 3)
        pts = random_distinct_points(rng, rng.randint(1, 12), d, grid=4)
        dag = build_dag(pts)
        coeffs = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in pts
        )
        problem = IsotoneProblem(dag, coeffs)
        fast_values, fast_objective = solve(problem)
        oracle_values, oracle_objective = brute_force_solve(problem)
        assert fast_objective == oracle_objective, f"objective mismatch on trial {trial}"
        assert fast_values == oracle_values, f"maximal-up-set mismatch on trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"500 instances identical in {elapsed:.1f}s")


def test_criterion_04_empirical_calibration():
    rng = random.Random(44)
    for _ in range(200):
        sample = random_small_sample(rng, max_n=12, d=rng.randint(1, 2))
        model = fit_monotone(sample)
        fitted = [monotone_predict(model, p) for p in sample.points]
        achieved = empirical_risk(fitted, sample, zero_one())
        support = sorted(set(sample.points))
        dag = build_dag(support)
        index = {p: i for i, p in enumerate(dag.nodes)}
        best = min(
            empirical_risk(
                [1 if g.members[index[p]] else -1 for p in sample.points],
                sample,
                zero_one(),
            )
            for g in enumerate_up_sets(dag)
        )
        assert achieved == best
    _report(4, "200 fits match the brute-force optimum exactly")


def test_criterion_05_zhang_inequality():
    rng = random.Random(55)
    for _ in range(500):
        dist = random_rational_distribution(rng, max_points=6, d=rng.randint(1, 2))
        dag = build_dag(dist.points)
        sets = list(enumerate_up_sets(dag))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        loss = hinge(c)
        best_class = min(classification_risk_at_set(dist, g) for g in sets)
        best_hinge = min(surrogate_risk_at_set(dist, g, loss) for g in sets)
        g = rng.choice(sets)
        values = [
            Fraction(rng.randint(0, 40), 40)
            if inside
            else Fraction(-rng.randint(1, 40), 40)
            for inside in g.members
        ]
        excess_class = classification_risk_at_set(dist, g) - best_class
        hinge_risk_f = sum(
            m * (c * (1 - 2 * e) * f + c)
            for m, e, f in zip(dist.mass, dist.eta, values)
        )
        slack = (hinge_risk_f - best_hinge) - c * excess_class
        assert slack >= -Fraction(1, 10**12)
    _report(5, "500 triples satisfy the excess-risk inequality (exact slack >= 0)")


def test_criterion_06_universal_equivalence_and_witness():
    rng = random.Random(66)
    for _ in range(200):
        dist = random_rational_distribution(rng, max_points=5, d=rng.randint(1, 2))
        c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        report = calibration_table(dist, [zero_one(), hinge(c)])
        verdict = report.agreements[("zero-one", f"hinge:{c}")]
        assert verdict.agree, f"hinge/zero-one disagreement: {verdict}"
    witness_report = calibration_table(example_distribution_1(), [zero_one(), exponential()])
    witness = witness_report.agreements[("zero-one", "exp")]
    assert not witness.agree
    assert witness.witness == ((), (0, 1, 2))
    _report(6, "0 hinge disagreements in 200 draws; exponential witness recorded")


def test_criterion_07_weighted_forms():
    rng = random.Random(77)
    for _ in range(1000):
        c = 0.25 + 4 * rng.random()
        wp, wm, eta = 6 * rng.random(), 6 * rng.random(), rng.random()
        mu_p, mu_m = wp * eta, wm * (1 - eta)
        assert delta_c_weighted(hinge(c), wp, wm, eta) == pytest.approx(
            c * (-mu_p + mu_m), abs=1e-12
        )
    for loss in SIX_LOSSES:
        for _ in range(200):
            eta = rng.random()
            assert delta_c_weighted(loss, 1, 1, eta) == pytest.approx(
                float(delta_c(loss, eta)), abs=1e-12
            )
    _report(7, "hinge form exact on 1000 tuples; unit-weight reduction matches all six losses")


def test_criterion_08_policy_identity():
    rng = random.Random(88)
    records = []
    for _ in range(60):
        z = rng.uniform(-5, 5)
        treat = rng.choice((-1, 1))
        x = (rng.random(), rng.random())
        e = rng.uniform(0.2, 0.8)
        records.append(TrialRecord(z, treat, x, e))
    sample = to_weighted_sample(records, kappa=0.05)
    constant = welfare_constant(records)
    for _ in range(100):
        t1, t2 = rng.random(), rng.random()
        flip = rng.choice((-1, 1))
        policy = lambda x, a=t1, b=t2, s=flip: s if (x[0] >= a) == (x[1] >= b) else -s
        labels = [policy(r.x) for r in records]
        risk = empirical_risk(labels, sample, zero_one())
        assert welfare_estimate(policy, records) + risk == pytest.approx(constant, abs=1e-10)
    _report(8, "welfare + weighted risk constant within 1e-10 for 100 policies")


def test_criterion_09_bernstein_invariants():
    rng = random.Random(99)
    for trial in range(100):
        d = rng.randint(1, 2)
        orders = tuple(rng.randint(1, 3) for _ in range(d))
        n = rng.randint(2, 25)
        points = [tuple(rng.random() for _ in range(d)) for _ in range(n)]
        labels = [rng.choice((-1, 1)) for _ in range(n)]
        sample = WeightedSample.unweighted(labels, points)
        model = fit_bernstein(sample, orders)
        dag = lattice_dag(orders)
        for i, j in dag.cover_edges:
            assert model.theta[i] <= model.theta[j]
        from isoclass import basis

        x = tuple(rng.random() for _ in range(d))
        unity = 1.0
        for v, k in enumerate(orders):
            unity *= sum(basis(k, j, x[v]) for j in range(k + 1))
        assert unity == pytest.approx(1.0, abs=1e-12)
        # the fit is the +/-1 vertex, and its file form (one threshold per last-axis row) gives it back
        assert set(model.theta) <= {-1, 1}
        back = BernsteinClassifier.from_dict(model.to_dict())
        assert back == model and empirical_hinge_risk(back, sample) == empirical_hinge_risk(model, sample)
    _report(9, "100 fits: lattice-monotone, unity within 1e-12, +/-1 and read back from thresholds")


def test_criterion_10_regret_rate_trend():
    start = time.perf_counter()
    curve = simulate_regret("step", (100, 400, 1600), reps=200, seed=20_240_808)
    assert curve.negative_count == 0
    m100, m400, m1600 = curve.mean_regret
    s100, s400, s1600 = curve.std_error
    assert m1600 <= 0.6 * m100, curve
    assert m400 <= m100 + math.hypot(s100, s400)
    assert m1600 <= m400 + math.hypot(s400, s1600)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        10,
        f"means {m100:.4f} -> {m400:.4f} -> {m1600:.4f}, ratio {m1600 / m100:.3f} <= 0.6, "
        f"{elapsed:.1f}s",
    )
