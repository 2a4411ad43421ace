"""Reproduction of the paper's worked examples, calibration tables, regret curves.

``reproduce_example_1`` and ``reproduce_example_2`` rebuild the two
three-point numerical examples in exact rational arithmetic and verify the
published optima.  ``calibration_table`` tabulates classification and
surrogate set risks over all monotone up-sets and reports pairwise
risk-ordering agreement between losses.  ``simulate_regret`` runs seeded
Monte Carlo fits against known data-generating processes and evaluates exact
population regrets (closed-form for one-dimensional step/smooth designs,
quasi-random integration otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._numeric import ValidationError, halton, is_exact
from .bernstein import BernsteinClassifier, evaluate as bernstein_value
from .bernstein import fit as fit_bernstein, suggest_orders
from .losses import exponential, hinge, truncated_quadratic, zero_one
from .monotone import MonotoneClassifier, fit as fit_monotone
from .order import build_dag, enumerate_up_sets
from .risks import (
    DiscreteDistribution,
    PredictionSet,
    WeightedSample,
    classification_risk_at_set,
    surrogate_risk_at_set,
)

_TIE_TOL = 1e-12


def _cmp(a, b) -> int:
    """-1/0/+1 comparison, exact for rationals, 1e-12-tolerant for floats."""
    if is_exact(a) and is_exact(b):
        return (a > b) - (a < b)
    fa, fb = float(a), float(b)
    if abs(fa - fb) <= _TIE_TOL:
        return 0
    return 1 if fa > fb else -1


def _argmin(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if _cmp(values[i], values[best]) < 0:
            best = i
    return best


# ---------------------------------------------------------------------------
# worked examples


def example_distribution_1() -> DiscreteDistribution:
    """Uniform support {0, 1, 2} with eta = (0.9, 0.3, 0.2)."""
    third = Fraction(1, 3)
    return DiscreteDistribution(
        ((0,), (1,), (2,)),
        (third, third, third),
        (Fraction(9, 10), Fraction(3, 10), Fraction(2, 10)),
    )


def example_distribution_2() -> DiscreteDistribution:
    """Uniform support {0, 1, 2} with eta = (0.6, 0.2, 0.8)."""
    third = Fraction(1, 3)
    return DiscreteDistribution(
        ((0,), (1,), (2,)),
        (third, third, third),
        (Fraction(6, 10), Fraction(2, 10), Fraction(8, 10)),
    )


@dataclass(frozen=True)
class LossReproduction:
    loss: str
    argmin_set: tuple  # x-values of the optimal prediction set
    surrogate_risk: object
    classification_risk: object


@dataclass(frozen=True)
class ExampleOneResult:
    sets: tuple  # candidate prediction sets, as tuples of x-values
    per_loss: tuple  # LossReproduction per requested loss

    def by_loss(self, name: str) -> LossReproduction:
        for row in self.per_loss:
            if row.loss == name:
                return row
        raise KeyError(name)


def _set_points(dist: DiscreteDistribution, g: PredictionSet) -> tuple:
    return tuple(dist.points[i][0] for i in g.indices)


def reproduce_example_1() -> ExampleOneResult:
    """Surrogate minimizers over monotone sets for the first worked example.

    Hinge recovers the constrained optimum (empty set, risk 14/30); the
    exponential and truncated quadratic losses select the full support with
    classification risk 16/30.
    """
    dist = example_distribution_1()
    dag = build_dag(dist.points)
    sets = tuple(enumerate_up_sets(dag))
    losses = (zero_one(), hinge(1), exponential(), truncated_quadratic())
    rows = []
    for loss in losses:
        risks = [surrogate_risk_at_set(dist, g, loss) for g in sets]
        best = _argmin(risks)
        rows.append(
            LossReproduction(
                loss.name,
                _set_points(dist, sets[best]),
                risks[best],
                classification_risk_at_set(dist, sets[best]),
            )
        )
    result = ExampleOneResult(tuple(_set_points(dist, g) for g in sets), tuple(rows))
    expected = {
        "zero-one": ((), Fraction(14, 30)),
        "hinge:1": ((), Fraction(14, 30)),
        "exp": ((0, 1, 2), Fraction(16, 30)),
        "tquad": ((0, 1, 2), Fraction(16, 30)),
    }
    for row in rows:
        want_set, want_risk = expected[row.loss]
        if tuple(sorted(row.argmin_set)) != want_set or _cmp(row.classification_risk, want_risk) != 0:
            raise AssertionError(f"example 1 reproduction failed for {row.loss}: {row}")
    return result


@dataclass(frozen=True)
class ExampleTwoResult:
    exhaustive_set: tuple
    exhaustive_risk: Fraction
    linear_vertex: tuple  # (intercept, slope) of the hinge-optimal line
    linear_set: tuple
    linear_risk: Fraction


def _linear_hinge_vertex(dist: DiscreteDistribution):
    """Hinge-optimal (intercept, slope) over nondecreasing lines bounded by 1.

    The feasible region in (c0, c1) is the polygon {c1 >= 0, -1 <= c0 + c1 x <= 1
    for x in support}; the hinge objective is linear on it, so the optimum is a
    vertex, found by exact enumeration of pairwise constraint intersections.
    """
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
    # maximize sum (2 eta - 1) f(x); equivalent to minimizing the hinge risk
    def gain(v):
        c0, c1 = v
        return sum((2 * e - 1) * (c0 + c1 * x) for e, x in zip(dist.eta, xs))

    return max(sorted(vertices), key=gain)


def reproduce_example_2() -> ExampleTwoResult:
    """Exhaustive vs hinge-over-linear optima for the second worked example."""
    dist = example_distribution_2()
    dag = build_dag(dist.points)
    sets = tuple(enumerate_up_sets(dag))
    risks = [classification_risk_at_set(dist, g) for g in sets]
    best = _argmin(risks)

    c0, c1 = _linear_hinge_vertex(dist)
    members = tuple(c0 + c1 * p[0] >= 0 for p in dist.points)
    linear_set = PredictionSet(members)
    linear_risk = classification_risk_at_set(dist, linear_set)

    result = ExampleTwoResult(
        _set_points(dist, sets[best]),
        risks[best],
        (c0, c1),
        _set_points(dist, linear_set),
        linear_risk,
    )
    if tuple(sorted(result.exhaustive_set)) != (2,) or result.exhaustive_risk != Fraction(1, 3):
        raise AssertionError(f"example 2 exhaustive search failed: {result}")
    if tuple(sorted(result.linear_set)) != (1, 2) or result.linear_risk != Fraction(8, 15):
        raise AssertionError(f"example 2 linear-class optimum failed: {result}")
    return result


# ---------------------------------------------------------------------------
# calibration tables


@dataclass(frozen=True)
class PairAgreement:
    agree: bool
    witness: tuple = None  # (set_a_indices, set_b_indices) of the first violation


@dataclass(frozen=True)
class CalibrationReport:
    sets: tuple  # index tuples over the distribution's support
    classification: tuple
    surrogate: dict  # loss name -> risks per set
    agreements: dict  # (name, name) -> PairAgreement


def calibration_table(dist: DiscreteDistribution, losses, node_limit: int = 15) -> CalibrationReport:
    """Set risks over all up-sets plus pairwise loss-ordering agreement."""
    dag = build_dag(dist.points)
    sets = tuple(enumerate_up_sets(dag, node_limit))
    losses = tuple(losses)
    names = [loss.name for loss in losses]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate losses requested")
    classification = tuple(classification_risk_at_set(dist, g) for g in sets)
    surrogate = {
        loss.name: tuple(surrogate_risk_at_set(dist, g, loss) for g in sets)
        for loss in losses
    }
    agreements = {}
    for name_a, name_b in combinations(names, 2):
        risks_a, risks_b = surrogate[name_a], surrogate[name_b]
        verdict = PairAgreement(True)
        for i, j in combinations(range(len(sets)), 2):
            if _cmp(risks_a[i], risks_a[j]) != _cmp(risks_b[i], risks_b[j]):
                verdict = PairAgreement(False, (sets[i].indices, sets[j].indices))
                break
        agreements[(name_a, name_b)] = verdict
    return CalibrationReport(
        tuple(g.indices for g in sets), classification, surrogate, agreements
    )


# ---------------------------------------------------------------------------
# regret simulations


class StepDgp:
    """d = 1 design: X ~ U[0,1], eta(x) = 0.25 + 0.5 * 1{x >= 0.5}.

    The optimal monotone prediction set is [0.5, 1] with risk exactly 0.25,
    and the risk of any interval set (a, 1] has the closed form below, so
    population regrets are evaluated without Monte Carlo noise.
    """

    name = "step"
    dim = 1
    optimal_risk = 0.25

    def eta(self, x: float) -> float:
        return 0.25 + 0.5 * (x >= 0.5)

    def sample(self, rng, n: int):
        xs = rng.random(n)
        etas = np.where(xs >= 0.5, 0.75, 0.25)
        ys = np.where(rng.random(n) < etas, 1, -1)
        return [(float(x),) for x in xs], [int(y) for y in ys]

    def risk_of_threshold(self, a: float) -> float:
        a = min(1.0, max(0.0, a))
        return 0.5 - 0.5 * a if a <= 0.5 else 0.5 * a

    def population_risk(self, model) -> float:
        return self.risk_of_threshold(_threshold_1d(model))


class SmoothDgp:
    """d = 1 design: X ~ U[0,1], eta(x) = x; risk of (a, 1] is a^2 - a + 1/2."""

    name = "smooth"
    dim = 1
    optimal_risk = 0.25

    def eta(self, x: float) -> float:
        return float(x)

    def sample(self, rng, n: int):
        xs = rng.random(n)
        ys = np.where(rng.random(n) < xs, 1, -1)
        return [(float(x),) for x in xs], [int(y) for y in ys]

    def risk_of_threshold(self, a: float) -> float:
        a = min(1.0, max(0.0, a))
        return a * a - a + 0.5

    def population_risk(self, model) -> float:
        return self.risk_of_threshold(_threshold_1d(model))


class Step2dDgp:
    """d = 2 design: X ~ U[0,1]^2, eta = 0.25 + 0.5 * 1{x1 + x2 >= 1}.

    Population risks use a fixed 10^5-point Halton grid, so evaluation is
    deterministic (but carries quadrature error of order 1e-3).
    """

    name = "step2d"
    dim = 2
    optimal_risk = 0.25
    grid_size = 100_000

    def __init__(self):
        self._grid = None

    def eta(self, x) -> float:
        return 0.25 + 0.5 * (x[0] + x[1] >= 1.0)

    def sample(self, rng, n: int):
        xs = rng.random((n, 2))
        etas = np.where(xs.sum(axis=1) >= 1.0, 0.75, 0.25)
        ys = np.where(rng.random(n) < etas, 1, -1)
        return [(float(a), float(b)) for a, b in xs], [int(y) for y in ys]

    def _quadrature(self):
        if self._grid is None:
            pts = np.asarray(halton(self.grid_size, 2))
            etas = np.where(pts.sum(axis=1) >= 1.0, 0.75, 0.25)
            self._grid = (pts, etas)
        return self._grid

    def population_risk(self, model) -> float:
        pts, etas = self._quadrature()
        pred = _predict_batch(model, pts)
        risk = np.where(pred > 0, 1.0 - etas, etas)
        return float(risk.mean())


DGPS = {cls.name: cls for cls in (StepDgp, SmoothDgp, Step2dDgp)}


def _threshold_1d(model) -> float:
    """Left endpoint a of the prediction set (a, 1] of a 1-d monotone model."""
    if isinstance(model, MonotoneClassifier):
        negs = [p[0] for p, v in zip(model.support, model.values) if v < 0]
        return float(max(negs)) if negs else 0.0
    if isinstance(model, BernsteinClassifier):
        if bernstein_value(model, (0.0,)) >= 0.0:
            return 0.0
        if bernstein_value(model, (1.0,)) < 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bernstein_value(model, (mid,)) >= 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
    raise ValidationError(f"unsupported model type for 1-d threshold: {type(model)!r}")


def _predict_batch(model, pts: np.ndarray) -> np.ndarray:
    if isinstance(model, MonotoneClassifier):
        neg = np.asarray(
            [p for p, v in zip(model.support, model.values) if v < 0], dtype=float
        )
        if neg.size == 0:
            return np.ones(len(pts), dtype=int)
        labels = np.ones(len(pts), dtype=int)
        chunk = max(1, 10_000_000 // max(1, neg.shape[0] * neg.shape[1]))
        for start in range(0, len(pts), chunk):
            block = pts[start : start + chunk]
            dominated = (block[:, None, :] <= neg[None, :, :]).all(axis=2).any(axis=1)
            labels[start : start + chunk][dominated] = -1
        return labels
    if isinstance(model, BernsteinClassifier):
        values = np.zeros(len(pts))
        for i, p in enumerate(pts):
            values[i] = bernstein_value(model, tuple(p))
        return np.where(values >= 0, 1, -1)
    return np.asarray([1 if model(tuple(p)) >= 0 else -1 for p in pts], dtype=int)


@dataclass(frozen=True)
class RegretCurve:
    """Mean exact regrets per sample size from seeded replications."""

    dgp: str
    estimator: str
    sample_sizes: tuple
    mean_regret: tuple
    std_error: tuple
    reps: int
    seed: int
    negative_count: int = 0

    def as_dict(self) -> dict:
        return {
            "dgp": self.dgp,
            "estimator": self.estimator,
            "sample_sizes": list(self.sample_sizes),
            "mean_regret": list(self.mean_regret),
            "std_error": list(self.std_error),
            "reps": self.reps,
            "seed": self.seed,
            "negative_count": self.negative_count,
        }


def _fit_for(estimator: str, sample: WeightedSample, dim: int, orders):
    if estimator == "monotone":
        return fit_monotone(sample)
    if estimator == "bernstein":
        return fit_bernstein(sample, orders or suggest_orders(sample.n, dim))
    raise ValidationError(f"unknown estimator {estimator!r}")


def simulate_regret(dgp, ns, reps: int, seed: int, estimator: str = "monotone", orders=None) -> RegretCurve:
    """Seeded regret curve; replication r of size n uses the stream (seed, n, r)."""
    if isinstance(dgp, str):
        if dgp not in DGPS:
            raise ValidationError(f"unknown dgp {dgp!r}; choose from {sorted(DGPS)}")
        dgp = DGPS[dgp]()
    ns = tuple(int(n) for n in ns)
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if any(n < 1 for n in ns):
        raise ValidationError("sample sizes must be positive")

    def one_rep(n: int, rep: int) -> float:
        rng = np.random.default_rng([seed, n, rep])
        pts, ys = dgp.sample(rng, n)
        model = _fit_for(estimator, WeightedSample.unweighted(ys, pts), dgp.dim, orders)
        return dgp.population_risk(model) - dgp.optimal_risk

    means, errors, negatives = [], [], 0
    for n in ns:
        arr = np.asarray([one_rep(n, rep) for rep in range(reps)])
        negatives += int((arr < 0).sum())
        means.append(float(arr.mean()))
        errors.append(float(arr.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)
    return RegretCurve(
        dgp.name, estimator, ns, tuple(means), tuple(errors), reps, seed, negatives
    )
