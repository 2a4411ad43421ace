"""Reproduction of the paper's worked examples, calibration tables, regret curves.

``reproduce_example_1`` and ``reproduce_example_2`` rebuild the two
three-point numerical examples in exact rational arithmetic and verify the
published optima.  ``calibration_table`` tabulates classification and
surrogate set risks over all monotone up-sets and reports pairwise
risk-ordering agreement between losses.  ``simulate_regret`` runs seeded
Monte Carlo fits against known data-generating processes and evaluates their
population regrets.  These are closed forms, exact up to float rounding, for
the one-dimensional step and smooth designs and for monotone models on the
two-dimensional step2d design, whose risk is an area of the model's -1
staircase.  Only Bernstein models on step2d are integrated, over a fixed
Halton grid labelled in one batch through ``bernstein.predict_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._numeric import ValidationError, all_exact, halton, is_exact
from .bernstein import BernsteinClassifier, evaluate as bernstein_value
from .bernstein import fit as fit_bernstein, predict_batch as bernstein_labels, suggest_orders
from .losses import exponential, hinge, truncated_quadratic, zero_one
from .monotone import MonotoneClassifier, fit as fit_monotone
from .order import DEFAULT_NODE_LIMIT, build_dag, enumerate_up_sets
from .risks import DiscreteDistribution, PredictionSet, WeightedSample, set_risk, surrogate_terms

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


def _uniform_on_0_1_2(*eta_tenths) -> DiscreteDistribution:
    eta = tuple(Fraction(e, 10) for e in eta_tenths)
    return DiscreteDistribution(((0,), (1,), (2,)), (Fraction(1, 3),) * 3, eta)


def example_distribution_1() -> DiscreteDistribution:
    """Uniform support {0, 1, 2} with eta = (0.9, 0.3, 0.2)."""
    return _uniform_on_0_1_2(9, 3, 2)


def example_distribution_2() -> DiscreteDistribution:
    """Uniform support {0, 1, 2} with eta = (0.6, 0.2, 0.8)."""
    return _uniform_on_0_1_2(6, 2, 8)


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
    classification = surrogate_terms(dist, zero_one())
    rows = []
    for loss in losses:
        terms = surrogate_terms(dist, loss)
        risks = [set_risk(terms, g) for g in sets]
        best = _argmin(risks)
        rows.append(
            LossReproduction(
                loss.name,
                _set_points(dist, sets[best]),
                risks[best],
                set_risk(classification, sets[best]),
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
    classification = surrogate_terms(dist, zero_one())
    risks = [set_risk(classification, g) for g in sets]
    best = _argmin(risks)

    c0, c1 = _linear_hinge_vertex(dist)
    members = tuple(c0 + c1 * p[0] >= 0 for p in dist.points)
    linear_set = PredictionSet(members)
    linear_risk = set_risk(classification, linear_set)

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


def _exact_orders_agree(risks_a, risks_b) -> bool:
    """True iff all risks are exact and every pair of sets compares alike under both.

    That holds exactly when b is a strictly increasing function of a: sorted
    by (a, b), equal a must have equal b and b must rise wherever a does.
    Float risks give False: ``_cmp``'s tolerance is not transitive, so only
    the pairwise scan decides them.
    """
    if not (all_exact(risks_a) and all_exact(risks_b)):
        return False
    pairs = sorted(zip(risks_a, risks_b))
    return all(
        b1 > b0 if a1 > a0 else b1 == b0 for (a0, b0), (a1, b1) in zip(pairs, pairs[1:])
    )


def calibration_table(dist: DiscreteDistribution, losses, node_limit: int = DEFAULT_NODE_LIMIT) -> CalibrationReport:
    """Set risks over all up-sets plus pairwise loss-ordering agreement.

    Each loss's per-point terms are computed once, for all up-sets; the
    classification column comes from the 0-1 terms.
    """
    dag = build_dag(dist.points)
    sets = tuple(enumerate_up_sets(dag, node_limit))
    losses = tuple(losses)
    names = [loss.name for loss in losses]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate losses requested")
    columns = {loss.name: loss for loss in (zero_one(), *losses)}
    for name, loss in columns.items():
        terms = surrogate_terms(dist, loss)
        columns[name] = tuple(set_risk(terms, g) for g in sets)
    classification = columns["zero-one"]
    surrogate = {name: columns[name] for name in names}
    agreements = {}
    for name_a, name_b in combinations(names, 2):
        risks_a, risks_b = surrogate[name_a], surrogate[name_b]
        verdict = PairAgreement(True)
        # the pairwise scan finds the first disagreeing pair; it runs only when
        # one sort cannot vouch for agreement
        if not _exact_orders_agree(risks_a, risks_b):
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


def _draw(dgp, rng, n: int):
    """n rows: X uniform on [0,1]^dim (float tuples), then Y = +1 with probability eta(X) (ints).

    Every design's ``sample``.
    """
    xs = rng.random((n, dgp.dim))
    ys = np.where(rng.random(n) < dgp.eta(xs), 1, -1)
    return list(zip(*xs.T.tolist())), ys.tolist()


def _threshold_risk(dgp, model) -> float:
    """A 1-d design's ``population_risk``: its closed-form risk at the model's threshold."""
    return dgp.risk_of_threshold(_threshold_1d(model))


class StepDgp:
    """d = 1 design: X ~ U[0,1], eta(x) = 0.25 + 0.5 * 1{x >= 0.5}.

    The optimal monotone prediction set is [0.5, 1] with risk exactly 0.25,
    and the risk of any interval set (a, 1] has the closed form below, so
    population regrets are evaluated without Monte Carlo noise.
    """

    name = "step"
    dim = 1
    optimal_risk = 0.25

    def eta(self, x: np.ndarray) -> np.ndarray:
        return np.where(x[:, 0] >= 0.5, 0.75, 0.25)

    sample = _draw

    def risk_of_threshold(self, a: float) -> float:
        a = min(1.0, max(0.0, a))
        return 0.5 - 0.5 * a if a <= 0.5 else 0.5 * a

    population_risk = _threshold_risk


class SmoothDgp:
    """d = 1 design: X ~ U[0,1], eta(x) = x; risk of (a, 1] is a^2 - a + 1/2."""

    name = "smooth"
    dim = 1
    optimal_risk = 0.25

    def eta(self, x: np.ndarray) -> np.ndarray:
        return x[:, 0]

    sample = _draw

    def risk_of_threshold(self, a: float) -> float:
        a = min(1.0, max(0.0, a))
        return a * a - a + 0.5

    population_risk = _threshold_risk


class Step2dDgp:
    """d = 2 design: X ~ U[0,1]^2, eta = 0.25 + 0.5 * 1{x1 + x2 >= 1}.

    A monotone model's population risk is exact (``_staircase_risk``).  A
    Bernstein model's uses a fixed 10^5-point Halton grid, so it is
    deterministic but carries quadrature error of order 1e-4; the grid is built
    on first use and labelled in one batch per model.
    """

    name = "step2d"
    dim = 2
    optimal_risk = 0.25
    grid_size = 100_000

    def eta(self, x: np.ndarray) -> np.ndarray:
        return np.where(x.sum(axis=1) >= 1.0, 0.75, 0.25)

    sample = _draw

    @cached_property
    def _quadrature(self):
        pts = halton(self.grid_size, 2)
        return pts, self.eta(pts)

    def population_risk(self, model) -> float:
        if isinstance(model, MonotoneClassifier):
            if model.support and model.dim != self.dim:
                raise ValidationError(f"model has dimension {model.dim}, design expects {self.dim}")
            return _staircase_risk(model.frontier)
        if not isinstance(model, BernsteinClassifier):
            raise ValidationError(f"unsupported model type for step2d risk: {type(model)!r}")
        pts, etas = self._quadrature
        pred = bernstein_labels(model, pts)
        risk = np.where(pred > 0, 1.0 - etas, etas)
        return float(risk.mean())


def _staircase_risk(frontier) -> float:
    """Exact step2d risk of the monotone model whose -1 frontier is ``frontier``.

    The -1 region D is the union of the boxes [0, f], f in the frontier, within
    the unit square.  eta is 3/4 on U = {x1 + x2 >= 1} and 1/4 below it, so the
    risk is 1/2 + (|D & U| - |D| / 2).  Sorted by x1 the maximal points have
    decreasing heights (clipping can tie x1; the highest of a tie comes first),
    so D is a staircase of strips (a, b] x [0, h]: each adds (b - a) h to |D|
    and the integral of max(0, x1 - c) over (a, b], c = 1 - h, to |D & U|.
    """
    if not frontier:
        return 0.5
    pts = np.clip(np.asarray(frontier, dtype=float), 0.0, 1.0)
    b, h = pts[np.lexsort((-pts[:, 1], pts[:, 0]))].T
    a = np.concatenate(([0.0], b[:-1]))
    c = 1.0 - h
    area = ((b - a) * h).sum()
    upper = 0.5 * (np.maximum(b - c, 0.0) ** 2 - np.maximum(a - c, 0.0) ** 2).sum()
    return float(0.5 + 0.5 * (2.0 * upper - area))


DGPS = {cls.name: cls for cls in (StepDgp, SmoothDgp, Step2dDgp)}


def _threshold_1d(model) -> float:
    """Left endpoint a of the prediction set (a, 1] of a 1-d monotone model."""
    if isinstance(model, MonotoneClassifier):
        # every -1 point lies below a frontier point, so the frontier holds the greatest first coordinate
        front = model.frontier
        return float(max(p[0] for p in front)) if front else 0.0
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
