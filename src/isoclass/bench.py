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

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, compress

import numpy as np

from ._numeric import ValidationError, all_exact, common_numerators, halton, integers, is_exact
from .bernstein import BernsteinClassifier, evaluate as bernstein_value
from .bernstein import fit as fit_bernstein, predict_batch as bernstein_labels, suggest_orders
from .losses import exponential, hinge, truncated_quadratic, zero_one
from .monotone import MonotoneClassifier, fit as fit_monotone
from .order import DEFAULT_NODE_LIMIT, build_dag, up_set_matrix
from .risks import DiscreteDistribution, WeightedSample, set_risks, surrogate_terms

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


def _set_points(dist: DiscreteDistribution, indices) -> tuple:
    return tuple(dist.points[i][0] for i in indices)


def reproduce_example_1() -> ExampleOneResult:
    """Surrogate minimizers over monotone sets for the first worked example.

    Hinge recovers the constrained optimum (empty set, risk 14/30); the
    exponential and truncated quadratic losses select the full support with
    classification risk 16/30.
    """
    dist = example_distribution_1()
    report = calibration_table(dist, (zero_one(), hinge(1), exponential(), truncated_quadratic()))
    rows = []
    for name, risks in report.surrogate.items():
        best = _argmin(risks)
        rows.append(LossReproduction(name, _set_points(dist, report.sets[best]), risks[best], report.classification[best]))
    result = ExampleOneResult(tuple(_set_points(dist, s) for s in report.sets), tuple(rows))
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

    A line c0 + c1 x with c1 >= 0 is least at the least support point and
    greatest at the greatest, so it lies in [-1, 1] on the support exactly when
    c0 + c1 x_min >= -1 and c0 + c1 x_max <= 1.  With c1 >= 0 these bound the
    triangle (-1, 0), (1, 0), (-1 - s x_min, s), s = 2 / (x_max - x_min), of
    feasible (c0, c1).  The hinge objective is linear on it, so the optimum is
    a vertex; ties go to the least vertex.  The support needs two points.
    """
    xs = [p[0] for p in dist.points]
    lo, hi = Fraction(min(xs)), Fraction(max(xs))
    slope = 2 / (hi - lo)
    vertices = [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0)), (-1 - slope * lo, slope)]
    # maximize sum (2 eta - 1) f(x); equivalent to minimizing the hinge risk
    def gain(v):
        c0, c1 = v
        return sum((2 * e - 1) * (c0 + c1 * x) for e, x in zip(dist.eta, xs))

    return max(sorted(vertices), key=gain)


def reproduce_example_2() -> ExampleTwoResult:
    """Exhaustive vs hinge-over-linear optima for the second worked example.

    A nondecreasing line is >= 0 on an up-set, so the linear optimum's risk is
    a row of the calibration table.
    """
    dist = example_distribution_2()
    report = calibration_table(dist, ())
    best = _argmin(report.classification)

    c0, c1 = _linear_hinge_vertex(dist)
    linear_set = tuple(i for i, p in enumerate(dist.points) if c0 + c1 * p[0] >= 0)

    result = ExampleTwoResult(
        _set_points(dist, report.sets[best]),
        report.classification[best],
        (c0, c1),
        _set_points(dist, linear_set),
        report.classification[report.sets.index(linear_set)],
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
    Each column is sorted as integer numerators over one denominator, which
    order as its risks do.  Float risks give False: ``_cmp``'s tolerance is
    not transitive, so only the pairwise scan decides them.
    """
    if not (all_exact(risks_a) and all_exact(risks_b)):
        return False
    keys = [common_numerators([r.numerator for r in risks], [r.denominator for r in risks], math.inf)[0] for risks in (risks_a, risks_b)]
    pairs = sorted(zip(*keys))
    return all(
        b1 > b0 if a1 > a0 else b1 == b0 for (a0, b0), (a1, b1) in zip(pairs, pairs[1:])
    )


def calibration_table(dist: DiscreteDistribution, losses, node_limit: int = DEFAULT_NODE_LIMIT) -> CalibrationReport:
    """Set risks over all up-sets plus pairwise loss-ordering agreement.

    Each loss's per-point terms are computed once and summed over every row
    of the up-set matrix; the classification column comes from the 0-1 terms.
    """
    members = up_set_matrix(build_dag(dist.points), node_limit)
    sets = tuple(tuple(compress(range(dist.n), row)) for row in members.tolist())
    losses = tuple(losses)
    names = [loss.name for loss in losses]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate losses requested")
    columns = {loss.name: loss for loss in (zero_one(), *losses)}
    for name, loss in columns.items():
        columns[name] = tuple(set_risks(surrogate_terms(dist, loss), members))
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
                    verdict = PairAgreement(False, (sets[i], sets[j]))
                    break
        agreements[(name_a, name_b)] = verdict
    return CalibrationReport(sets, classification, surrogate, agreements)


# ---------------------------------------------------------------------------
# regret simulations


def _draw(dgp, rng, n: int):
    """n rows: X uniform on [0,1]^dim, then Y = +1 with probability eta(X).

    Every design's ``sample``.  X is the (n, dim) float64 array and Y the
    int64 array of labels; ``WeightedSample`` checks both in numpy.
    """
    xs = rng.random((n, dgp.dim))
    return xs, np.where(rng.random(n) < dgp.eta(xs), 1, -1)


def _check_dimension(dgp, model) -> None:
    """Refuse a fitted model of another dimension than ``dgp``'s; a monotone one with an empty support has dimension 0 and fits any."""
    if isinstance(model, (MonotoneClassifier, BernsteinClassifier)) and model.dim not in (0, dgp.dim):
        raise ValidationError(f"model has dimension {model.dim}, design expects {dgp.dim}")


def _threshold_risk(dgp, model) -> float:
    """A 1-d design's ``population_risk``: its closed-form risk at the model's threshold."""
    _check_dimension(dgp, model)
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
        _check_dimension(self, model)
        if isinstance(model, MonotoneClassifier):
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
            # lo and hi are adjacent floats: every further step would leave them as they are
            if mid == lo or mid == hi:
                break
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
        """The fields in their order, each tuple as a list."""
        return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}


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
    ns = integers(ns, "sample sizes")
    reps, seed = integers((reps, seed), "reps and seed")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if any(n < 1 for n in ns):
        raise ValidationError("sample sizes must be positive")
    if estimator == "monotone" and orders is not None:
        raise ValidationError("orders apply only to the bernstein estimator")

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
