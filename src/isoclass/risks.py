"""Exact risks on finite-support distributions and empirical risks on samples.

All set risks follow the decomposition of the risk evaluated at a prediction
set G: a per-point term that switches on membership plus a set-independent
term, integrated against the point masses.  Arithmetic is generic over
Fraction/float, so rational inputs give bit-exact rational risks for the 0-1
and hinge losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._numeric import ValidationError, check_finite, is_exact, sign
from .losses import Loss, c_plus_minus, phi

_MASS_TOL = Fraction(1, 10**12)


def _as_point(values) -> tuple:
    return tuple(values)


@dataclass(frozen=True)
class WeightedSample:
    """Rows (weight, label, covariates); the canonical input to every fit.

    Unweighted data is represented with unit weights.  Labels are -1/+1 and
    weights are finite and nonnegative; all covariate vectors share one
    dimension.
    """

    weights: tuple
    labels: tuple
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        object.__setattr__(self, "points", tuple(_as_point(p) for p in self.points))
        n = len(self.points)
        if len(self.weights) != n or len(self.labels) != n:
            raise ValidationError("weights, labels and points must have equal length")
        for i, w in enumerate(self.weights):
            check_finite(w, f"weight of row {i}")
            if w < 0:
                raise ValidationError(f"row {i}: weight must be nonnegative, got {w!r}")
        for i, y in enumerate(self.labels):
            if y not in (-1, 1):
                raise ValidationError(f"row {i}: label must be -1 or +1, got {y!r}")
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise ValidationError(f"covariate dimension varies across rows: {sorted(dims)}")
        for i, p in enumerate(self.points):
            for v in p:
                check_finite(v, f"covariate of row {i}")

    @classmethod
    def unweighted(cls, labels, points) -> "WeightedSample":
        return cls((1,) * len(tuple(labels)), tuple(labels), tuple(points))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def scaled(self, factor) -> "WeightedSample":
        return WeightedSample(tuple(w * factor for w in self.weights), self.labels, self.points)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite covariate support with mass, eta(x) and optional conditional weights."""

    points: tuple
    mass: tuple
    eta: tuple
    w_plus: tuple = None
    w_minus: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(_as_point(p) for p in self.points))
        object.__setattr__(self, "mass", tuple(self.mass))
        object.__setattr__(self, "eta", tuple(self.eta))
        n = len(self.points)
        if len(self.mass) != n or len(self.eta) != n:
            raise ValidationError("points, mass and eta must have equal length")
        if len(set(self.points)) != n:
            raise ValidationError("support points must be distinct")
        for m in self.mass:
            check_finite(m, "mass")
            if m < 0:
                raise ValidationError(f"mass must be nonnegative, got {m!r}")
        total = sum(self.mass)
        if abs(total - 1) > _MASS_TOL:
            raise ValidationError(f"masses must sum to 1 (got {total!r})")
        for e in self.eta:
            check_finite(e, "eta")
            if not (0 <= e <= 1):
                raise ValidationError(f"eta must lie in [0, 1], got {e!r}")
        for attr in ("w_plus", "w_minus"):
            w = getattr(self, attr)
            if w is None:
                w = (1,) * n
            else:
                w = tuple(w)
                if len(w) != n:
                    raise ValidationError(f"{attr} must have one entry per point")
                for v in w:
                    check_finite(v, attr)
                    if v < 0:
                        raise ValidationError(f"{attr} must be nonnegative, got {v!r}")
            object.__setattr__(self, attr, w)

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PredictionSet:
    """Membership flags over a distribution's (or sample's) support points."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(bool(m) for m in self.members))

    @property
    def indices(self) -> tuple:
        return tuple(i for i, m in enumerate(self.members) if m)

    def __len__(self) -> int:
        return len(self.members)


def _check_conformal(dist: DiscreteDistribution, g: PredictionSet) -> None:
    if len(g) != dist.n:
        raise ValidationError(
            f"prediction set has {len(g)} flags for {dist.n} support points"
        )


def classification_risk_at_set(dist: DiscreteDistribution, g: PredictionSet):
    """P(sign error) of labeling the set +1: sum of [eta outside + (1-eta) inside]."""
    _check_conformal(dist, g)
    total = 0
    for m, eta, inside in zip(dist.mass, dist.eta, g.members):
        total += m * ((1 - eta) if inside else eta)
    return total


def surrogate_risk_at_set(dist: DiscreteDistribution, g: PredictionSet, loss: Loss):
    """Minimal surrogate risk over classifiers in [-1,1] with prediction set g."""
    _check_conformal(dist, g)
    total = 0
    cache = {}
    for m, eta, inside in zip(dist.mass, dist.eta, g.members):
        if eta not in cache:
            cache[eta] = c_plus_minus(loss, eta)
        plus, minus = cache[eta]
        total += m * (plus if inside else minus)
    return total


def weighted_risk_at_set(dist: DiscreteDistribution, g: PredictionSet):
    """Weighted classification risk at g with per-point conditional weights."""
    _check_conformal(dist, g)
    total = 0
    for m, eta, wp, wm, inside in zip(dist.mass, dist.eta, dist.w_plus, dist.w_minus, g.members):
        gap = -wp * eta + wm * (1 - eta)
        total += m * ((gap if inside else 0) + wp * eta)
    return total


def empirical_risk(values, sample: WeightedSample, loss: Loss):
    """(1/n) sum of w_i * phi(y_i f_i); 0-1 loss uses sign(f_i) with sign(0) = +1."""
    values = tuple(values)
    if len(values) != sample.n:
        raise ValidationError(
            f"got {len(values)} classifier values for {sample.n} sample rows"
        )
    if sample.n == 0:
        raise ValidationError("sample is empty")
    total = 0
    if loss.kind == "zero_one":
        for w, y, f in zip(sample.weights, sample.labels, values):
            if y * sign(f) <= 0:
                total += w
    else:
        if loss.kind == "hinge":
            for i, f in enumerate(values):
                if not (-1 <= f <= 1):
                    raise ValidationError(
                        f"row {i}: hinge risk requires values in [-1, 1], got {f!r}"
                    )
        for w, y, f in zip(sample.weights, sample.labels, values):
            total += w * phi(loss, y * f)
    n = sample.n
    if is_exact(total):
        return Fraction(total, n) if isinstance(total, int) else total / n
    return total / n
