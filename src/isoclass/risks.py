"""Exact risks on finite-support distributions and empirical risks on samples.

All set risks follow the decomposition of the risk evaluated at a prediction
set G: a per-point term that switches on membership plus a set-independent
term, integrated against the point masses.  Arithmetic is generic over
Fraction/float, so rational inputs give bit-exact rational risks for the 0-1
and hinge losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._numeric import ValidationError, check_finite, check_points, finite_array, is_exact, sign, validated_points
from .losses import Loss, c_plus_minus, phi, zero_one

_MASS_TOL = Fraction(1, 10**12)


def _is_vector(values, kinds: str) -> bool:
    """True for a 1-d numpy array whose dtype is one of ``kinds`` (numpy's one-letter kind codes)."""
    return isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in kinds


@dataclass(frozen=True)
class WeightedSample:
    """Rows (weight, label, covariates); the canonical input to every fit.

    Unweighted data is represented with unit weights.  Labels are -1/+1 and
    weights are finite and nonnegative; all covariate vectors share one
    dimension.  Labels, and weights that are ints (numpy integers too), are
    stored as Python ints.  Numpy arrays are checked in numpy: an (n, d)
    float array of points, a 1-d int or float array of labels and a 1-d int
    array of weights give the sample the same values, as Python floats and
    ints, and the same errors, as those values given one by one.  Any other
    array is read as a sequence.
    """

    weights: tuple
    labels: tuple
    points: tuple
    # read-only float arrays kept from the checks, for fits that work in floats: the (n, d)
    # coordinates (None for an empty sample) and the weights, each None when float() fails
    # on a value or one lies beyond float range
    _float_points: np.ndarray = field(init=False, repr=False, compare=False)
    _float_weights: np.ndarray = field(init=False, repr=False, compare=False)
    # True when every coordinate is a Python float, so ranking ``_float_points`` is exact
    _all_float: bool = field(init=False, repr=False, compare=False)
    # w_i * y_i as a read-only int64 array when every weight is an int and n * max(w) < 2**62,
    # which bounds every sum of them, else None
    _signed_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points, floats, all_float = validated_points(self.points, "row")
        n = len(points)
        weights, weight_array = self.weights, None
        if _is_vector(weights, "iu"):
            weights, weight_array = tuple(weights.tolist()), weights
        else:
            weights = tuple(weights)
        labels, label_array = self.labels, None
        if _is_vector(labels, "if") and ((labels == 1) | (labels == -1)).all():
            label_array = labels.astype(np.int64)
            labels = tuple(label_array.tolist())
        else:
            labels = tuple(labels.tolist() if _is_vector(labels, "if") else labels)
        if len(weights) != n or len(labels) != n:
            raise ValidationError("weights, labels and points must have equal length")
        # one pass per column; the loops run only to name the first bad row (a negative
        # weight that float() rounds to -0.0 keeps its sign bit)
        float_weights = finite_array(weights, n) if weight_array is None else weight_array.astype(np.float64)
        if float_weights is None or np.signbit(float_weights).any():
            for i, w in enumerate(weights):
                check_finite(w, f"weight of row {i}")
                if w < 0:
                    raise ValidationError(f"row {i}: weight must be nonnegative, got {w!r}")
        if label_array is None:
            # labels are checked before int() maps them, so 1.7 is refused, not truncated to 1
            if not set(labels) <= {-1, 1}:
                for i, y in enumerate(labels):
                    if y not in (-1, 1):
                        raise ValidationError(f"row {i}: label must be -1 or +1, got {y!r}")
            if not set(map(type, labels)) <= {int}:
                labels = tuple(map(int, labels))
        # int weights as an int64 array, when n * max(w) < 2**62 bounds every sum of w * y
        if weight_array is None:
            types = set(map(type, weights))
            # numpy integers as Python ints, which do not overflow
            if any(issubclass(t, np.integer) for t in types):
                weights = tuple(int(w) if isinstance(w, np.integer) else w for w in weights)
                types = set(map(type, weights))
            if types == {int} and n * max(weights) < 2**62:
                weight_array = np.fromiter(weights, np.int64, n)
        elif not n or n * int(weight_array.max()) >= 2**62:
            weight_array = None
        signed = None
        if weight_array is not None:
            if label_array is None:
                label_array = np.fromiter(labels, np.int64, n)
            signed = weight_array.astype(np.int64) * label_array
            signed.flags.writeable = False
        if float_weights is not None:
            float_weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_float_points", floats)
        object.__setattr__(self, "_float_weights", float_weights)
        object.__setattr__(self, "_all_float", all_float)
        object.__setattr__(self, "_signed_weights", signed)

    @classmethod
    def unweighted(cls, labels, points) -> "WeightedSample":
        if not isinstance(labels, np.ndarray):
            labels = tuple(labels)
        return cls(np.ones(len(labels), dtype=np.int64), labels, points)

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
        object.__setattr__(self, "points", check_points(self.points, "support point"))
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


def set_risk(terms, g: PredictionSet):
    """Risk of a prediction set: the sum over support points of their mass-weighted (inside, outside) terms.

    ``terms`` holds one pair per support point: its mass times its risk term
    when it lies in ``g``, and when it does not.  Callers that score many sets
    compute the terms once and pass them to every call.  The sum runs in
    point order from the int 0, so exact terms give an exact risk.
    """
    if len(g) != len(terms):
        raise ValidationError(f"prediction set has {len(g)} flags for {len(terms)} support points")
    total = 0
    for (inside, outside), member in zip(terms, g.members):
        total += inside if member else outside
    return total


def surrogate_terms(dist: DiscreteDistribution, loss: Loss) -> tuple:
    """``set_risk`` terms of ``loss``: mass times the minimal conditional risks ``c_plus_minus``.

    For the 0-1 loss they are m (1 - eta) and m eta, the classification terms.
    """
    pairs = (c_plus_minus(loss, eta) for eta in dist.eta)
    return tuple((m * plus, m * minus) for m, (plus, minus) in zip(dist.mass, pairs))


def classification_risk_at_set(dist: DiscreteDistribution, g: PredictionSet):
    """P(sign error) of labeling the set +1: sum of [eta outside + (1-eta) inside]."""
    return set_risk(surrogate_terms(dist, zero_one()), g)


def surrogate_risk_at_set(dist: DiscreteDistribution, g: PredictionSet, loss: Loss):
    """Minimal surrogate risk over classifiers in [-1,1] with prediction set g."""
    return set_risk(surrogate_terms(dist, loss), g)


def weighted_risk_at_set(dist: DiscreteDistribution, g: PredictionSet):
    """Weighted classification risk at g with per-point conditional weights."""
    terms = []
    for m, eta, wp, wm in zip(dist.mass, dist.eta, dist.w_plus, dist.w_minus):
        gap = -wp * eta + wm * (1 - eta)
        terms.append((m * (gap + wp * eta), m * (wp * eta)))
    return set_risk(terms, g)


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
    return Fraction(total, sample.n) if is_exact(total) else total / sample.n
