"""Exact risks on finite-support distributions and empirical risks on samples.

All set risks follow the decomposition of the risk evaluated at a prediction
set G: a per-point term that switches on membership plus a set-independent
term, integrated against the point masses.  ``set_risks`` sums those terms
over every row of an up-set matrix at once: exact terms as integer
numerators over one denominator, so rational inputs give exact rational
risks for the 0-1, hinge and both quadratic losses, and other terms in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import index

import numpy as np

from ._numeric import Points, ValidationError, all_exact, check_finite, check_range, is_exact, read_column, read_points, sign, summable
from .losses import Loss, c_plus_minus, phi, zero_one

_MASS_TOL = Fraction(1, 10**12)
# each number field of a DiscreteDistribution and its upper bound (every one is >= 0)
_RANGES = {"mass": math.inf, "eta": 1, "w_plus": math.inf, "w_minus": math.inf}


@dataclass(frozen=True)
class WeightedSample:
    """Rows (weight, label, covariates); the canonical input to every fit.

    Unweighted data is represented with unit weights.  Labels are -1/+1 and
    weights are finite and nonnegative; all covariate vectors share one
    dimension.  Each field is read once into its one form, kept read-only:
    ``_points`` (``Points``); ``_weights``, float64 or integer numerators
    over ``_weight_scale`` (None for floats); ``_labels`` in int64.  Weights
    given as a sequence are kept to be read back (numpy integers as Python
    ints); ``points`` are ``_points.rows()``, the tuples given if they were;
    other fields are built as tuples on first read.
    """

    weights: tuple
    labels: tuple
    points: tuple
    _points: Points = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _weight_scale: int = field(init=False, repr=False, compare=False)
    _labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        form = read_points(self.points, "row")
        weights = self.weights if isinstance(self.weights, (np.ndarray, Points)) else tuple(self.weights)
        given = self.labels if isinstance(self.labels, np.ndarray) else list(self.labels)
        labels = np.asarray(given)
        if len(weights) != len(form) or len(labels) != len(form):
            raise ValidationError("weights, labels and points must have equal length")
        column = read_column(weights)
        column, scale = column if type(column) is tuple else (column, None)
        if column is None or (column < 0).any():
            _name_bad_weight(weights)
        # labels are checked before astype maps them, so 1.7 is refused, not truncated to 1
        valid = (labels == 1) | (labels == -1)
        # a bool is neither -1 nor +1; a numeric array's dtype rules one out without a scan of its rows
        if (labels.dtype in (bool, object) or type(given) is list) and {bool, np.bool_} & set(map(type, given)):
            valid &= [not isinstance(v, (bool, np.bool_)) for v in given]
        if not valid.all():
            i = int(np.argmin(valid))
            raise ValidationError(f"row {i}: label must be -1 or +1, got {(given if type(given) is list else labels.tolist())[i]!r}")
        labels = labels.astype(np.int64)
        labels.flags.writeable = column.flags.writeable = False
        # weights given as a sequence are kept to be read back, as points are; numpy integers as Python ints
        if isinstance(weights, tuple) and any(issubclass(t, np.integer) for t in set(map(type, weights))):
            weights = tuple(index(w) if isinstance(w, np.integer) else w for w in weights)
        self.__dict__.update(
            points=None, weights=weights if isinstance(weights, tuple) else None, labels=None, _points=form,
            _weights=column, _weight_scale=scale, _labels=labels,
        )
        # a field kept only in its form (None here) is built as a tuple on its first read, by ``__getattr__``
        for name in ("points", "weights", "labels"):
            if self.__dict__[name] is None:
                del self.__dict__[name]

    def __getattr__(self, name):
        if name not in ("points", "weights", "labels"):
            raise AttributeError(name)
        if name == "points":
            value = self._points.rows()
        elif name == "weights" and self._weight_scale not in (None, 1):
            value = tuple(map(Fraction, self._weights.tolist(), repeat(self._weight_scale)))
        else:
            value = tuple(self.__dict__["_" + name].tolist())
        self.__dict__[name] = value
        return value

    @classmethod
    def unweighted(cls, labels, points) -> "WeightedSample":
        if not isinstance(labels, np.ndarray):
            labels = tuple(labels)
        return cls(np.ones(len(labels), dtype=np.int64), labels, points)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def dim(self) -> int:
        return self._points.dim


def _name_bad_weight(weights) -> None:
    """Raise the error of the first weight, in row order, that is not finite or is negative."""
    for i, w in enumerate(weights.tolist() if isinstance(weights, np.ndarray) else weights):
        check_finite(w, f"weight of row {i}")
        check_range(w, f"row {i}: weight")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite covariate support with mass, eta(x) and optional conditional weights."""

    points: tuple
    mass: tuple
    eta: tuple
    w_plus: tuple = None
    w_minus: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "points", read_points(self.points, "support point").rows())
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValidationError("support points must be distinct")
        for attr, high in _RANGES.items():
            values = getattr(self, attr)
            # w+ and w- default to unit weights
            values = (1,) * n if values is None and attr.startswith("w_") else tuple(values)
            if len(values) != n:
                raise ValidationError(f"{attr} must have one entry per point" if attr.startswith("w_") else "points, mass and eta must have equal length")
            for v in values:
                check_range(v, attr, high)
            object.__setattr__(self, attr, values)
        total = sum(self.mass)
        if abs(total - 1) > _MASS_TOL:
            raise ValidationError(f"masses must sum to 1 (got {total!r})")

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


def set_risks(terms, members: np.ndarray) -> list:
    """Risks of the prediction sets that are the rows of the (m, n) bool matrix ``members``.

    ``terms`` holds one pair per support point: its mass times its risk term
    when it lies in the set, and when it does not.  Callers that score many
    sets compute the terms once.  Each row is summed in point order from 0
    (so 0 + -0.0 is 0.0, as in Python): over one denominator, giving
    Fractions, when every term is exact, else in float64.
    """
    if members.shape[1] != len(terms):
        raise ValidationError(f"prediction set has {members.shape[1]} flags for {len(terms)} support points")
    flat = [term for pair in terms for term in pair]
    exact = all_exact(flat)
    if exact:
        numerators, den = read_column(flat)
        column = summable(numerators)
    else:
        column = np.array(flat, dtype=float)
    inside, outside = column.reshape(-1, 2).T
    start = np.zeros((len(members), 1), column.dtype)
    sums = np.add.accumulate(np.concatenate((start, np.where(members, inside, outside)), axis=1), axis=1)[:, -1]
    return list(map(Fraction, sums.tolist(), repeat(den))) if exact else sums.tolist()


def set_risk(terms, g: PredictionSet):
    """Risk of one prediction set: its row of ``set_risks``."""
    return set_risks(terms, np.array([g.members], dtype=bool))[0]


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
    terms = [(m * (wm * (1 - eta)), m * (wp * eta)) for m, eta, wp, wm in zip(dist.mass, dist.eta, dist.w_plus, dist.w_minus)]
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
    for i, f in enumerate(values):
        # sign(nan) is -1: a value must be checked before the 0-1 loss reads it
        check_finite(f, f"classifier value of row {i}")
        if loss.kind == "hinge" and not (-1 <= f <= 1):
            raise ValidationError(f"row {i}: hinge risk requires values in [-1, 1], got {f!r}")
    total = 0
    for w, y, f in zip(sample.weights, sample.labels, values):
        if loss.kind != "zero_one":
            total += w * phi(loss, y * f)
        elif y * sign(f) <= 0:
            total += w
    return Fraction(total, sample.n) if is_exact(total) else total / sample.n
