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
from itertools import repeat

import numpy as np

from ._numeric import ScaledInts, ValidationError, check_finite, check_points, finite_array, is_exact, matrix_rows, sign, validated_points
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
    dimension.  Labels, and int weights (numpy integers too), are Python ints.
    An (n, d) float array of points, a 1-d int or float array of labels and a
    1-d int array of weights are checked in numpy, with the values and errors
    of the same values given one by one; other arrays are read as sequences.
    Points and (as one column) weights may also come as ``ScaledInts``, exact
    Fractions kept as numerators over one denominator per column, which need
    no further check.
    Kept read-only: ``_matrix``, the float64 points if all are floats (else
    None); ``_exact``, the ``ScaledInts`` points (else None); ``_labels`` in
    int64; ``_weights`` in int64 if all are ints, or are Fractions given as
    int64 ``ScaledInts`` numerators over ``_weight_scale`` (None for ints), and
    n * max(w) < 2**62, which bounds every sum of w * y, else float(w) (None
    beyond float range).  Fields kept so are built as tuples on first read.
    """

    weights: tuple
    labels: tuple
    points: tuple
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _exact: ScaledInts = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _weight_scale: int = field(init=False, repr=False, compare=False)
    _labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact = self.points if isinstance(self.points, ScaledInts) else None
        points, matrix = (None, None) if exact is not None else validated_points(self.points, "row")
        n = len(points if points is not None else matrix if matrix is not None else exact)
        weights, labels, weight_array, scale = self.weights, self.labels, None, None
        if isinstance(weights, ScaledInts):
            numerators = weights.numerators[:, 0]
            if numerators.dtype == np.int64 and len(numerators) and (numerators >= 0).all() and n * int(numerators.max()) < 2**62:
                weights, weight_array, scale = None, numerators, weights.denominators[0]
            else:
                weights = tuple(w for (w,) in weights)
        if _is_vector(weights, "iu") and len(weights) and (weights >= 0).all() and n * int(weights.max()) < 2**62:
            weights, weight_array = None, weights.astype(np.int64)
        elif weights is not None:
            weights = tuple(weights.tolist() if _is_vector(weights, "iu") else weights)
        if _is_vector(labels, "if") and ((labels == 1) | (labels == -1)).all():
            labels = labels.astype(np.int64)
        else:
            labels = tuple(labels.tolist() if _is_vector(labels, "if") else labels)
        if len(weight_array if weights is None else weights) != n or len(labels) != n:
            raise ValidationError("weights, labels and points must have equal length")
        if weights is not None:
            # one pass; the loop runs only to name the first bad row (a negative weight that
            # float() rounds to -0.0 keeps its sign bit)
            weight_array = finite_array(weights, n)
            if weight_array is None or np.signbit(weight_array).any():
                for i, w in enumerate(weights):
                    check_finite(w, f"weight of row {i}")
                    if w < 0:
                        raise ValidationError(f"row {i}: weight must be nonnegative, got {w!r}")
            # numpy integers as Python ints, which do not overflow
            weights = tuple(int(w) if isinstance(w, np.integer) else w for w in weights)
            if set(map(type, weights)) == {int} and n * max(weights) < 2**62:
                weights, weight_array = None, np.fromiter(weights, np.int64, n)
        if type(labels) is tuple:
            # labels are checked before int() maps them, so 1.7 is refused, not truncated to 1
            if not set(labels) <= {-1, 1}:
                for i, y in enumerate(labels):
                    if y not in (-1, 1):
                        raise ValidationError(f"row {i}: label must be -1 or +1, got {y!r}")
            labels = np.fromiter(map(int, labels), np.int64, n)
        labels.flags.writeable = False
        if weight_array is not None:
            weight_array.flags.writeable = False
        self.__dict__.update(
            points=points, weights=weights, labels=None,
            _matrix=matrix, _exact=exact, _weights=weight_array, _weight_scale=scale, _labels=labels,
        )
        # a field kept only as an array (None here) is built as a tuple on its first read, by ``__getattr__``
        for name in ("points", "weights", "labels"):
            if self.__dict__[name] is None:
                del self.__dict__[name]

    def __getattr__(self, name):
        if name not in ("points", "weights", "labels"):
            raise AttributeError(name)
        if name == "points":
            value = matrix_rows(self._matrix) if self._exact is None else self._exact._rows()
        elif name == "weights" and self._weight_scale is not None:
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
        if self._matrix is not None:
            return self._matrix.shape[1]
        if self._exact is not None:
            return self._exact.numerators.shape[1]
        return len(self.points[0]) if self.points else 0

    def _rows(self, index: np.ndarray) -> tuple:
        """The points of rows ``index``: the objects given, or new tuples from ``_matrix`` or ``_exact`` while ``points`` is unbuilt."""
        points = self.__dict__.get("points")
        if points is not None:
            return tuple(map(points.__getitem__, index.tolist()))
        return matrix_rows(self._matrix[index]) if self._exact is None else self._exact._rows(index)

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
