"""Inverse-propensity-weighted adapters from trial records to weighted classification.

A record (z, d, x, e) from a randomized trial (or an unconfounded
observational study with known propensity e(x) = P(D=+1 | X=x)) maps to a
weighted-classification row with weight |z| / (d e + (1-d)/2) and label
sign(z) * d.  Maximizing estimated welfare over policies is then equivalent
to minimizing the empirical weighted 0-1 risk on the mapped sample.
Records are kept as ``TrialColumns``, exact columns mapped and summed in
integers over one common denominator, float columns in float64 (their
welfare summed in row order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, index

import numpy as np

from ._numeric import Points, ValidationError, check_finite, common_numerators, exact_column, exact_floats, scaled
from .risks import WeightedSample

DEFAULT_KAPPA = 0.01


@dataclass(frozen=True)
class TrialRecord:
    """One trial observation: outcome z, treatment d in {-1,+1}, covariates x, propensity e."""

    z: object
    d: int
    x: tuple
    e: object

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        check_finite(self.z, "outcome z")
        check_finite(self.e, "propensity e")
        # checked before int() maps it, so 1.5 is refused rather than truncated to 1; a bool is neither -1 nor +1
        if isinstance(self.d, (bool, np.bool_)) or self.d not in (-1, 1):
            raise ValidationError(f"treatment must be -1 or +1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if not (0 < self.e < 1):
            raise ValidationError(f"propensity must lie strictly in (0, 1), got {self.e!r}")


class TrialColumns:
    """Trial records kept as columns; a sequence whose indexing builds the ``TrialRecord`` of a row.

    Outcomes z and propensities e are (values, denominator) pairs: float64
    over None, or exact numerators over their common denominator (a float z
    may stand beside an exact e).
    Treatments d are int64 -1/+1, and the covariates are tuples or
    ``Points``, as ``WeightedSample`` reads them.  Rows are checked as
    ``TrialRecord`` does.
    """

    def __init__(self, z: tuple, d: np.ndarray, x, e: tuple):
        self._z, self._d, self._x, self._e = z, d, x, e

    @classmethod
    def of_records(cls, records) -> "TrialColumns":
        """The columns of ``TrialRecord``s: e exact (floats taken exactly), z exact too unless a z or e is a float.

        A float z is then rounded, and so is each exact denominator e or
        1 - e, as Python's arithmetic on the records would round them.
        """
        records = list(records)
        z, e = [r.z for r in records], [r.e for r in records]
        floats = any(isinstance(v, (float, np.floating)) for v in z + e)
        z = (np.array(z, dtype=float), None) if floats else exact_column(z)
        return cls(z, np.array([r.d for r in records], dtype=np.int64), tuple(r.x for r in records), exact_column(e))

    def __len__(self) -> int:
        return len(self._d)

    def __getitem__(self, i) -> TrialRecord:
        i = index(i)
        x = self._x[i] if type(self._x) is tuple else self._x.rows([i])[0]
        return TrialRecord(_value(self._z[0][i], self._z[1]), int(self._d[i]), x, _value(self._e[0][i], self._e[1]))

    @cached_property
    def _ipw(self):
        """The terms z / denominator: float64 over None, or exact numerators over their common denominator.

        With z = Z / Dz and e = E / De, the denominator of a row is q / De,
        q = E if d = +1 else De - E, so z / denominator is Z * (De * L / q)
        over Dz * L, L the lcm of the distinct q: int64 if that holds every
        term, else Python ints.
        """
        (z, z_den), (e, e_den) = self._z, self._e
        if e_den is None:
            return z / np.where(self._d > 0, e, 1 - e), None
        q = np.where(self._d > 0, e, e_den - e)
        if z_den is None:
            return z / exact_floats(q, e_den), None
        distinct, which = np.unique(q, return_inverse=True)
        factors, lcm = common_numerators([e_den] * len(distinct), distinct.tolist(), math.inf)
        return scaled(z, np.array(factors, dtype=object)[which]), z_den * lcm

    def _outside(self, low, high) -> list:
        """Rows whose propensity is not strictly between ``low`` and ``high``, each distinct value compared once."""
        e, den = self._e
        distinct, which = np.unique(e, return_inverse=True)
        bad = np.array([not (low < _value(v, den) < high) for v in distinct.tolist()], dtype=bool)
        return np.flatnonzero(bad[which]).tolist()

    def _mean(self, rows: np.ndarray):
        """(1/n) sum of the ``_ipw`` terms of ``rows`` (a boolean mask), added in row order: a Fraction for exact columns (0 when no row is chosen), else a float."""
        terms, scale = self._ipw
        total = 0
        for term in terms[rows].tolist():
            total += term
        return (total if scale is None else Fraction(total, scale)) / len(self)


def _value(value, den):
    """A value of a (values, denominator) column: a float over None, else the Fraction value / den."""
    return float(value) if den is None else Fraction(int(value), den)


def _columns(records) -> TrialColumns:
    """``TrialColumns`` as they are, any other records read into them."""
    return records if isinstance(records, TrialColumns) else TrialColumns.of_records(records)


def _check_overlap(records: TrialColumns, kappa) -> None:
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    high = 1 - kappa
    bad = records._outside(kappa, high)
    if bad:
        shown = ", ".join(str(i) for i in bad[:10])
        more = "" if len(bad) <= 10 else f" (and {len(bad) - 10} more)"
        raise ValidationError(
            f"propensity outside ({kappa}, {high}) for record(s) {shown}{more}"
        )


def to_weighted_sample(records, kappa=DEFAULT_KAPPA) -> WeightedSample:
    """Map records to rows (|z|/denom, sign(z)*d, x) after checking strict overlap; weights |``_ipw``|."""
    records = _columns(records)
    _check_overlap(records, kappa)
    terms, scale = records._ipw
    labels = np.where(records._z[0] >= 0, 1, -1) * records._d
    weights = np.abs(terms) if scale is None else Points(np.abs(terms)[:, None], (scale,))
    return WeightedSample(weights, labels, records._x)


def _labels(classifier, points) -> list:
    """Labels at ``points`` (as ``TrialColumns`` keep them): a fitted model in one batch, a plain callable point by point, on tuples.

    The bernstein module is imported only for a model that is not monotone.
    """
    if callable(classifier):
        return [classifier(x) for x in (points if type(points) is tuple else points.rows())]
    from . import monotone
    if isinstance(classifier, monotone.MonotoneClassifier):
        return monotone.predict_batch(classifier, points).tolist()
    from . import bernstein
    if isinstance(classifier, bernstein.BernsteinClassifier):
        return bernstein.predict_batch(classifier, points).tolist()
    raise ValidationError("classifier must be callable or a fitted model")


def welfare_estimate(classifier, records):
    """IPW welfare: mean of z/denominator over records the policy agrees with."""
    records = _columns(records)
    if not len(records):
        raise ValidationError("no records")
    labels = _labels(classifier, records._x)
    return records._mean(np.fromiter(map(eq, records._d.tolist(), labels), dtype=bool, count=len(records)))


def welfare_constant(records):
    """The policy-independent constant (1/n) sum max(0, z/denominator).

    Welfare of any policy plus its empirical weighted 0-1 risk on the mapped
    sample equals this constant.
    """
    records = _columns(records)
    if not len(records):
        raise ValidationError("no records")
    return records._mean(records._ipw[0] > 0)


def max_weight_bound(records, kappa=DEFAULT_KAPPA):
    """Certified weight bound max|z| / kappa under the overlap condition."""
    records = _columns(records)
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    if not len(records):
        return 0.0
    z = records._z[0].tolist()
    return _value(max(-min(z), max(z)), records._z[1]) / kappa
