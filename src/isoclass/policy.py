"""Inverse-propensity-weighted adapters from trial records to weighted classification.

A record (z, d, x, e) from a randomized trial (or an unconfounded
observational study with known propensity e(x) = P(D=+1 | X=x)) maps to a
weighted-classification row with weight |z| / (d e + (1-d)/2) and label
sign(z) * d.  Maximizing estimated welfare over policies is then equivalent
to minimizing the empirical weighted 0-1 risk on the mapped sample.
Records kept as ``TrialColumns`` are mapped, and their welfare summed, in
integers over one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, index

import numpy as np

from . import bernstein, monotone
from ._numeric import ScaledInts, ValidationError, check_finite, common_numerators, sign
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
        # checked before int() maps it, so 1.5 is refused rather than truncated to 1
        if self.d not in (-1, 1):
            raise ValidationError(f"treatment must be -1 or +1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if not (0 < self.e < 1):
            raise ValidationError(f"propensity must lie strictly in (0, 1), got {self.e!r}")

    @property
    def denominator(self):
        """Probability of the treatment received: e if d = +1, 1 - e if d = -1."""
        return self.e if self.d > 0 else 1 - self.e


class TrialColumns:
    """Trial records kept as exact columns; a sequence whose indexing builds the ``TrialRecord`` of a row.

    ``io.load_trials`` keeps a file so in rational mode: outcomes z and
    propensities e as (numerators, denominator) pairs, the numerators int64
    or Python ints in an object array, treatments d as an int64 array of
    -1/+1 and the covariates as ``ScaledInts``, all checked as
    ``TrialRecord`` checks them.
    """

    def __init__(self, z: tuple, d: np.ndarray, x: ScaledInts, e: tuple):
        self._z, self._d, self._x, self._e = z, d, x, e

    def __len__(self) -> int:
        return len(self._d)

    def __getitem__(self, i) -> TrialRecord:
        i = index(i)
        (z, z_den), (e, e_den) = self._z, self._e
        return TrialRecord(Fraction(int(z[i]), z_den), int(self._d[i]), self._x[i], Fraction(int(e[i]), e_den))

    @cached_property
    def _ipw(self):
        """(numerators of each z / denominator, their common denominator): int64 if it holds every term, else Python ints.

        With z = Z / Dz and e = E / De, the denominator of a row is q / De,
        q = E if d = +1 else De - E, so z / denominator is Z * (De * L / q)
        over Dz * L, L the lcm of the distinct q.
        """
        (z, z_den), (e, e_den) = self._z, self._e
        distinct, which = np.unique(np.where(self._d > 0, e, e_den - e), return_inverse=True)
        factors, lcm = common_numerators([e_den] * len(distinct), distinct.tolist(), math.inf)
        bound = max(-int(z.min(initial=0)), int(z.max(initial=0)), 1) * max(factors, default=1)
        fits = z.dtype == np.int64 and bound < 1 << 63
        return z * np.array(factors, dtype=np.int64 if fits else object)[which], z_den * lcm

    def _outside(self, low, high) -> list:
        """Rows whose propensity is not strictly between ``low`` and ``high``, each distinct value compared once."""
        e, e_den = self._e
        distinct, which = np.unique(e, return_inverse=True)
        bad = np.array([not (low < Fraction(v, e_den) < high) for v in distinct.tolist()], dtype=bool)
        return np.flatnonzero(bad[which]).tolist()


def _kept(records):
    """``TrialColumns`` as they are, any other records as a list."""
    return records if isinstance(records, TrialColumns) else list(records)


def _check_overlap(records, kappa) -> None:
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    high = 1 - kappa
    if isinstance(records, TrialColumns):
        bad = records._outside(kappa, high)
    else:
        bad = [i for i, r in enumerate(records) if not (kappa < r.e < high)]
    if bad:
        shown = ", ".join(str(i) for i in bad[:10])
        more = "" if len(bad) <= 10 else f" (and {len(bad) - 10} more)"
        raise ValidationError(
            f"propensity outside ({kappa}, {high}) for record(s) {shown}{more}"
        )


def to_weighted_sample(records, kappa=DEFAULT_KAPPA) -> WeightedSample:
    """Map records to rows (|z|/denom, sign(z)*d, x) after checking strict overlap.

    ``TrialColumns`` give their weights as numerators over one denominator
    (``TrialColumns._ipw``) and their covariates as they keep them.
    """
    records = _kept(records)
    _check_overlap(records, kappa)
    if isinstance(records, TrialColumns):
        ipw, scale = records._ipw
        labels = np.where(records._z[0] >= 0, 1, -1) * records._d
        return WeightedSample(ScaledInts(np.abs(ipw)[:, None], (scale,)), labels, records._x)
    weights, labels, points = [], [], []
    for r in records:
        weights.append(abs(r.z) / r.denominator)
        labels.append(sign(r.z) * r.d)
        points.append(r.x)
    return WeightedSample(tuple(weights), tuple(labels), tuple(points))


def _labels(classifier, points) -> list:
    """Labels at ``points``: a fitted model in one batch, a plain callable point by point."""
    if callable(classifier):
        return [classifier(x) for x in points]
    if isinstance(classifier, monotone.MonotoneClassifier):
        return monotone.predict_batch(classifier, points).tolist()
    if isinstance(classifier, bernstein.BernsteinClassifier):
        return bernstein.predict_batch(classifier, points).tolist()
    raise ValidationError("classifier must be callable or a fitted model")


def welfare_estimate(classifier, records):
    """IPW welfare: mean of z/denominator over records the policy agrees with.

    ``TrialColumns`` sum their terms (``TrialColumns._ipw``) as Python ints,
    and make one Fraction of the total.
    """
    records = _kept(records)
    if not len(records):
        raise ValidationError("no records")
    if isinstance(records, TrialColumns):
        labels = _labels(classifier, records._x)
        agree = np.fromiter(map(eq, records._d.tolist(), labels), dtype=bool, count=len(records))
        ipw, scale = records._ipw
        # with no agreeing record the sum is the int 0, as the loop below leaves it
        total = Fraction(sum(ipw[agree].tolist()), scale) if agree.any() else 0
        return total / len(records)
    labels = _labels(classifier, [r.x for r in records])
    total = 0
    for r, label in zip(records, labels):
        if r.d == label:
            total += r.z / r.denominator
    return total / len(records)


def welfare_constant(records):
    """The policy-independent constant (1/n) sum max(0, z/denominator).

    Welfare of any policy plus its empirical weighted 0-1 risk on the mapped
    sample equals this constant.
    """
    records = list(records)
    if not records:
        raise ValidationError("no records")
    total = 0
    for r in records:
        term = r.z / r.denominator
        if term > 0:
            total += term
    return total / len(records)


def max_weight_bound(records, kappa=DEFAULT_KAPPA):
    """Certified weight bound max|z| / kappa under the overlap condition; ``TrialColumns`` read their z column."""
    if not isinstance(records, TrialColumns):
        records = list(records)
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    if not len(records):
        return 0.0
    if isinstance(records, TrialColumns):
        z, z_den = records._z
        return Fraction(max(-int(z.min()), int(z.max())), z_den) / kappa
    return max(abs(r.z) for r in records) / kappa
