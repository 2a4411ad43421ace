"""Inverse-propensity-weighted adapters from trial records to weighted classification.

A record (z, d, x, e) from a randomized trial (or an unconfounded
observational study with known propensity e(x) = P(D=+1 | X=x)) maps to a
weighted-classification row with weight |z| / (d e + (1-d)/2) and label
sign(z) * d.  Maximizing estimated welfare over policies is then equivalent
to minimizing the empirical weighted 0-1 risk on the mapped sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bernstein, monotone
from ._numeric import ValidationError, check_finite, sign
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


def _check_overlap(records, kappa) -> None:
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    high = 1 - kappa
    bad = [i for i, r in enumerate(records) if not (kappa < r.e < high)]
    if bad:
        shown = ", ".join(str(i) for i in bad[:10])
        more = "" if len(bad) <= 10 else f" (and {len(bad) - 10} more)"
        raise ValidationError(
            f"propensity outside ({kappa}, {high}) for record(s) {shown}{more}"
        )


def to_weighted_sample(records, kappa=DEFAULT_KAPPA) -> WeightedSample:
    """Map records to rows (|z|/denom, sign(z)*d, x) after checking strict overlap."""
    records = list(records)
    _check_overlap(records, kappa)
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
    """IPW welfare: mean of z/denominator over records the policy agrees with."""
    records = list(records)
    if not records:
        raise ValidationError("no records")
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
    """Certified weight bound max|z| / kappa under the overlap condition."""
    records = list(records)
    if not (0 < kappa < 0.5):
        raise ValidationError(f"overlap bound kappa must lie in (0, 1/2), got {kappa!r}")
    if not records:
        return 0.0
    return max(abs(r.z) for r in records) / kappa
