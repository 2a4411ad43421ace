"""Hinge-risk-minimizing monotone classification over the componentwise order.

Fitting deduplicates covariate points, aggregates the per-point objective
coefficient sum(w_i y_i), and solves the isotone linear program exactly.  The
fitted values are the +/-1 extreme-point solution; out-of-sample labels follow
the optimistic rule: the sign of the minimum fitted value over support points
dominating the query, and +1 when nothing dominates it.  Only the maximal -1
support points (the -1 frontier) decide that rule, so a query is -1 exactly
when a frontier point dominates it.  ``predict_batch`` labels many points at
once: it ranks each coordinate column jointly with the frontier's, which is
exact for any mix of int, Fraction and float, and tests dominance in rank
space with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._numeric import ValidationError, check_finite
from .isotone import IsotoneProblem, solve
from .order import build_dag, dense_ranks, dominator_counts, rank_matrix
from .risks import WeightedSample

_SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class MonotoneClassifier:
    """Distinct training points with fitted +/-1 values respecting the order."""

    support: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(map(tuple, self.support)))
        object.__setattr__(self, "values", tuple(map(int, self.values)))
        if len(self.support) != len(self.values):
            raise ValidationError("support and values must have equal length")
        if not set(self.values) <= {-1, 1}:
            raise ValidationError("fitted values must be -1 or +1")

    @property
    def dim(self) -> int:
        return len(self.support[0]) if self.support else 0

    def to_dict(self) -> dict:
        return {
            "type": "monotone",
            "dim": self.dim,
            "support": [list(_json_number(v) for v in p) for p in self.support],
            "values": list(self.values),
        }

    @cached_property
    def frontier(self) -> tuple:
        """Maximal -1 support points; they alone decide the out-of-sample rule."""
        return _maximal([p for p, v in zip(self.support, self.values) if v < 0])

    def to_compact_dict(self) -> dict:
        """Frontier-only form: minimal +1 points plus maximal -1 points.

        The -1 frontier is what the prediction rule needs (a point is labeled
        -1 exactly when some -1-valued support point dominates it); the +1
        frontier records the fitted up-set's minimal elements.
        """
        pos = [p for p, v in zip(self.support, self.values) if v > 0]
        return {
            "type": "monotone",
            "dim": self.dim,
            "compact": True,
            "min_positive": [list(_json_number(v) for v in p) for p in _maximal(pos, lower=True)],
            "max_negative": [list(_json_number(v) for v in p) for p in self.frontier],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonotoneClassifier":
        if payload.get("type") != "monotone":
            raise ValidationError("not a monotone model payload")
        if payload.get("compact"):
            neg = [tuple(_parse_number(v) for v in p) for p in payload["max_negative"]]
            pos = [tuple(_parse_number(v) for v in p) for p in payload["min_positive"]]
            return cls(tuple(neg + pos), tuple([-1] * len(neg) + [1] * len(pos)))
        support = [tuple(_parse_number(v) for v in p) for p in payload["support"]]
        return cls(tuple(support), tuple(payload["values"]))


def _maximal(points, lower: bool = False) -> tuple:
    """The distinct ``points`` lying below no other one (above none, if ``lower``), in order.

    A point's dominators come after it in lexicographic order, so a sweep from
    the lexicographically largest point tests each block only against itself
    and the maximal points already found; the cost grows with the frontier,
    not with the square of the number of points.
    """
    if not points:
        return ()
    ranks = rank_matrix(points)
    if lower:
        ranks = -ranks
    order = np.lexsort(ranks.T[::-1])[::-1]
    keep = np.zeros(len(points), dtype=bool)
    found = ranks[:0]
    for start in range(0, len(order), _SWEEP_BLOCK):
        idx = order[start : start + _SWEEP_BLOCK]
        block = ranks[idx]
        # every point dominates itself once; a second dominator makes it non-maximal
        top = (dominator_counts(block, block) == 1) & (dominator_counts(block, found) == 0)
        keep[idx[top]] = True
        found = np.concatenate((found, block[top]))
    return tuple(p for p, k in zip(points, keep) if k)


def _json_number(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _parse_number(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def fit(sample: WeightedSample) -> MonotoneClassifier:
    """Empirical weighted hinge risk minimizer over monotone [-1,1] classifiers."""
    if sample.n == 0:
        raise ValidationError("cannot fit on an empty sample")
    totals = {}
    for w, y, p in zip(sample.weights, sample.labels, sample.points):
        totals[p] = totals.get(p, 0) + w * y
    # the lexicographic order sorted() would give, found on exact column ranks, which the DAG reuses
    points = list(totals)
    ranks = rank_matrix(points)
    by_lex = np.lexsort(ranks.T[::-1])
    support = [points[i] for i in by_lex.tolist()]
    dag = build_dag(support, ranks[by_lex])
    values, _ = solve(IsotoneProblem(dag, [totals[p] for p in support]))
    return MonotoneClassifier(dag.nodes, tuple(values))


def _query_columns(points, dim: int):
    """Validated coordinate columns of a batch: float arrays for a float array, else tuples."""
    if isinstance(points, np.ndarray) and points.dtype.kind == "f":
        if points.ndim != 2 or (dim and points.shape[1] != dim):
            raise ValidationError(f"points have shape {points.shape}, model expects dimension {dim}")
        if not np.isfinite(points).all():
            raise ValidationError("coordinates must be finite")
        return len(points), list(points.T)
    points = [tuple(p) for p in points]
    for p in points:
        if dim and len(p) != dim:
            raise ValidationError(f"point has dimension {len(p)}, model expects {dim}")
        for v in p:
            check_finite(v, "coordinate")
    return len(points), list(zip(*points))


def predict_batch(model: MonotoneClassifier, points) -> np.ndarray:
    """Labels at many points (int array): -1 exactly when a -1 frontier point dominates.

    Each query column is ranked jointly with the frontier's column, so the
    dominance test runs on integer ranks and is exact for int, Fraction and
    float coordinates alike.
    """
    n, columns = _query_columns(points, model.dim)
    labels = np.ones(n, dtype=np.int64)
    frontier = model.frontier
    if n == 0 or not frontier:
        return labels
    m = len(frontier)
    joint = []
    for front, query in zip(zip(*frontier), columns):
        if isinstance(query, np.ndarray) and all(isinstance(v, float) for v in front):
            joint.append(dense_ranks(np.concatenate((np.asarray(front, dtype=float), query))))
        else:
            joint.append(dense_ranks(list(front) + list(query)))
    ranks = np.stack(joint, axis=1)
    labels[dominator_counts(ranks[m:], ranks[:m]) > 0] = -1
    return labels


def predict(model: MonotoneClassifier, x) -> int:
    """Sign of the minimum fitted value over dominating support points; +1 if none."""
    return int(predict_batch(model, (tuple(x),))[0])
