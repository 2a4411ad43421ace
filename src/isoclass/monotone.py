"""Hinge-risk-minimizing monotone classification over the componentwise order.

Fitting ranks the sample's rows once, exactly for any mix of int, Fraction
and float; that one ranking gives the distinct covariate points, their
lexicographic order and the per-point objective coefficients sum(w_i y_i)
(exact for int and Fraction weights), and the isotone linear program is then
solved exactly.  The fitted values are the +/-1 extreme-point solution;
out-of-sample labels follow the optimistic rule: the sign of the minimum
fitted value over support points dominating the query, and +1 when nothing
dominates it.  Only the maximal -1 support points (the -1 frontier) decide
that rule, so a query is -1 exactly when a frontier point dominates it.
A fitted model finds its frontiers on the ranks its fit made.
``predict_batch`` labels many points at once: it ranks each coordinate column
jointly with the frontier's, which is exact for any mix of int, Fraction and
float, and tests dominance in rank space with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from ._numeric import ValidationError, check_points, parse_exact
from .isotone import IsotoneProblem, solve
from .order import build_dag, dense_ranks, dominator_counts, lex_argsort, rank_matrix
from .risks import WeightedSample

_SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class MonotoneClassifier:
    """Distinct training points with fitted +/-1 values respecting the order."""

    support: tuple
    values: tuple
    _ranks = None  # not a field: the support's rank matrix, kept by ``_of_fit`` so the frontiers rank nothing again

    def __post_init__(self):
        object.__setattr__(self, "support", check_points(self.support, "support point"))
        values = tuple(self.values)
        if not all(v in (-1, 1) and not isinstance(v, bool) for v in values):
            raise ValidationError("fitted values must be -1 or +1")
        object.__setattr__(self, "values", tuple(map(int, values)))
        if len(self.support) != len(self.values):
            raise ValidationError("support and values must have equal length")

    @classmethod
    def _of_fit(cls, support: tuple, values: tuple, ranks: np.ndarray) -> "MonotoneClassifier":
        """``fit``'s model, skipping ``__post_init__``: its sample and ``solve`` made those checks."""
        model = object.__new__(cls)
        model.__dict__.update(support=support, values=values, _ranks=ranks)
        return model

    @property
    def dim(self) -> int:
        return len(self.support[0]) if self.support else 0

    def to_dict(self) -> dict:
        return {
            "type": "monotone",
            "dim": self.dim,
            "support": _json_points(self.support),
            "values": list(self.values),
        }

    @cached_property
    def frontier(self) -> tuple:
        """Maximal -1 support points; they alone decide the out-of-sample rule."""
        return self._extremes(-1)

    def _extremes(self, value: int) -> tuple:
        """Support points fitted ``value`` that are maximal (-1) or minimal (+1) among those, in support order."""
        rows = np.flatnonzero(np.fromiter(self.values, dtype=np.int64, count=len(self.values)) == value)
        if not len(rows):
            return ()
        if self._ranks is None:
            ranks = rank_matrix(list(map(self.support.__getitem__, rows.tolist())))
        else:
            ranks = self._ranks[rows]
        return tuple(map(self.support.__getitem__, rows[_maximal(ranks, lower=value > 0)].tolist()))

    def to_compact_dict(self) -> dict:
        """Frontier-only form: minimal +1 points plus maximal -1 points.

        The -1 frontier is what the prediction rule needs (a point is labeled
        -1 exactly when some -1-valued support point dominates it); the +1
        frontier records the fitted up-set's minimal elements.
        """
        return {
            "type": "monotone",
            "dim": self.dim,
            "compact": True,
            "min_positive": _json_points(self._extremes(1)),
            "max_negative": _json_points(self.frontier),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonotoneClassifier":
        if payload.get("type") != "monotone":
            raise ValidationError("not a monotone model payload")
        if payload.get("compact"):
            neg = _parse_points(payload["max_negative"])
            pos = _parse_points(payload["min_positive"])
            return cls(neg + pos, (-1,) * len(neg) + (1,) * len(pos))
        return cls(_parse_points(payload["support"]), tuple(payload["values"]))


def _maximal(ranks: np.ndarray, lower: bool = False) -> np.ndarray:
    """Sorted indices of the rank rows lying below no other one (above none, if ``lower``).

    Of repeated rows, only the last one is kept.

    In one dimension that is the greatest row.  A row's dominators come after
    it in lexicographic order.  In two dimensions, walking that order from the
    largest row, a row is maximal exactly when its second rank exceeds every
    second rank walked before it.  Otherwise a sweep from the
    lexicographically largest row tests each block only against itself and
    the maximal rows already found; the cost grows with the frontier, not
    with the square of the number of rows.
    """
    if lower:
        ranks = ranks.max(axis=0) - ranks
    n, d = ranks.shape
    if d == 1:
        return np.array([n - 1 - int(np.argmax(ranks[::-1, 0]))])
    order = lex_argsort(ranks)[::-1]
    keep = np.zeros(n, dtype=bool)
    if d == 2:
        high = ranks[order, 1]
        keep[order[0]] = True
        keep[order[1:]] = high[1:] > np.maximum.accumulate(high)[:-1]
    else:
        # copies of a row would count as each other's dominators: keep the first in sweep order
        order = order[np.concatenate(([True], np.diff(ranks[order], axis=0).any(axis=1)))]
        found = ranks[:0]
        for start in range(0, len(order), _SWEEP_BLOCK):
            idx = order[start : start + _SWEEP_BLOCK]
            block = ranks[idx]
            # every row dominates itself once; a second dominator makes it non-maximal
            top = (dominator_counts(block, block) == 1) & (dominator_counts(block, found) == 0)
            keep[idx[top]] = True
            found = np.concatenate((found, block[top]))
    return np.flatnonzero(keep)


def _json_points(points) -> list:
    """Points as JSON lists, a Fraction coordinate as its string, which ``_parse_points`` reads back."""
    return [[str(v) if isinstance(v, Fraction) else v for v in p] for p in points]


def _parse_points(rows) -> list:
    return [[parse_exact(v) if isinstance(v, str) else v for v in p] for p in rows]


def fit(sample: WeightedSample) -> MonotoneClassifier:
    """Empirical weighted hinge risk minimizer over monotone [-1,1] classifiers.

    One ranking of the sample's rows gives the support, its order and its
    coefficients: a stable lexicographic sort of the rank rows
    (``lex_argsort``) lists the distinct points in the order ``sorted`` would
    give, each as the object of its first row, and the per-point sums of
    w_i y_i are added in row order (exact for int and Fraction products; in
    int64 if every weight is an ``int`` and n * max(w) < 2**62).  The sample
    has checked its rows (one dimension, finite) and kept their float matrix:
    when every coordinate is a float, its columns are ranked, else the
    coordinates themselves.  The DAG checks only that the support is
    distinct, and the model keeps its ranks for the frontiers.
    """
    if sample.n == 0:
        raise ValidationError("cannot fit on an empty sample")
    ranks = rank_matrix(sample.points, sample._float_points if sample._all_float else None)
    by_lex = lex_argsort(ranks)
    ranks = ranks[by_lex]
    # a row starts a new point when its ranks differ from the row before
    starts = np.flatnonzero(np.concatenate(([True], np.diff(ranks, axis=0).any(axis=1))))
    n, weights, labels, points = sample.n, sample.weights, sample.labels, sample.points
    if set(map(type, weights)) == {int} and n * max(weights) < 2**62:  # |sums| <= n * max(w)
        products = np.fromiter(weights, np.int64, n) * np.fromiter(labels, np.int64, n)
    else:
        products = np.fromiter(map(mul, weights, labels), dtype=object, count=n)
    coeffs = np.add.reduceat(products[by_lex], starts).tolist()
    dag = build_dag(tuple(map(points.__getitem__, by_lex[starts].tolist())), ranks[starts])
    values, _ = solve(IsotoneProblem(dag, coeffs))
    return MonotoneClassifier._of_fit(dag.nodes, tuple(values), dag.ranks)


def _query_columns(points, dim: int):
    """Validated coordinate columns of a batch: float arrays for a float array, else tuples."""
    if isinstance(points, np.ndarray) and points.dtype.kind == "f":
        if points.ndim != 2 or (dim and points.shape[1] != dim):
            raise ValidationError(f"points have shape {points.shape}, model expects dimension {dim}")
        if not np.isfinite(points).all():
            raise ValidationError("coordinates must be finite")
        return len(points), list(points.T)
    points = check_points(points, "point")
    if points and dim and len(points[0]) != dim:
        raise ValidationError(f"point has dimension {len(points[0])}, model expects {dim}")
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
