"""Hinge-risk-minimizing monotone classification over the componentwise order.

Fitting ranks the sample's rows once, from the ``Points`` they were read
into; that one ranking gives the distinct covariate points, their
lexicographic order and the per-point objective coefficients sum(w_i y_i),
and the isotone linear program is then solved exactly.  The fitted values
are the +/-1 extreme-point solution; out-of-sample labels follow the optimistic rule: the sign of the minimum
fitted value over support points dominating the query, and +1 when nothing
dominates it.  Only the maximal -1 support points (the -1 frontier) decide
that rule, so a query is -1 exactly when a frontier point dominates it.
A model finds its frontiers on its support's ranks.  ``predict_batch``
ranks each coordinate column of a batch jointly with the frontier's and
tests dominance in rank space with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._numeric import Points, ValidationError, joint_ranks, read_points
from .isotone import IsotoneProblem, solve
from .order import build_dag, dominator_counts, lex_argsort, rank_matrix
from .risks import WeightedSample

_SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class MonotoneClassifier:
    """Distinct training points with fitted +/-1 values respecting the order.

    A model keeps its support's own rows: their ``Points`` (``_support``),
    the tuples given for them (``_kept``, None when they were read from an
    array or a file's columns), their ranks and the int64 values.  It builds
    ``support`` and ``values`` on first read, and its frontiers from their
    own rows only.
    """

    support: tuple
    values: tuple

    def __post_init__(self):
        rows, form = read_points(self.support, "support point")
        values = self.values
        # both are read back from what ``_keep`` keeps
        del self.__dict__["support"], self.__dict__["values"]
        self._keep(rows, form, values)

    def _keep(self, rows, form, values, ranks=None) -> None:
        """Keep the support (its tuples ``rows`` or None, its ``Points`` ``form``), its ranks and ``values``, checked unless an array."""
        if not isinstance(values, np.ndarray):
            values = tuple(values)
            # a bool is neither -1 nor +1
            if not all(v in (-1, 1) and not isinstance(v, bool) for v in values):
                raise ValidationError("fitted values must be -1 or +1")
            values = np.array(values, dtype=np.int64)
        if len(form) != len(values):
            raise ValidationError("support and values must have equal length")
        self.__dict__.update(_kept=rows, _support=form, _values=values, _ranks=rank_matrix(form) if ranks is None else ranks)

    @classmethod
    def _of(cls, rows, form, values, ranks=None) -> "MonotoneClassifier":
        """The model ``_keep`` makes, skipping ``__post_init__`` (``fit``'s, whose sample and ``solve`` made its checks, or a file's)."""
        model = object.__new__(cls)
        model._keep(rows, form, values, ranks)
        return model

    def __getattr__(self, name):
        if name not in ("support", "values"):
            raise AttributeError(name)
        value = self._support_rows(np.arange(len(self._values))) if name == "support" else tuple(self._values.tolist())
        self.__dict__[name] = value
        return value

    def _support_rows(self, index: np.ndarray) -> tuple:
        """Support points ``index``: of the tuples kept, or built from the ``Points``."""
        return self._support.rows(index) if self._kept is None else tuple(map(self._kept.__getitem__, index.tolist()))

    @property
    def dim(self) -> int:
        return self._ranks.shape[1]

    def to_dict(self) -> dict:
        # a support kept as ``Points`` alone is written from them, an exact one as the str of each Fraction
        return {
            "type": "monotone",
            "dim": self.dim,
            "support": self._support.texts() if self._kept is None else _json_points(self.support),
            "values": list(self.values),
        }

    @cached_property
    def _frontier(self) -> np.ndarray:
        return self._extreme_rows(-1)

    @cached_property
    def frontier(self) -> tuple:
        """Maximal -1 support points; they alone decide the out-of-sample rule."""
        return self._support_rows(self._frontier)

    def _extreme_rows(self, value: int) -> np.ndarray:
        """Indices of the support points fitted ``value`` that are maximal (-1) or minimal (+1) among those, in support order."""
        rows = np.flatnonzero(self._values == value)
        return rows[_maximal(self._ranks[rows], lower=value > 0)] if len(rows) else rows

    def _extremes(self, value: int) -> tuple:
        """The points of ``_extreme_rows``."""
        return self._support_rows(self._extreme_rows(value))

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
        """The model of a file's content, its support read by ``read_points`` (strings as Fraction texts, as CSV columns are read)."""
        if payload.get("type") != "monotone":
            raise ValidationError("not a monotone model payload")
        if payload.get("compact"):
            neg, pos = payload["max_negative"], payload["min_positive"]
            rows, values = neg + pos, (-1,) * len(neg) + (1,) * len(pos)
        else:
            rows, values = payload["support"], payload["values"]
        # a support of strings alone is read back from its columns; strings beside numbers as their Fractions
        strings = all(type(v) is str for p in rows for v in p)
        kept, form = read_points(rows if strings else [[Fraction(v) if type(v) is str else v for v in p] for p in rows], "support point")
        return cls._of(None if strings else kept, form, values)


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
    """Points as JSON lists, a Fraction coordinate as its string, which ``from_dict`` reads back."""
    return [[str(v) if isinstance(v, Fraction) else v for v in p] for p in points]


def fit(sample: WeightedSample) -> MonotoneClassifier:
    """Empirical weighted hinge risk minimizer over monotone [-1,1] classifiers.

    One ranking of the sample's ``Points`` gives the support, its order and
    its coefficients: a stable lexicographic sort of the rank rows
    (``lex_argsort``) lists the distinct points in the order ``sorted`` would
    give, each as its first row, and the per-point sums of w_i y_i are added
    in row order: integer weight numerators (whose one scale moves no
    optimum) in int64 when n * max(w) < 2**62, else as Python ints or floats.
    The DAG and the model build their point tuples when read.
    """
    if sample.n == 0:
        raise ValidationError("cannot fit on an empty sample")
    ranks = rank_matrix(sample._points)
    by_lex = lex_argsort(ranks)
    ranks = ranks[by_lex]
    # a row starts a new point when its ranks differ from the row before
    starts = np.flatnonzero(np.concatenate(([True], np.diff(ranks, axis=0).any(axis=1))))
    weights, labels = sample._weights, sample._labels
    if weights.dtype == np.int64 and sample.n * int(weights.max()) < 1 << 62:
        products = weights * labels
    else:
        products = weights.astype(object) * labels.astype(object)
    coeffs = np.add.reduceat(products[by_lex], starts)
    # the model copies each support point's first row, so that it holds no reference to the sample
    first = by_lex[starts]
    points = sample.__dict__.get("points")
    kept = None if points is None else tuple(map(points.__getitem__, first.tolist()))
    support = Points(sample._points.values[first], sample._points.denominators)
    dag = build_dag(support.rows if kept is None else kept, ranks[starts])
    values, _ = solve(IsotoneProblem(dag, coeffs), array=True)
    return MonotoneClassifier._of(kept, support, values, dag.ranks)


def predict_batch(model: MonotoneClassifier, points) -> np.ndarray:
    """Labels at many points (int array): -1 exactly when a -1 frontier point dominates.

    Each query column is ranked jointly with the frontier's, as floats or
    as exact numerators over a common denominator, so the dominance test
    runs on integer ranks and is exact for any numbers.
    """
    _, form = read_points(points, "point")
    n, dim = len(form), form.dim
    if n and model.dim and dim != model.dim:
        raise ValidationError(f"point has dimension {dim}, model expects {model.dim}")
    labels = np.ones(n, dtype=np.int64)
    front = model._frontier
    if n == 0 or not len(front):
        return labels
    ranks = joint_ranks(model._support, front, form)
    m = len(front)
    labels[dominator_counts(ranks[m:], ranks[:m]) > 0] = -1
    return labels


def predict(model: MonotoneClassifier, x) -> int:
    """Sign of the minimum fitted value over dominating support points; +1 if none."""
    return int(predict_batch(model, (tuple(x),))[0])
