"""Componentwise partial order over points: dominance, cover DAGs, up-sets.

A DominanceDag stores distinct points together with the transitive reduction
of the componentwise order (cover edges i -> j meaning node_i <= node_j with
nothing strictly between).  Up-sets -- subsets closed under following cover
edges forward -- are the feasible prediction sets of monotone classification.
Dominance only depends on the order within each coordinate, so a DAG keeps
its nodes' dense integer ranks and derives its chain order and (on first
access) its cover edges from them.  ``dense_ranks`` ranks a column of the
``Points`` that ``read_points`` gives with one exact ``argsort``, and returns
that order too, which a 1-d fit whose values are distinct takes as its
support's order.  ``lex_argsort`` puts rank rows in lexicographic order by
one int64 key each; the steps between consecutive rows in that order tell
both whether the nodes are distinct and whether they form a chain.
``up_set_matrix`` lists every up-set as a row of one bool membership matrix.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._numeric import ValidationError, integers, read_points
from .risks import PredictionSet

DEFAULT_NODE_LIMIT = 15
_BLOCK_ENTRIES = 1 << 22


def dominates(a, b) -> bool:
    """True iff a <= b componentwise (ties by exact equality)."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValidationError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


class DominanceDag:
    """Distinct points and the cover relation of their componentwise order.

    ``cover_edges`` is the cover relation of ``nodes`` (i -> j when node_i <
    node_j with nothing strictly between), computed from the ranks on first
    access, which neither the chain scan nor the 2-d sweep makes; so the edges
    and the ranks that ``solve`` picks its algorithm from describe one order.
    ``points`` are read by ``read_points`` and held as ``Points``; ``ranks``,
    their ``rank_matrix`` when the caller already has it, spares ranking
    them again.  ``nodes`` is ``Points.rows()``, the tuples given if they
    were; a DAG without points (a lattice) has its rank tuples as nodes.
    """

    def __init__(self, points=None, ranks=None):
        self._points = None if points is None else read_points(points, "point")
        self.ranks = rank_matrix(self._points) if ranks is None else ranks

    @cached_property
    def nodes(self) -> tuple:
        return tuple(list(map(tuple, self.ranks.tolist()))) if self._points is None else self._points.rows()

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def dim(self) -> int:
        return self.ranks.shape[1]

    @cached_property
    def lex_order(self) -> np.ndarray:
        """Node indices in lexicographic order of their ranks (that of the nodes themselves), by ``lex_argsort``."""
        return lex_argsort(self.ranks)

    @cached_property
    def _steps(self) -> np.ndarray:
        """Rank differences between consecutive nodes in ``lex_order``, (n - 1, d)."""
        return np.diff(self.ranks[self.lex_order], axis=0)

    @cached_property
    def grid_shape(self):
        """Ranks per coordinate, (max rank + 1, ...), when the nodes fill that whole grid, else None.

        Distinct nodes fill it exactly when there are as many as it has
        cells: every lattice, grid data, distinct points on a line.
        """
        shape = tuple((self.ranks.max(axis=0) + 1).tolist()) if self.n else ()
        return shape if math.prod(shape) == self.n else None

    @cached_property
    def cover_edges(self) -> tuple:
        return _cover_edges(self.ranks, self.grid_shape) if self.n > 1 else ()

    @cached_property
    def is_chain(self) -> bool:
        """True iff the nodes form a chain: in lexicographic order, no coordinate's rank ever falls."""
        return not (self._steps < 0).any()

    @cached_property
    def chain_order(self):
        """Indices ordered from least to greatest if the nodes form a chain, else None."""
        return tuple(self.lex_order.tolist()) if self.is_chain else None

    def is_up_set(self, members) -> bool:
        """Independent membership check: i in S and i -> j implies j in S."""
        flags = tuple(bool(m) for m in members)
        if len(flags) != self.n:
            raise ValidationError("membership vector length mismatch")
        return all(flags[j] for i, j in self.cover_edges if flags[i])


def dense_ranks(column) -> tuple:
    """(ranks, order): the dense rank of each value among the distinct values of ``column`` (int64), and the ``argsort`` that gave them.

    One ``argsort``; a value starts a new rank when it is ``!=`` the one
    sorted before it (so ``-0.0`` and ``0.0`` share one).  The ranks are those
    of ``np.unique(column, return_inverse=True)``, which sorts the same way
    and drops the order.  Numpy compares floats and int64 exactly, and an
    object array (a sequence is read as one) with Python's exact comparisons.
    """
    column = column if isinstance(column, np.ndarray) else np.array(list(column), dtype=object)
    order = np.argsort(column)
    ordered = column[order]
    ranks = np.empty(len(column), dtype=np.int64)
    # with no values, the one False broadcasts onto the empty order
    ranks[order] = np.cumsum(np.concatenate(([False], ordered[1:] != ordered[:-1])))
    return ranks, order


def rank_matrix(points) -> np.ndarray:
    """Dense ranks of each coordinate column of ``Points``, as (n, d) int64.

    An exact column shares one denominator, so its numerators rank as its values do.
    """
    if not len(points):
        return np.zeros((0, 0), dtype=np.int64)
    return np.stack([dense_ranks(column)[0] for column in points.values.T], axis=1)


def lex_argsort(ranks: np.ndarray) -> np.ndarray:
    """Row indices of nonnegative integer ``ranks`` in lexicographic order, equal rows by index.

    That is ``np.lexsort(ranks.T[::-1])``.  Each row is sorted by one int64
    key, the mixed-radix number of (its ranks, its index); keys are unique,
    so any sort gives that stable order.  When the key would leave int64,
    ``np.lexsort`` runs.
    """
    n = len(ranks)
    sizes = (ranks.max(axis=0) + 1).tolist() if n else []
    if math.prod(sizes) * n >= 1 << 63:
        return np.lexsort(ranks.T[::-1])
    key = np.zeros(n, dtype=np.int64)
    for v, size in enumerate(sizes):
        key *= size
        key += ranks[:, v]
    key *= n
    key += np.arange(n)
    return np.argsort(key)


def _below(queries: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Entry (a, b) is queries[a] <= tops[b]; ``&`` over columns beats ``all`` over a short axis."""
    below = queries[:, None, 0] <= tops[None, :, 0]
    for v in range(1, tops.shape[1]):
        below &= queries[:, None, v] <= tops[None, :, v]
    return below


def dominator_counts(queries: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """For each row q of ``queries``, the number of rows t of ``tops`` with q <= t.

    Both are integer rank arrays of shape (-, d); rows are compared in chunks
    so the boolean block stays near 4M entries whatever the sizes.
    """
    counts = np.zeros(len(queries), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, tops.size))
    for start in range(0, len(queries), step):
        counts[start : start + step] = np.count_nonzero(_below(queries[start : start + step], tops), axis=1)
    return counts


def _cover_edges(ranks: np.ndarray, shape) -> tuple:
    """Cover relation of distinct rank rows, as sorted (i, j) pairs.

    Rows that fill their whole rank grid, of ``shape`` (see
    ``DominanceDag.grid_shape``), are covered by their unit steps in one
    coordinate; otherwise (``shape`` None) every edge implied by a 2-path is
    removed from the dense strict order.
    """
    n = len(ranks)
    if shape is not None:
        cells = np.empty(n, dtype=np.int64)
        cells[np.ravel_multi_index(tuple(ranks.T), shape)] = np.arange(n)
        cells = cells.reshape(shape)
        src = np.concatenate([cells.take(range(k - 1), axis=v).ravel() for v, k in enumerate(shape)])
        dst = np.concatenate([cells.take(range(1, k), axis=v).ravel() for v, k in enumerate(shape)])
        by_edge = np.lexsort((dst, src))
        src, dst = src[by_edge], dst[by_edge]
    else:
        strict = _below(ranks, ranks)
        np.fill_diagonal(strict, False)
        # 2-path counts are at most n, so float32 holds them exactly below 2**24
        step = strict.astype(np.float32)
        # np.nonzero walks in row-major order, so the edges come out sorted
        src, dst = np.nonzero(strict & ~((step @ step) > 0.5))
    return tuple(zip(src.tolist(), dst.tolist()))


def build_dag(points, ranks=None) -> DominanceDag:
    """Order DAG of distinct points under the componentwise order.

    Without ``ranks`` the points are read and ranked (only the order within
    a coordinate matters: the DAG works on dense ranks); only
    ``monotone.fit`` passes ``ranks``, with its support's ``Points``, taken
    from a validated sample, which are trusted; their rank rows come in
    lexicographic order, which is then ``lex_order``, not sorted again.
    Cover edges are computed on first access.  Distinctness is always
    checked on the rank rows, which are equal exactly when the points are
    equal (so ``(1,)`` and ``(1.0,)`` are one point): no two rows may be
    equal in lexicographic order.
    """
    dag = DominanceDag(points, ranks)
    if ranks is not None:
        dag.lex_order = np.arange(dag.n)
    if not dag._steps.any(axis=1).all():
        raise ValidationError("points must be distinct (deduplicate before building)")
    return dag


def lattice_dag(orders) -> DominanceDag:
    """Order DAG of the multi-index lattice {0..k_1} x ... x {0..k_d}.

    Nodes are multi-indices in row-major order (last coordinate fastest), and
    are their own ranks; cover edges are unit steps in a single coordinate.
    The node tuples, of Python ints, are built from the ranks on their first read.
    """
    orders = integers(orders, "lattice orders")
    if any(k < 0 for k in orders):
        raise ValidationError("lattice orders must be nonnegative")
    shape = tuple(k + 1 for k in orders)
    dag = DominanceDag(ranks=np.indices(shape).reshape(len(shape), math.prod(shape)).T)
    dag.lex_order = np.arange(dag.n)  # row-major multi-indices are in lexicographic order already
    return dag


def up_set_matrix(dag: DominanceDag, node_limit: int = DEFAULT_NODE_LIMIT) -> np.ndarray:
    """Every up-set of the DAG once, as the rows of an (m, n) bool membership matrix.

    The sets grow one node at a time, greatest first in ``lex_order``: a node
    joins every set that already holds all of its cover successors.  Time
    and memory grow with the number of up-sets, not with 2**n.  Rows are in
    the order of the bitmasks they spell, node i as bit i.
    """
    n = dag.n
    if n > node_limit:
        raise ValidationError(
            f"up-set enumeration refused: {n} nodes exceeds the limit of {node_limit}"
        )
    successors = [[] for _ in range(n)]
    for i, j in dag.cover_edges:
        successors[i].append(j)
    members = np.zeros((1, n), dtype=bool)
    for i in dag.lex_order[::-1].tolist():
        grown = members[members[:, successors[i]].all(axis=1)]
        grown[:, i] = True
        members = np.concatenate((members, grown))
    # np.lexsort takes its last key, node n - 1, as the most significant
    return members[np.lexsort(members.T)] if n else members


def enumerate_up_sets(dag: DominanceDag, node_limit: int = DEFAULT_NODE_LIMIT):
    """Yield every up-set as a PredictionSet over the DAG's nodes, in ``up_set_matrix`` order."""
    for row in up_set_matrix(dag, node_limit).tolist():
        yield PredictionSet(row)
