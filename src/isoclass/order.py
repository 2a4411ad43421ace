"""Componentwise partial order over points: dominance, cover DAGs, up-sets.

A DominanceDag stores distinct points together with the transitive reduction
of the componentwise order (cover edges i -> j meaning node_i <= node_j with
nothing strictly between).  Up-sets -- subsets closed under following cover
edges forward -- are the feasible prediction sets of monotone classification.
Dominance only depends on the order within each coordinate, so a DAG keeps
its nodes' dense integer ranks, exact for any mix of int, Fraction and float
coordinates, and derives its chain order and (on first access) its cover
edges from them.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, product, repeat

import numpy as np

from ._numeric import ValidationError, check_finite, finite_array
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
    ``ranks``, the nodes' ``rank_matrix`` when the caller already has it,
    spares ranking them again.
    """

    def __init__(self, nodes, ranks=None):
        self.nodes = tuple(map(tuple, nodes))
        if ranks is not None:
            self.ranks = ranks

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def dim(self) -> int:
        return len(self.nodes[0]) if self.nodes else 0

    @cached_property
    def ranks(self) -> np.ndarray:
        """``rank_matrix`` of the nodes: (n, d) int64."""
        return rank_matrix(self.nodes)

    @cached_property
    def lex_order(self) -> np.ndarray:
        """Node indices in lexicographic order of their ranks (that of the nodes themselves)."""
        return np.lexsort(self.ranks.T[::-1])

    @cached_property
    def cover_edges(self) -> tuple:
        return _cover_edges(self.ranks) if self.n > 1 else ()

    @cached_property
    def successor_masks(self) -> tuple:
        masks = [0] * self.n
        for i, j in self.cover_edges:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def chain_order(self):
        """Indices ordered from least to greatest if the nodes form a chain, else None.

        In lexicographic order, the nodes are a chain exactly when no
        coordinate's rank ever falls.
        """
        if self.n <= 1:
            return tuple(range(self.n))
        lex = self.lex_order
        if (np.diff(self.ranks[lex], axis=0) < 0).any():
            return None
        return tuple(lex.tolist())

    def is_up_set(self, members) -> bool:
        """Independent membership check: i in S and i -> j implies j in S."""
        flags = tuple(bool(m) for m in members)
        if len(flags) != self.n:
            raise ValidationError("membership vector length mismatch")
        return all(flags[j] for i, j in self.cover_edges if flags[i])


def dense_ranks(column) -> np.ndarray:
    """Dense rank of each value among the distinct values of ``column`` (int64).

    A column of floats is ranked by numpy, whose float comparisons are exact;
    any other column by sorting its distinct values with Python's exact
    comparisons, so any mix of int, Fraction and float ranks exactly.
    """
    if (isinstance(column, np.ndarray) and column.dtype.kind == "f") or all(
        map(isinstance, column, repeat(float))
    ):
        return np.unique(np.asarray(column, dtype=float), return_inverse=True)[1]
    rank = {v: r for r, v in enumerate(sorted(set(column)))}
    return np.fromiter((rank[v] for v in column), dtype=np.int64, count=len(column))


def rank_matrix(points) -> np.ndarray:
    """Dense ranks of each coordinate column of ``points``, as an (n, d) int64 array."""
    return np.stack([dense_ranks([p[v] for p in points]) for v in range(len(points[0]))], axis=1)


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


def _cover_edges(ranks: np.ndarray) -> tuple:
    """Cover relation of distinct rank rows, as sorted (i, j) pairs.

    Rows that fill their whole rank grid (a lattice, or any distinct points on
    a line) are covered by their unit steps in one coordinate; otherwise every
    edge implied by a 2-path is removed from the dense strict order.
    """
    n = len(ranks)
    shape = tuple((ranks.max(axis=0) + 1).tolist())
    if math.prod(shape) == n:
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

    ``ranks`` is passed on to ``DominanceDag``; cover edges are computed on
    first access.
    """
    points = list(map(tuple, points))
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct (deduplicate before building)")
    dims = set(map(len, points))
    if len(dims) > 1:
        raise ValidationError(f"points have mixed dimensions: {sorted(dims)}")
    n = len(points)
    if n == 0:
        return DominanceDag(())
    if finite_array(chain.from_iterable(points), n * len(points[0])) is None:
        for p in points:
            for v in p:
                check_finite(v, "coordinate")
    # only the order within a coordinate matters: the DAG works on dense ranks
    return DominanceDag(points, ranks=rank_matrix(points) if ranks is None else ranks)


def lattice_dag(orders) -> DominanceDag:
    """Order DAG of the multi-index lattice {0..k_1} x ... x {0..k_d}.

    Nodes are multi-indices in row-major order (last coordinate fastest), and
    are their own ranks; cover edges are unit steps in a single coordinate.
    """
    orders = tuple(int(k) for k in orders)
    if any(k < 0 for k in orders):
        raise ValidationError("lattice orders must be nonnegative")
    shape = tuple(k + 1 for k in orders)
    nodes = tuple(product(*(range(size) for size in shape)))
    return DominanceDag(nodes, ranks=np.indices(shape).reshape(len(shape), len(nodes)).T)


def iter_up_set_masks(dag: DominanceDag, node_limit: int = DEFAULT_NODE_LIMIT):
    """Yield each up-set of the DAG exactly once, as a node bitmask."""
    n = dag.n
    if n > node_limit:
        raise ValidationError(
            f"up-set enumeration refused: {n} nodes exceeds the limit of {node_limit}"
        )
    succ = dag.successor_masks
    for mask in range(1 << n):
        ok = True
        probe = mask
        while probe:
            i = (probe & -probe).bit_length() - 1
            if succ[i] & ~mask:
                ok = False
                break
            probe &= probe - 1
        if ok:
            yield mask


def enumerate_up_sets(dag: DominanceDag, node_limit: int = DEFAULT_NODE_LIMIT):
    """Yield every up-set as a PredictionSet over the DAG's nodes."""
    n = dag.n
    for mask in iter_up_set_masks(dag, node_limit):
        yield PredictionSet(tuple(bool(mask >> i & 1) for i in range(n)))
