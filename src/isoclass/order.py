"""Componentwise partial order over points: dominance, cover DAGs, up-sets.

A DominanceDag stores distinct points together with the transitive reduction
of the componentwise order (cover edges i -> j meaning node_i <= node_j with
nothing strictly between).  Up-sets -- subsets closed under following cover
edges forward -- are the feasible prediction sets of monotone classification.
Dominance only depends on the order within each coordinate, so the DAG is
built from dense integer ranks, which is exact for any mix of int, Fraction
and float coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _int_pair(edge) -> tuple:
    """``edge`` as a pair of Python ints; a pair that already is one is kept, not copied."""
    i, j = edge
    return edge if type(edge) is tuple and type(i) is int and type(j) is int else (int(i), int(j))


@dataclass(frozen=True)
class DominanceDag:
    """Distinct points plus transitively-reduced componentwise-order edges."""

    nodes: tuple
    cover_edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(map(tuple, self.nodes)))
        object.__setattr__(self, "cover_edges", tuple(map(_int_pair, self.cover_edges)))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def successors(self) -> tuple:
        succ = [[] for _ in range(self.n)]
        for i, j in self.cover_edges:
            succ[i].append(j)
        return tuple(tuple(s) for s in succ)

    @cached_property
    def successor_masks(self) -> tuple:
        masks = [0] * self.n
        for i, j in self.cover_edges:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def chain_order(self):
        """Indices ordered from least to greatest if the DAG is a total order, else None."""
        n = self.n
        if n <= 1:
            return tuple(range(n))
        nxt = dict(self.cover_edges)
        heads = set(nxt.values())
        # n - 1 edges, out- and in-degrees at most 1: the one node that is no head starts the walk
        if not len(self.cover_edges) == len(nxt) == len(heads) == n - 1:
            return None
        order = [next(i for i in range(n) if i not in heads)]
        while order[-1] in nxt:
            order.append(nxt[order[-1]])
        return tuple(order) if len(order) == n else None

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


def build_dag(points) -> DominanceDag:
    """Cover DAG of distinct points under the componentwise order.

    Transitive reduction removes every edge implied by a 2-path; reachability
    of the result equals the full dominance relation.
    """
    points = list(map(tuple, points))
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct (deduplicate before building)")
    dims = set(map(len, points))
    if len(dims) > 1:
        raise ValidationError(f"points have mixed dimensions: {sorted(dims)}")
    n = len(points)
    if n == 0:
        return DominanceDag((), ())
    if finite_array(chain.from_iterable(points), n * len(points[0])) is None:
        for p in points:
            for v in p:
                check_finite(v, "coordinate")
    # only the order within a coordinate matters: replace each column by dense ranks
    arr = rank_matrix(points)
    if dims == {1}:
        # distinct points on a line are a chain: each is covered by the next larger one,
        # and the cached chain order is seeded from the ranks instead of re-derived from the edges
        ranks = arr[:, 0]
        order = np.argsort(ranks)
        below_top = np.flatnonzero(ranks < n - 1)
        edges = zip(below_top.tolist(), order[ranks[below_top] + 1].tolist())
        dag = DominanceDag(tuple(points), tuple(edges))
        object.__setattr__(dag, "chain_order", tuple(order.tolist()))
        return dag
    strict = _below(arr, arr)
    np.fill_diagonal(strict, False)
    # 2-path counts are at most n, so float32 holds them exactly below 2**24
    step = strict.astype(np.float32)
    cover = strict & ~((step @ step) > 0.5)
    # np.nonzero walks in row-major order, so the edges come out sorted
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(cover))]
    return DominanceDag(tuple(points), tuple(edges))


def lattice_dag(orders) -> DominanceDag:
    """Cover DAG of the multi-index lattice {0..k_1} x ... x {0..k_d}.

    Nodes are multi-indices in row-major order (last coordinate fastest);
    cover edges are unit steps in a single coordinate.
    """
    orders = tuple(int(k) for k in orders)
    if any(k < 0 for k in orders):
        raise ValidationError("lattice orders must be nonnegative")
    shape = tuple(k + 1 for k in orders)
    flat = np.arange(math.prod(shape)).reshape(shape)
    # a unit step along axis v joins each index below k_v to the one a stride further on
    steps = [(flat.take(range(k), axis=v).ravel(), math.prod(shape[v + 1 :])) for v, k in enumerate(orders)]
    src = np.concatenate([tail for tail, _ in steps] + [np.zeros(0, dtype=int)])
    dst = np.concatenate([tail + stride for tail, stride in steps] + [np.zeros(0, dtype=int)])
    by_edge = np.lexsort((dst, src))
    nodes = tuple(product(*(range(size) for size in shape)))
    return DominanceDag(nodes, tuple(zip(src[by_edge].tolist(), dst[by_edge].tolist())))


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
