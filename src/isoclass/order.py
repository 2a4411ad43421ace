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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import ValidationError, check_finite
from .risks import PredictionSet

DEFAULT_NODE_LIMIT = 15


def dominates(a, b) -> bool:
    """True iff a <= b componentwise (ties by exact equality)."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValidationError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class DominanceDag:
    """Distinct points plus transitively-reduced componentwise-order edges."""

    nodes: tuple
    cover_edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(tuple(p) for p in self.nodes))
        object.__setattr__(self, "cover_edges", tuple((int(i), int(j)) for i, j in self.cover_edges))

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
        if len(self.cover_edges) != n - 1:
            return None
        out_deg = [0] * n
        in_deg = [0] * n
        nxt = [-1] * n
        for i, j in self.cover_edges:
            out_deg[i] += 1
            in_deg[j] += 1
            nxt[i] = j
        if any(d > 1 for d in out_deg) or any(d > 1 for d in in_deg):
            return None
        sources = [i for i in range(n) if in_deg[i] == 0]
        if len(sources) != 1:
            return None
        order = [sources[0]]
        while nxt[order[-1]] != -1:
            order.append(nxt[order[-1]])
        return tuple(order) if len(order) == n else None

    def is_up_set(self, members) -> bool:
        """Independent membership check: i in S and i -> j implies j in S."""
        flags = tuple(bool(m) for m in members)
        if len(flags) != self.n:
            raise ValidationError("membership vector length mismatch")
        return all(flags[j] for i, j in self.cover_edges if flags[i])


def build_dag(points) -> DominanceDag:
    """Cover DAG of distinct points under the componentwise order.

    Transitive reduction removes every edge implied by a 2-path; reachability
    of the result equals the full dominance relation.
    """
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct (deduplicate before building)")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise ValidationError(f"points have mixed dimensions: {sorted(dims)}")
    n = len(points)
    if n == 0:
        return DominanceDag((), ())
    for p in points:
        for v in p:
            check_finite(v, "coordinate")
    if dims == {1}:
        # one dimension is a total order: consecutive sorted points cover each other
        ranked = sorted(range(n), key=lambda i: points[i][0])
        edges = sorted((ranked[t], ranked[t + 1]) for t in range(n - 1))
        return DominanceDag(tuple(points), tuple(edges))
    # only the order within a coordinate matters: replace each column by dense ranks
    ranks = []
    for col in zip(*points):
        rank = {v: r for r, v in enumerate(sorted(set(col)))}
        ranks.append([rank[v] for v in col])
    arr = np.asarray(ranks, dtype=np.int64).T
    strict = (arr[:, None, :] <= arr[None, :, :]).all(axis=-1)
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
    d = len(orders)
    shape = tuple(k + 1 for k in orders)
    strides = [1] * d
    for v in range(d - 2, -1, -1):
        strides[v] = strides[v + 1] * shape[v + 1]
    nodes = []
    edges = []
    idx = [0] * d

    def flat(ix) -> int:
        return sum(ix[v] * strides[v] for v in range(d))

    total = 1
    for s in shape:
        total *= s
    for _ in range(total):
        nodes.append(tuple(idx))
        here = flat(idx)
        for v in range(d):
            if idx[v] < orders[v]:
                edges.append((here, here + strides[v]))
        for v in range(d - 1, -1, -1):
            idx[v] += 1
            if idx[v] <= orders[v]:
                break
            idx[v] = 0
    edges.sort()
    return DominanceDag(tuple(nodes), tuple(edges))


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
