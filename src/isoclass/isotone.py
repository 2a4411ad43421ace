"""Exact maximization of a linear objective over monotone [-1,1] vectors.

The problem  max sum c_i v_i  s.t.  v_i <= v_j on each cover edge i -> j and
-1 <= v_i <= 1  always attains its optimum at a +/-1 vertex whose +1-set is an
up-set of the DAG.  It therefore reduces to a maximum-weight up-set (closure)
problem, solved exactly: a suffix scan on chains, a min-cut otherwise.  Both
run on Python ints: the coefficients are scaled once by their common
denominator, which is exact for int, Fraction and float input alike.  Among
tied optima the inclusion-maximal up-set is returned (the union of all
optimal up-sets, realized by the sink-unreachable side of the residual graph).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from ._numeric import ValidationError, all_exact, check_finite, finite_array, is_exact
from .order import DEFAULT_NODE_LIMIT, DominanceDag, iter_up_set_masks


@dataclass(frozen=True)
class IsotoneProblem:
    dag: DominanceDag
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.dag.n:
            raise ValidationError(
                f"{len(self.coeffs)} coefficients for {self.dag.n} nodes"
            )
        if finite_array(self.coeffs, len(self.coeffs)) is None:
            for i, c in enumerate(self.coeffs):
                check_finite(c, f"coefficient {i}")


class _Dinic:
    """Max-flow with exact integer capacities."""

    def __init__(self, n: int):
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int):
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, ptr):
        """One augmenting path in the level graph (iterative DFS); 0 if none."""
        path = []
        u = s
        while True:
            if u == t:
                bottleneck = min(arc[1] for arc in path)
                for arc in path:
                    arc[1] -= bottleneck
                    self.adj[arc[0]][arc[2]][1] += bottleneck
                return bottleneck
            advanced = False
            while ptr[u] < len(self.adj[u]):
                arc = self.adj[u][ptr[u]]
                if arc[1] > 0 and level[arc[0]] == level[u] + 1:
                    path.append(arc)
                    u = arc[0]
                    advanced = True
                    break
                ptr[u] += 1
            if advanced:
                continue
            if not path:
                return 0
            # dead end: retreat and skip the exhausted arc
            u = path[-2][0] if len(path) >= 2 else s
            ptr[u] += 1
            path.pop()

    def max_flow(self, s: int, t: int):
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            ptr = [0] * len(self.adj)
            while True:
                pushed = self._augment(s, t, level, ptr)
                if pushed <= 0:
                    break
                flow += pushed

    def reaches_sink(self, t: int):
        """Nodes with a residual path to t (the minimal sink side of the cut)."""
        seen = [False] * len(self.adj)
        seen[t] = True
        queue = deque([t])
        while queue:
            w = queue.popleft()
            for x, _, rev in self.adj[w]:
                # residual capacity of the partner arc x -> w
                if not seen[x] and self.adj[x][rev][1] > 0:
                    seen[x] = True
                    queue.append(x)
        return seen


def _chain_best_up_set(order, weights):
    """Longest suffix of the chain maximizing its weight (empty suffix allowed)."""
    best_sum = 0
    best_pos = len(order)
    running = 0
    for pos in range(len(order) - 1, -1, -1):
        running += weights[order[pos]]
        if running >= best_sum:
            best_sum, best_pos = running, pos
    return set(order[best_pos:])


def _min_cut_best_up_set(dag: DominanceDag, weights):
    n = dag.n
    source, sink = n, n + 1
    net = _Dinic(n + 2)
    total_pos = sum(w for w in weights if w > 0)
    infinite = total_pos + 1
    for i, w in enumerate(weights):
        if w > 0:
            net.add_edge(source, i, w)
        elif w < 0:
            net.add_edge(i, sink, -w)
    for i, j in dag.cover_edges:
        net.add_edge(i, j, infinite)
    net.max_flow(source, sink)
    sink_side = net.reaches_sink(sink)
    return {i for i in range(n) if not sink_side[i]}


def _integer_weights(coeffs):
    """Coefficients times their common denominator, as ints; that denominator; and exactness.

    Ints pass through; any other coefficient goes through Fraction, exact for each type.
    """
    weights, denominators, exact = list(coeffs), set(), True
    for i, c in enumerate(weights):
        if type(c) is not int:
            exact = exact and is_exact(c)
            weights[i] = f = Fraction(c)
            denominators.add(f.denominator)
    scale = math.lcm(*denominators)
    if scale > 1:
        weights = [w.numerator * (scale // w.denominator) for w in weights]
    return weights, scale, exact


def _solution(n: int, plus_set, objective, exact: bool):
    values = [-1] * n
    for i in plus_set:
        values[i] = 1
    return values, (objective if exact else float(objective))


def solve(problem: IsotoneProblem):
    """Optimal +/-1 values and objective; +1-set is the maximal optimal up-set."""
    weights, scale, exact = _integer_weights(problem.coeffs)
    order = problem.dag.chain_order
    if order is not None:
        plus_set = _chain_best_up_set(order, weights)
    else:
        plus_set = _min_cut_best_up_set(problem.dag, weights)
    # sum c_i v_i = 2 * (weight of the +1-set) - (total weight)
    objective = Fraction(2 * sum(weights[i] for i in plus_set) - sum(weights), scale)
    return _solution(problem.dag.n, plus_set, objective, exact)


def brute_force_solve(problem: IsotoneProblem, node_limit: int = DEFAULT_NODE_LIMIT):
    """Oracle for solve: exhaustive up-set enumeration with the same tie-break."""
    weights = [Fraction(c) for c in problem.coeffs]
    best_weight = None
    union_mask = 0
    for mask in iter_up_set_masks(problem.dag, node_limit):
        w = Fraction(0)
        probe = mask
        while probe:
            i = (probe & -probe).bit_length() - 1
            w += weights[i]
            probe &= probe - 1
        if best_weight is None or w > best_weight:
            best_weight, union_mask = w, mask
        elif w == best_weight:
            union_mask |= mask
    plus_set = {i for i in range(problem.dag.n) if union_mask >> i & 1}
    objective = 2 * best_weight - sum(weights, Fraction(0))
    return _solution(problem.dag.n, plus_set, objective, all_exact(problem.coeffs))
