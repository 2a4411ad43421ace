"""Exact maximization of a linear objective over monotone [-1,1] vectors.

The problem  max sum c_i v_i  s.t.  v_i <= v_j on each cover edge i -> j and
-1 <= v_i <= 1  always attains its optimum at a +/-1 vertex whose +1-set is an
up-set of the DAG.  It therefore reduces to a maximum-weight up-set (closure)
problem, which ``solve`` answers on one of four paths, picked from the ranks
of the DAG's nodes:

* a chain (any dimension): one suffix scan;
* two dimensions, nodes that fill their rank grid (every 2-d lattice, and
  grid data): one dynamic program over the grid's rows, in numpy;
* other 2-d nodes: one sweep over the staircase that an up-set of 2-d points
  is, in O(n log n), without building cover edges;
* three or more: Picard's closure <=> min-cut reduction, by Dinic's max-flow
  on the cover edges.

All four work on integers: the coefficients are scaled once by their
common denominator, which is exact for int, Fraction and float input alike;
an int64 array of coefficients needs no scaling, and float coefficients are
scaled in numpy.  The chain scan and the grid program sum them with numpy, in
int64 when n * max|w| < 2**63 bounds every partial sum and as Python ints
otherwise; the other two use Python ints.
Among tied optima each path returns the inclusion-maximal up-set, the union
of all optimal ones: the longest optimal suffix, the smallest optimal row
or staircase thresholds, or the sink-unreachable side of the residual graph.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numeric import ValidationError, all_exact, check_finite, finite_array, is_exact
from .order import DEFAULT_NODE_LIMIT, DominanceDag, iter_up_set_masks


@dataclass(frozen=True)
class IsotoneProblem:
    """One coefficient per node of ``dag``.

    A 1-d numpy array of signed integers is kept as a read-only int64 copy,
    and one of floats with itemsize at most 8 as a read-only float64 copy;
    both are checked by their dtype, and the floats for finiteness in numpy.
    Any other ``coeffs`` is kept as a tuple (an object array's tuple holds its
    Python objects, a longdouble array's its numpy scalars, never rounded to
    float64), whose floats must be finite.
    """

    dag: DominanceDag
    coeffs: tuple

    def __post_init__(self):
        coeffs = self.coeffs
        kind = coeffs.dtype.kind if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1 else None
        if kind == "i" or (kind == "f" and coeffs.dtype.itemsize <= 8):
            coeffs = coeffs.astype(np.int64 if kind == "i" else np.float64)
            coeffs.flags.writeable = False
        else:
            coeffs = tuple(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.dag.n:
            raise ValidationError(f"{len(coeffs)} coefficients for {self.dag.n} nodes")
        if type(coeffs) is tuple:
            if finite_array(coeffs, len(coeffs)) is None:
                for i, c in enumerate(coeffs):
                    check_finite(c, f"coefficient {i}")
        elif coeffs.dtype.kind == "f" and not (finite := np.isfinite(coeffs)).all():
            i = int(np.argmin(finite))
            check_finite(coeffs[i].item(), f"coefficient {i}")


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


def _summable(weights) -> np.ndarray:
    """Integer ``weights`` (a list, an int64 or an object array) as an array to sum.

    int64 when n * max|w| < 2**63, which bounds every partial sum, else the
    same ints as Python objects; an object array stays one.
    """
    if not (isinstance(weights, np.ndarray) and weights.dtype == object):
        try:
            w = np.asarray(weights, dtype=np.int64)
            if not len(w) or len(w) * max(int(w.max()), -int(w.min())) < 1 << 63:
                return w
        except OverflowError:
            pass
    return np.asarray(weights, dtype=object)


def _chain_best_up_set(order: np.ndarray, weights):
    """Longest suffix of the chain ``order`` maximizing its weight (empty suffix allowed), that weight, and the total.

    The suffix sums are one ``np.cumsum`` over the ``_summable`` weights.
    """
    n = len(order)
    w = _summable(weights)
    # sums[k] is the weight of the suffix of length k
    sums = np.concatenate((np.zeros(1, w.dtype), np.cumsum(w[order[::-1]])))
    length = n - int(np.argmax(sums[::-1]))  # the last index of the maximum
    return order[n - length :], int(sums[length]), int(sums[n])


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


def _grid_best_up_set(dag: DominanceDag, weights):
    """Maximal maximum-weight up-set of 2-d nodes that fill their rank grid, that weight, and the total.

    On the (R, C) grid an up-set keeps the cells of row i = r1 with r2 >= t_i,
    for thresholds t_i that never increase with i.  Counting s = C - t cells
    from the right of each row, P_i(s) is the weight of row i's last s cells
    (one ``np.cumsum`` per row), and the best weight of rows 0..i with s_i = s
    is best_i(s) = P_i(s) + max over s' <= s of best_{i-1}(s'): one running
    maximum per row.  Backtracking from the last row, each row takes the
    largest maximizing s up to the next row's: the smallest optimal
    thresholds, so the union of all optimal up-sets.  Sums run over the
    ``_summable`` weights.
    """
    rows, cols = dag.grid_shape
    r1, r2 = dag.ranks.T
    w = _summable(weights)
    best = np.zeros((rows, cols + 1), w.dtype)
    best[r1, cols - r2] = w
    np.cumsum(best, axis=1, out=best)
    for i in range(1, rows):
        best[i] += np.maximum.accumulate(best[i - 1])
    kept = np.empty(rows, dtype=np.int64)
    s = cols
    for i in range(rows - 1, -1, -1):
        s -= int(np.argmax(best[i, s::-1]))  # the last maximum of best_i(0..s)
        kept[i] = s
    return np.flatnonzero(cols - r2 <= kept[r1]), int(best[-1, kept[-1]]), int(w.sum())


def _staircase_best_up_set(dag: DominanceDag, weights):
    """Maximal maximum-weight up-set of 2-d nodes, by one sweep over their staircase.

    Rows are the nodes in lexicographic rank order (r1, r2); an up-set keeps
    row k exactly when r2 >= t_k, for thresholds t_k that never increase with
    k.  Sweeping from the greatest row down, K(t) -- the best weight of the
    rows swept so far given a threshold <= t -- is nondecreasing, so it is
    kept as its positive increments delta(s), whose positions sit in a sorted
    list.  A row with r2 = c and weight w adds w to K on [0, c] and takes the
    prefix max: for w < 0 that is one increment delta(c + 1) += -w; for w > 0
    the next increments after c absorb w.  Replaying the log of position
    changes backwards, row k takes the largest increment position <= t_{k-1}
    (0 if none): the smallest optimal threshold, so the union of all optimal
    up-sets.
    """
    rows = dag.lex_order.tolist()
    level = dag.ranks[:, 1].tolist()
    top = max(level) + 1  # the threshold that keeps no row
    delta = [0] * (top + 1)
    pos, log = [], []
    for k in reversed(rows):
        w, c = weights[k], level[k]
        if w < 0:
            # a new position is logged as an int, to be removed on replay
            if not delta[c + 1]:
                insort(pos, c + 1)
                log.append(c + 1)
            else:
                log.append(None)
            delta[c + 1] -= w
        elif w > 0:
            i = j = bisect_right(pos, c)
            while w and j < len(pos):
                left = delta[pos[j]] - w
                if left > 0:
                    delta[pos[j]] = left
                    break
                w = -left
                delta[pos[j]] = 0
                j += 1
            # the positions used up are logged as a list, to be put back on replay
            log.append(pos[i:j])
            del pos[i:j]
        else:
            log.append(None)
    plus, t = [], top
    for k, change in zip(rows, reversed(log)):
        i = bisect_right(pos, t)
        t = pos[i - 1] if i else 0
        if level[k] >= t:
            plus.append(k)
        if type(change) is int:
            del pos[bisect_left(pos, change)]
        elif change:
            i = bisect_left(pos, change[0])
            pos[i:i] = change
    return plus


def _integer_weights(coeffs):
    """Coefficients times their common denominator, as ints; that denominator; and exactness.

    An int64 array (as ``IsotoneProblem`` keeps int coefficients) and ints
    pass through; a float64 array, or a tuple of floats alone, is scaled in
    numpy (``_scaled_floats``); any other mix goes through Fraction, numpy
    scalars included.  Each is exact for its type.
    """
    if isinstance(coeffs, np.ndarray):
        return (coeffs, 1, True) if coeffs.dtype.kind == "i" else _scaled_floats(coeffs)
    weights = list(coeffs)
    types = set(map(type, weights))
    if types <= {int}:
        return weights, 1, True
    if types == {float}:
        return _scaled_floats(np.array(weights))
    denominators, exact = set(), True
    for i, c in enumerate(weights):
        if type(c) is not int:
            exact = exact and is_exact(c)
            f = Fraction(c)
            weights[i] = (int(f.numerator), f.denominator)
            denominators.add(f.denominator)
    scale = math.lcm(*denominators)
    weights = [w * scale if type(w) is int else w[0] * (scale // w[1]) for w in weights]
    return weights, scale, exact


def _scaled_floats(coeffs: np.ndarray):
    """``_integer_weights`` of float64 coefficients: the ints ``Fraction`` gives, in numpy.

    Each float is m * 2**e with an odd int64 mantissa m, |m| < 2**53
    (``np.frexp``, then its trailing zero bits stripped; 0 is 0).  The scale
    is 2**-min(e, 0) over the nonzero floats, so float m * 2**e becomes
    m << (e + log2 scale): in int64 when each |m| * 2**shift < 2**62, else as
    Python ints in an object array.
    """
    fraction, exponent = np.frexp(coeffs)
    mantissa = np.ldexp(fraction, 53).astype(np.int64)
    nonzero = mantissa != 0
    # m & -m is the lowest set bit of m, a power of two that float holds exactly
    zeros = np.where(nonzero, np.frexp(mantissa & -mantissa)[1] - 1, 0)
    mantissa >>= zeros
    exponent = exponent + (zeros - 53)
    low = int(exponent.min(initial=0, where=nonzero))
    shift = np.where(nonzero, exponent - low, 0)
    if (np.frexp(np.abs(mantissa))[1] + shift <= 62).all():
        return mantissa << shift, 1 << -low, False
    return mantissa.astype(object) << shift.astype(object), 1 << -low, False


def _solution(n: int, plus_set, objective, exact: bool):
    """+/-1 values and the objective: exact, or the nearest float (+/-inf beyond float range)."""
    values = np.full(n, -1)
    values[plus_set if isinstance(plus_set, np.ndarray) else list(plus_set)] = 1
    if not exact:
        try:
            objective = float(objective)
        except OverflowError:
            objective = math.inf if objective > 0 else -math.inf
    return values.tolist(), objective


def solve(problem: IsotoneProblem):
    """Optimal +/-1 values and objective; +1-set is the maximal optimal up-set.

    The path follows the DAG: the suffix scan for a chain, the grid program
    for 2-d nodes that fill their rank grid, the staircase sweep for other
    2-d nodes and the min-cut in three or more dimensions.
    """
    weights, scale, exact = _integer_weights(problem.coeffs)
    dag = problem.dag
    if dag.is_chain:
        plus_set, plus_weight, total = _chain_best_up_set(dag.lex_order, weights)
    elif dag.dim == 2 and dag.grid_shape is not None:
        plus_set, plus_weight, total = _grid_best_up_set(dag, weights)
    else:
        if isinstance(weights, np.ndarray):
            weights = weights.tolist()
        best_up_set = _staircase_best_up_set if dag.dim == 2 else _min_cut_best_up_set
        plus_set = best_up_set(dag, weights)
        plus_weight, total = sum(map(weights.__getitem__, plus_set)), sum(weights)
    # sum c_i v_i = 2 * (weight of the +1-set) - (total weight)
    objective = Fraction(2 * plus_weight - total, scale)
    return _solution(dag.n, plus_set, objective, exact)


def brute_force_solve(problem: IsotoneProblem, node_limit: int = DEFAULT_NODE_LIMIT):
    """Oracle for solve: exhaustive up-set enumeration with the same tie-break."""
    coeffs = problem.coeffs.tolist() if isinstance(problem.coeffs, np.ndarray) else problem.coeffs
    # numpy integers as Python ints: Fraction would keep an int64 numerator, which overflows
    weights = [Fraction(int(c) if isinstance(c, numbers.Integral) else c) for c in coeffs]
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
    return _solution(problem.dag.n, plus_set, objective, all_exact(coeffs))
