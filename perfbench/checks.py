"""Independent output checks.

None of this calls into isoclass: dominance, up-sets, the max-closure
optimum, Bernstein values and the 2-d lattice optimum are recomputed here
with numpy and networkx, so a wrong answer from the library cannot pass by
agreeing with itself.  Every check raises ``CheckFailed`` on a mismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx
import numpy as np

_BLOCK = 512


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def to_ints(values, scale: int) -> np.ndarray:
    """Exact rationals times ``scale``; every product must be an integer."""
    out = []
    for v in values:
        scaled = Fraction(v) * scale
        require(scaled.denominator == 1, f"{v} is not a multiple of 1/{scale}")
        out.append(int(scaled))
    return np.asarray(out, dtype=np.int64)


def dominated_by_any(queries: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """For each query row q: is q <= t componentwise for some row t of ``tops``?"""
    hit = np.zeros(len(queries), dtype=bool)
    if len(tops) == 0:
        return hit
    for start in range(0, len(queries), _BLOCK):
        block = queries[start : start + _BLOCK]
        hit[start : start + _BLOCK] = (block[:, None, :] <= tops[None, :, :]).all(axis=2).any(axis=1)
    return hit


def check_up_set(coords: np.ndarray, values: np.ndarray) -> None:
    """The +1 points must form an up-set: no +1 point lies below a -1 point."""
    plus, minus = coords[values > 0], coords[values < 0]
    bad = int(dominated_by_any(plus, minus).sum())
    require(bad == 0, f"{bad} fitted +1 points lie below a fitted -1 point")


def cover_edges(coords: np.ndarray):
    """Transitive reduction of the strict componentwise order on distinct points."""
    n = len(coords)
    strict = (coords[:, None, :] <= coords[None, :, :]).all(axis=2)
    np.fill_diagonal(strict, False)
    as_float = strict.astype(np.float32)
    edges = []
    for start in range(0, n, _BLOCK):
        implied = (as_float[start : start + _BLOCK] @ as_float) > 0.5
        rows, cols = np.nonzero(strict[start : start + _BLOCK] & ~implied)
        edges.extend(zip((rows + start).tolist(), cols.tolist()))
    return edges


def max_closure_objective(coords: np.ndarray, coeffs):
    """max sum c_i v_i over v in {-1,+1}^n monotone in the order (Picard's min-cut).

    ``coeffs`` are Python ints; the optimum is 2 W - sum(c), where W is the
    weight of a maximum-weight up-set and W = sum(c > 0) - min cut.  Returns
    the optimum and the number of cover edges.
    """
    graph = nx.DiGraph()
    source, sink = "s", "t"
    graph.add_node(source)
    graph.add_node(sink)
    for i, c in enumerate(coeffs):
        if c > 0:
            graph.add_edge(source, i, capacity=c)
        elif c < 0:
            graph.add_edge(i, sink, capacity=-c)
    # edges without a capacity attribute are infinite in networkx
    edges = cover_edges(coords)
    graph.add_edges_from(edges)
    cut, _ = nx.minimum_cut(graph, source, sink)
    best_weight = sum(c for c in coeffs if c > 0) - cut
    return 2 * best_weight - sum(coeffs), len(edges)


def check_monotone_fit(coords: np.ndarray, coeffs, values: np.ndarray) -> int:
    """Up-set property and optimality of a fitted +/-1 vector; returns the cover edge count."""
    check_up_set(coords, values)
    got = sum(c * int(v) for c, v in zip(coeffs, values))
    want, edges = max_closure_objective(coords, coeffs)
    require(got == want, f"fit objective {got} differs from the max-closure optimum {want}")
    return edges


def bernstein_basis(k: int, xs: np.ndarray) -> np.ndarray:
    col = np.asarray(xs, dtype=float)[:, None]
    j = np.arange(k + 1)[None, :]
    comb = np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
    return comb * col**j * (1.0 - col) ** (k - j)


def bernstein_values(orders, theta: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """B(theta, x) for 1-d or 2-d models by basis contraction."""
    if len(orders) == 1:
        return bernstein_basis(orders[0], pts[:, 0]) @ theta
    grid = theta.reshape(orders[0] + 1, orders[1] + 1)
    b1 = bernstein_basis(orders[0], pts[:, 0])
    b2 = bernstein_basis(orders[1], pts[:, 1])
    return ((b1 @ grid) * b2).sum(axis=1)


def lattice_coefficients(orders, pts: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """Objective coefficient per lattice node: sum_i s_i b_{k1 j1}(x_i1) b_{k2 j2}(x_i2)."""
    b1 = bernstein_basis(orders[0], pts[:, 0])
    b2 = bernstein_basis(orders[1], pts[:, 1])
    return b1.T @ (signed[:, None] * b2)


def staircase_best_up_set_weight(coeff: np.ndarray) -> float:
    """Maximum total coefficient over up-sets of the 2-d lattice {0..a} x {0..b}.

    An up-set meets row i in a suffix {j >= t_i}, with t_i non-increasing in
    i; a dynamic program over rows with a running suffix maximum finds it.
    """
    rows, cols = coeff.shape
    suffix = np.zeros((rows, cols + 1))
    suffix[:, :cols] = np.cumsum(coeff[:, ::-1], axis=1)[:, ::-1]
    best = suffix[0]
    for i in range(1, rows):
        best = suffix[i] + np.maximum.accumulate(best[::-1])[::-1]
    return float(best.max())


def check_lattice_fit(orders, theta: np.ndarray, pts: np.ndarray, signed: np.ndarray) -> None:
    """Binarized theta is lattice-monotone and attains the lattice optimum."""
    grid = theta.reshape(orders[0] + 1, orders[1] + 1)
    require(np.isin(grid, (-1.0, 1.0)).all(), "theta is not binarized to +/-1")
    require((np.diff(grid, axis=0) >= 0).all() and (np.diff(grid, axis=1) >= 0).all(),
            "theta is not monotone along the lattice")
    coeff = lattice_coefficients(orders, pts, signed)
    got = float((coeff * grid).sum())
    want = 2.0 * staircase_best_up_set_weight(coeff) - float(coeff.sum())
    tol = 1e-9 * max(1.0, float(np.abs(coeff).sum()))
    require(abs(got - want) <= tol, f"sieve objective {got} differs from the lattice optimum {want}")


def check_bernstein_labels(orders, theta: np.ndarray, pts: np.ndarray, labels) -> None:
    values = bernstein_values(orders, theta, pts)
    want = np.where(values >= 0, 1, -1)
    decided = np.abs(values) > 1e-9
    bad = int((np.asarray(labels)[decided] != want[decided]).sum())
    require(bad == 0, f"{bad} Bernstein labels differ from the basis contraction")


def bernstein_threshold_1d(k: int, theta: np.ndarray) -> float:
    """Left end a of the prediction set (a, 1] of a monotone 1-d sieve, by bisection."""
    def value(x):
        return float((bernstein_basis(k, np.array([x])) @ theta)[0])

    if value(0.0) >= 0.0:
        return 0.0
    if value(1.0) < 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if value(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
