import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_distinct_points

from isoclass import ValidationError, build_dag, dominates, enumerate_up_sets, lattice_dag
from isoclass.order import DominanceDag
from isoclass.order import iter_up_set_masks


def test_dominates_basics():
    assert dominates((0, 0), (1, 1))
    assert not dominates((0, 1), (1, 0))
    assert not dominates((1, 0), (0, 1))
    assert dominates((2, 3), (2, 3))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValidationError):
        dominates((0,), (0, 1))


def test_build_dag_chain():
    dag = build_dag([(0,), (1,), (2,)])
    assert dag.cover_edges == ((0, 1), (1, 2))
    assert dag.chain_order == (0, 1, 2)


def test_build_dag_antichain():
    dag = build_dag([(0, 1), (1, 0)])
    assert dag.cover_edges == ()
    assert dag.chain_order is None


def test_build_dag_square_removes_diagonal():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    dag = build_dag(pts)
    assert len(dag.cover_edges) == 4
    assert (0, 3) not in dag.cover_edges  # implied by the two-step paths


def test_build_dag_rejects_duplicates():
    with pytest.raises(ValidationError):
        build_dag([(0, 0), (0, 0)])


def test_build_dag_handles_rational_coordinates():
    pts = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 4))]
    dag = build_dag(pts)
    assert (0, 1) in dag.cover_edges
    assert all(dominates(dag.nodes[i], dag.nodes[j]) for i, j in dag.cover_edges)


def _reachable(dag, start):
    successors = [[] for _ in range(dag.n)]
    for i, j in dag.cover_edges:
        successors[i].append(j)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in successors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def test_reachability_equals_dominance_on_random_clouds():
    rng = random.Random(41)
    # coordinate values: small ints; Fraction beside an equal float; ints past 2**53
    mixed = (0, Fraction(1, 3), Fraction(1, 2), 0.5, 0.75, 1)
    huge = (-(2**60), 2**60, 2**60 + 1, 2**60 + 2)
    for values in (range(4), mixed, huge):
        for _ in range(40):
            d = rng.randint(1, 4)
            grid = random_distinct_points(rng, rng.randint(1, 50), d, grid=len(values))
            # equal values of different types make equal points: keep the first
            pts = list(dict.fromkeys(tuple(values[k] for k in p) for p in grid))
            dag = build_dag(pts)
            for i in range(len(pts)):
                reach = _reachable(dag, i)
                for j in range(len(pts)):
                    assert (j in reach) == dominates(pts[i], pts[j])


def test_build_dag_chain_order_agrees_with_cover_edges_on_mixed_input():
    rng = random.Random(43)
    values = (-(10**400), -3, Fraction(-5, 2), -0.25, 0, Fraction(1, 3), 0.5, 2, 2**60 + 1, 10**400)
    for _ in range(30):
        pts = [(v,) for v in rng.sample(values, rng.randint(1, len(values)))]
        dag = build_dag(pts)
        # the order found from the ranks walks the edges computed from them,
        # also on a DAG that ranks its nodes itself
        rebuilt = DominanceDag(dag.nodes)
        assert dag.chain_order == rebuilt.chain_order
        assert sorted(zip(dag.chain_order, dag.chain_order[1:])) == list(rebuilt.cover_edges)
        assert rebuilt.cover_edges == dag.cover_edges
        assert [dag.nodes[i][0] for i in dag.chain_order] == sorted(p[0] for p in pts)
        assert list(dag.cover_edges) == sorted(dag.cover_edges)


def test_build_dag_rejects_non_finite_coordinates():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            build_dag([(0,), (bad,)])
        with pytest.raises(ValidationError):
            build_dag([(0, 0), (bad, 1)])


def test_up_set_count_chain_and_antichain():
    chain = build_dag([(i,) for i in range(6)])
    assert sum(1 for _ in enumerate_up_sets(chain)) == 7
    anti = build_dag([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sum(1 for _ in enumerate_up_sets(anti)) == 8


def test_up_sets_of_empty_dag():
    dag = build_dag([])
    assert [g.members for g in enumerate_up_sets(dag)] == [()]


def test_chain_up_sets_are_suffixes():
    dag = build_dag([(0,), (1,), (2,)])
    got = sorted(g.indices for g in enumerate_up_sets(dag))
    assert got == [(), (0, 1, 2), (1, 2), (2,)]


def test_every_enumerated_set_passes_membership_check():
    rng = random.Random(4)
    for _ in range(25):
        pts = random_distinct_points(rng, rng.randint(1, 8), rng.randint(1, 3))
        dag = build_dag(pts)
        seen = set()
        for g in enumerate_up_sets(dag):
            assert dag.is_up_set(g.members)
            assert g.members not in seen
            seen.add(g.members)


def test_enumeration_refuses_large_inputs():
    dag = build_dag([(i,) for i in range(16)])
    with pytest.raises(ValidationError):
        list(enumerate_up_sets(dag))
    assert len(list(iter_up_set_masks(dag, node_limit=16))) == 17


def test_lattice_dag_matches_build_dag():
    lat = lattice_dag((2, 1))
    direct = build_dag(list(lat.nodes))
    assert set(lat.cover_edges) == set(direct.cover_edges)
    assert lat.nodes[0] == (0, 0)
    assert lat.nodes[-1] == (2, 1)
    # row-major nodes and sorted edges, as build_dag gives them for the same nodes
    for orders in ((0,), (3,), (2, 0), (1, 3), (2, 1, 3), (1, 0, 2, 1)):
        lat = lattice_dag(orders)
        assert lat.nodes == tuple(product(*(range(k + 1) for k in orders)))
        assert lat.cover_edges == build_dag(list(lat.nodes)).cover_edges


def test_lattice_dag_one_dimension_is_chain():
    lat = lattice_dag((4,))
    assert lat.chain_order == tuple(range(5))


def _brute_cover_edges(pts):
    """Pairs p_i < p_j with no point strictly between, straight from the definition."""
    below = [[i != j and dominates(p, q) for j, q in enumerate(pts)] for i, p in enumerate(pts)]
    n = len(pts)
    return [(i, j) for i in range(n) for j in range(n)
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))]


def test_cover_edges_equal_the_definition_on_clouds_grids_and_lattices():
    rng = random.Random(47)
    clouds = [random_distinct_points(rng, rng.randint(2, 40), rng.randint(1, 3), grid=4) for _ in range(30)]
    # whole grids in shuffled order, on unevenly spaced values, take the unit-step path
    grids = [list(product((0, Fraction(1, 3), 2.5), (-1, 7))), list(product(range(3), range(2), range(2)))]
    for pts in clouds + grids:
        rng.shuffle(pts)
        assert list(build_dag(pts).cover_edges) == _brute_cover_edges(pts)
    for orders in ((3,), (2, 3), (1, 2, 2)):
        lat = lattice_dag(orders)
        assert list(lat.cover_edges) == _brute_cover_edges(lat.nodes)
