import gc
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from helpers import random_distinct_points

from isoclass import ValidationError, build_dag, dominates, enumerate_up_sets, lattice_dag
from isoclass.order import DominanceDag
from isoclass._numeric import WIDE, exact_column
from isoclass.order import dense_ranks, lex_argsort, up_set_matrix


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
    # equal values of different types are one point; duplicates need not be neighbours
    for pts in ([(0, 0), (0, 0)], [(1,), (1.0,)], [(Fraction(1),), (2,), (1.0,)],
                [(0.0,), (-0.0,)], [(3, Fraction(1, 2)), (1, 2), (3.0, 0.5)],
                [(0, 1, 2), (2, 1, 0), (1, 1, 1), (2.0, Fraction(1), 0)],
                [(0, 1), (0, 0), (0, 1.0)]):
        with pytest.raises(ValidationError):
            build_dag(pts)
        with pytest.raises(ValidationError):
            build_dag(pts[::-1])
    assert build_dag([(1,), (1.5,)]).n == 2


def test_build_dag_without_ranks_checks_its_points():
    # only fit passes ranks, for a validated sample; every other caller's points are checked
    bad = (
        ([(0.0,), (math.nan,)], "finite"),
        ([(0, 1), (math.inf, 2)], "finite"),
        ([(0, 1), (2,)], "mixed dimensions"),
        ([(0,), (1, 2), (3,)], "mixed dimensions"),
        ([(0, 1), (Fraction(1, 2), 1), (0.0, 1.0)], "distinct"),
    )
    for pts, message in bad:
        for given in (pts, tuple(pts), iter(pts), [list(p) for p in pts]):
            with pytest.raises(ValidationError, match=message):
                build_dag(given)
    dag = build_dag([[1, 2], (0, Fraction(1, 2))])
    assert dag.nodes == ((1, 2), (0, Fraction(1, 2))) and all(type(p) is tuple for p in dag.nodes)


def test_lex_order_is_the_sorted_order_of_the_nodes():
    # nodes come sorted, reversed, shuffled, or sorted on the first coordinate alone, where
    # later coordinates fall within ties; there are 0 to 30 of them, and diagonals are chains
    rng = random.Random(53)
    clouds = [random_distinct_points(rng, n, rng.randint(1, 3), grid=3) for n in [0, 1, 1] + [rng.randint(2, 30) for _ in range(60)]]
    clouds += [[(i,) * d for i in range(n)] for d in (1, 2, 3) for n in (2, 7)]
    for pts in clouds:
        shuffled = rng.sample(pts, len(pts))
        for nodes in (pts, pts[::-1], shuffled, sorted(shuffled, key=lambda p: p[0])):
            dag = build_dag(nodes)
            assert [nodes[i] for i in dag.lex_order.tolist()] == pts
            assert dag.lex_order.tolist() == (np.lexsort(dag.ranks.T[::-1]).tolist() if nodes else [])
            chain = all(dominates(p, q) or dominates(q, p) for p in nodes for q in nodes)
            assert dag.is_chain is chain
            assert dag.chain_order == (tuple(dag.lex_order.tolist()) if chain else None)
            if nodes:
                # one node twice, anywhere, is refused
                tied = list(nodes)
                tied.insert(rng.randint(0, len(nodes)), rng.choice(nodes))
                with pytest.raises(ValidationError) as caught:
                    build_dag(tied)
                assert str(caught.value) == "points must be distinct (deduplicate before building)"


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
    assert len(up_set_matrix(dag, node_limit=16)) == 17


def test_up_set_matrix_rows_are_the_up_set_masks_in_order():
    # node i is bit i: the rows are the masks of range(2**n) that is_up_set accepts, in that order
    rng = random.Random(26)
    for _ in range(50):
        dag = build_dag(random_distinct_points(rng, rng.randint(0, 12), rng.randint(1, 3), grid=rng.choice((3, 4, 12))))
        n = dag.n
        want = [mask for mask in range(2**n) if dag.is_up_set([mask >> i & 1 for i in range(n)])]
        members = up_set_matrix(dag, node_limit=12)
        assert members.dtype == bool and members.shape == (len(want), n)
        assert [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in members] == want


def test_up_set_matrix_grows_with_the_up_sets_not_with_2_to_the_n():
    # a 40-node chain has 41 up-sets, its suffixes, shortest first
    members = up_set_matrix(build_dag([(i,) for i in range(40)]), node_limit=40)
    assert members.shape == (41, 40)
    assert (members == (np.arange(40) >= 40 - np.arange(41)[:, None])).all()
    with pytest.raises(ValidationError, match="^up-set enumeration refused: 16 nodes exceeds the limit of 15$"):
        up_set_matrix(build_dag([(i,) for i in range(16)]))


def test_lattice_dag_matches_build_dag():
    lat = lattice_dag((2, 1))
    assert "nodes" not in lat.__dict__  # built on first read
    direct = build_dag(list(lat.nodes))
    assert set(lat.cover_edges) == set(direct.cover_edges)
    assert lat.nodes[0] == (0, 0)
    assert lat.nodes[-1] == (2, 1)
    # row-major nodes and sorted edges, as build_dag gives them for the same nodes
    for orders in ((0,), (3,), (2, 0), (1, 3), (2, 1, 3), (1, 0, 2, 1)):
        lat = lattice_dag(orders)
        assert lat.nodes == tuple(product(*(range(k + 1) for k in orders)))
        # the nodes are the lattice's rank tuples, of Python ints
        assert all(type(p) is tuple and all(type(v) is int for v in p) for p in lat.nodes)
        assert lat.cover_edges == build_dag(list(lat.nodes)).cover_edges


@pytest.mark.parametrize("orders", [(2.7,), (True,), (2, 1.0), ("3",)])
def test_lattice_dag_refuses_orders_that_are_not_integers(orders):
    # int() built order 2 from 2.7 and order 1 from True
    with pytest.raises(ValidationError, match="lattice orders must be integers"):
        lattice_dag(orders)
    assert lattice_dag((np.int64(2),)).n == 3


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


def _ranks(column):
    """The ranks of ``dense_ranks``, checked to come with an order that sorts them."""
    ranks, order = dense_ranks(column)
    assert sorted(order.tolist()) == list(range(len(ranks))) and (np.diff(ranks[order]) >= 0).all()
    return ranks


def _rank_oracle(column):
    rank = {v: r for r, v in enumerate(sorted(set(column)))}
    return [rank[v] for v in column]


def test_dense_ranks_of_int_and_fraction_columns_equal_a_sorted_set_oracle():
    rng = random.Random(41)
    near = 1 << 62
    # every key fits int64: one common denominator per pool, numerators up to about 2**62
    fitting = (
        (0, 1, -1, 2, -7, 10**12, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(0), Fraction(4, 2)),
        (near, -near, near - 1, 1 - near, 0, Fraction(near), Fraction(3 - near)),
        (Fraction(near + 1, 3), Fraction(-near - 1, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(0, 3)),
        (2**63 - 1, -(2**63), 0, 1, -1),
    )
    # the lcm of the denominators times a numerator, or the lcm itself, leaves int64
    leaving = (
        (near, Fraction(1, 3), 0, -1),
        (Fraction(near + 1, 3), Fraction(1, 2), Fraction(-1, 6)),
        (2**63, 0, 1),
        (-(2**63) - 1, 0, 1),
        (Fraction(1, 999983), Fraction(2, 999979), Fraction(-3, 999961), Fraction(4, 999959), Fraction(5, 999953)),
    )
    for pools, fits in ((fitting, True), (leaving, False)):
        for pool in pools:
            for n in (0, 1, 2, 5, 30):
                column = [rng.choice(pool) for _ in range(n)]
                ranks = _ranks(column)
                assert ranks.dtype == np.int64 and ranks.shape == (n,)
                assert ranks.tolist() == _rank_oracle(column)
            full = list(pool) * 2
            rng.shuffle(full)
            assert _ranks(full).tolist() == _rank_oracle(full)
            # every pool's common denominator stays below 2**128: the reader keeps common numerators,
            # in int64 or not, and ranks them as the values rank
            numerators, den = exact_column(full, WIDE)
            assert den < WIDE and (numerators.dtype == np.int64) == fits
            assert _ranks(numerators).tolist() == _rank_oracle(full)


def test_dense_ranks_of_other_types_take_the_exact_sort():
    columns = (
        [True, 0, 1, Fraction(1, 2), False],
        [np.int64(3), 1, 2, Fraction(5, 2), 3],
        [0.5, Fraction(1, 2), Fraction(1, 3), 2, 0.25],
        [Fraction(1, 3), 1.0, 1, -0.0, 0],
    )
    for column in columns:
        for trial in range(6):
            shuffled = random.Random(trial).sample(column, len(column))
            assert _ranks(shuffled).tolist() == _rank_oracle(shuffled)
            assert _ranks(exact_column(shuffled, WIDE)[0]).tolist() == _rank_oracle(shuffled)
    floats = [0.5, -0.0, 0.0, 2.5, 0.5]
    assert _ranks(floats).tolist() == _rank_oracle(floats)


def test_dense_ranks_of_long_decimals_sorts_integer_keys():
    # decimals written as a float's repr carry up to 17 significant digits: their common
    # denominator leaves int64 but stays below 2**128, so they rank on Python-int keys
    rng = random.Random(67)
    for trial in range(40):
        n = rng.choice((1, 2, 7, 200))
        column = [Fraction(repr(rng.uniform(-5, 5) / 10 ** rng.randint(0, 4))) for _ in range(n)]
        column += [rng.choice(column) for _ in range(n // 2)] + [rng.choice((-5, 5)), Fraction("1e-19")]
        rng.shuffle(column)
        numerators, den = exact_column(column, WIDE)
        assert numerators.dtype == object and den < WIDE and len(numerators) == len(column)
        assert max(map(abs, numerators.tolist())) >= 2**63
        assert _ranks(numerators).tolist() == _ranks(column).tolist() == _rank_oracle(column)
        # the same values beside one float, taken exactly, rank alike
        mixed = column + [0.5]
        assert _ranks(exact_column(mixed, WIDE)[0]).tolist() == _ranks(mixed).tolist() == _rank_oracle(mixed)
    # a common denominator of 2**128 or more: the values are kept as Fractions over 1
    wide = [Fraction(1, 2**127), Fraction(1, 3), Fraction(-1, 5)]
    numerators, den = exact_column(wide, WIDE)
    assert den == 1 and numerators.tolist() == wide
    assert _ranks(numerators).tolist() == _rank_oracle(wide) == [1, 2, 0]


def test_dense_ranks_gives_up_on_a_growing_common_denominator_early(monkeypatch):
    # random 6-digit denominators: their lcm reaches 2**128 after a few of them,
    # so ranking must cost about what the exact sort costs (not an lcm of 10**4 of them)
    rng = random.Random(59)
    column = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(10**5, 10**6 - 1)) for _ in range(10**4)]
    steps, lcm = [], math.lcm
    monkeypatch.setattr(math, "lcm", lambda a, b: steps.append(b) or lcm(a, b))
    numerators, den = exact_column(column, WIDE)
    assert den == 1 and numerators.tolist() == column
    assert len(steps) <= 10
    monkeypatch.undo()

    def best_of_five(run):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    def rank():
        return dense_ranks(exact_column(column, WIDE)[0])[0]

    assert rank().tolist() == _rank_oracle(column)
    gc.disable()
    try:
        assert best_of_five(rank) < 2 * best_of_five(lambda: _rank_oracle(column))
    finally:
        gc.enable()


def test_lex_argsort_equals_lexsort_on_both_sides_of_the_int64_key():
    rng = np.random.default_rng(433)
    sides = set()
    for trial in range(200):
        d = 1 + trial % 4
        n = int(rng.integers(1, 300))
        if trial % 2:
            # ranks in [0, k) with k^d * n near 2**63, so the mixed-radix key just fits or leaves int64
            k = int(round((2**63 / n) ** (1 / d))) + int(rng.integers(-2, 3))
            ranks = rng.integers(0, k, size=(n, d), dtype=np.int64)
            ranks[rng.integers(n), :] = k - 1  # the column sizes are k
        else:
            # few distinct rows, many repeats: equal rows must keep their index order
            ranks = rng.integers(0, 3, size=(n, d), dtype=np.int64)
        sizes = (ranks.max(axis=0) + 1).tolist()
        sides.add(math.prod(sizes) * n < 2**63)
        assert lex_argsort(ranks).tolist() == np.lexsort(ranks.T[::-1]).tolist()
    assert sides == {True, False}
    assert lex_argsort(np.zeros((0, 2), dtype=np.int64)).tolist() == []


def test_dense_ranks_equal_those_of_np_unique_with_the_order_that_sorts_the_column():
    rng = np.random.default_rng(29)
    for n in (0, 1, 2, 7, 500):
        floats = np.round(rng.normal(size=n), 1)
        floats[rng.random(n) < 0.2] = -0.0
        columns = (
            rng.random(n),
            floats,
            rng.integers(-5, 5, n),
            rng.integers(-(2**62), 2**62, n),
            np.array([2**70 + int(k) for k in rng.integers(-3, 3, n)], dtype=object),
            np.array([Fraction(int(k), 3) for k in rng.integers(-4, 4, n)], dtype=object),
        )
        for column in columns:
            ranks, order = dense_ranks(column)
            assert ranks.dtype == np.int64 and ranks.tolist() == np.unique(column, return_inverse=True)[1].tolist()
            assert sorted(order.tolist()) == list(range(n)) and (np.diff(ranks[order]) >= 0).all()
