import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from helpers import random_distinct_points

from isoclass import (
    IsotoneProblem,
    ValidationError,
    brute_force_solve,
    build_dag,
    lattice_dag,
    solve,
)
from isoclass.isotone import _chain_best_up_set, _integer_weights


def chain(n):
    return build_dag([(i,) for i in range(n)])


def test_solve_unconstrained_optimum_feasible():
    values, objective = solve(IsotoneProblem(chain(2), (-1, 1)))
    assert values == [-1, 1]
    assert objective == 2


def test_solve_tied_optima_return_maximal_set():
    values, objective = solve(IsotoneProblem(chain(2), (1, -1)))
    assert values == [1, 1]
    assert objective == 0


def test_solve_antichain_independent_signs():
    dag = build_dag([(0, 1), (1, 0)])
    values, objective = solve(IsotoneProblem(dag, (3, -2)))
    assert values == [1, -1]
    assert objective == 5


def test_single_negative_node():
    values, objective = solve(IsotoneProblem(build_dag([(0,)]), (-5,)))
    assert values == [-1]
    assert objective == 5


def test_all_zero_coefficients_return_full_support():
    dag = build_dag([(0, 0), (0, 1), (1, 1)])
    values, objective = solve(IsotoneProblem(dag, (0, 0, 0)))
    assert values == [1, 1, 1]
    assert objective == 0


def test_empty_problem():
    values, objective = solve(IsotoneProblem(build_dag([]), ()))
    assert values == []
    assert objective == 0


def test_brute_force_matches_examples():
    for coeffs, want in (((-1, 1), [-1, 1]), ((1, -1), [1, 1])):
        values, objective = brute_force_solve(IsotoneProblem(chain(2), coeffs))
        assert values == want
        assert objective == solve(IsotoneProblem(chain(2), coeffs))[1]


def test_brute_force_refuses_large_problems():
    with pytest.raises(ValidationError):
        brute_force_solve(IsotoneProblem(chain(16), (1,) * 16))


def _random_problem(rng):
    d = rng.randint(1, 3)
    pts = random_distinct_points(rng, rng.randint(1, 12), d, grid=4)
    dag = build_dag(pts)
    coeffs = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in pts)
    return IsotoneProblem(dag, coeffs)


def test_solve_equals_brute_force_on_random_instances():
    rng = random.Random(101)
    extra = random.Random(102)
    magnitudes = (5e-324, 1e-300, 1e-20, 0.75, 3.0, 1e20, 1e300)
    for _ in range(150):
        problem = _random_problem(rng)
        got = solve(problem)
        want = brute_force_solve(problem)
        assert got == want
        dag = problem.dag
        # float coefficients from the smallest subnormal up to 1e300
        wide = IsotoneProblem(
            dag, tuple(extra.choice((-1, 1)) * extra.choice(magnitudes) for _ in range(dag.n))
        )
        assert solve(wide) == brute_force_solve(wide)
        # the same dyadic instance as Fraction and as (exactly equal) float
        dyadic = tuple(Fraction(extra.randint(-24, 24), 2 ** extra.randint(0, 60)) for _ in range(dag.n))
        exact_values, exact_objective = solve(IsotoneProblem(dag, dyadic))
        float_values, float_objective = solve(IsotoneProblem(dag, tuple(float(c) for c in dyadic)))
        assert float_values == exact_values
        assert float_objective == float(exact_objective)


def test_solution_plus_set_is_an_up_set():
    rng = random.Random(55)
    for _ in range(50):
        problem = _random_problem(rng)
        values, _ = solve(problem)
        assert problem.dag.is_up_set([v > 0 for v in values])


def _random_feasible_vector(rng, dag):
    # monotone fractional vector: relax each node up to its predecessors
    values = [Fraction(rng.randint(-20, 20), 20) for _ in range(dag.n)]
    for _ in range(dag.n):
        for i, j in dag.cover_edges:
            if values[j] < values[i]:
                values[j] = values[i]
    return values


def test_solve_beats_random_feasible_fractional_vectors():
    rng = random.Random(77)
    for _ in range(10):
        problem = _random_problem(rng)
        _, objective = solve(problem)
        for _ in range(100):
            vec = _random_feasible_vector(rng, problem.dag)
            value = sum(c * v for c, v in zip(problem.coeffs, vec))
            assert value <= objective


def test_scaling_coefficients_preserves_solution():
    rng = random.Random(13)
    for _ in range(30):
        problem = _random_problem(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        scaled = IsotoneProblem(problem.dag, tuple(lam * c for c in problem.coeffs))
        base_values, base_objective = solve(problem)
        scaled_values, scaled_objective = solve(scaled)
        assert scaled_values == base_values
        assert scaled_objective == lam * base_objective


def test_float_coefficients_give_float_objective():
    values, objective = solve(IsotoneProblem(chain(3), (0.5, -0.25, 1.5)))
    assert isinstance(objective, float)
    assert values == [-1, -1, 1] or values == [1, 1, 1]
    bf_values, bf_objective = brute_force_solve(IsotoneProblem(chain(3), (0.5, -0.25, 1.5)))
    assert (values, objective) == (bf_values, bf_objective)


def test_lattice_problems_use_exact_solver():
    rng = random.Random(19)
    for _ in range(40):
        dag = lattice_dag((rng.randint(1, 2), rng.randint(1, 2)))
        coeffs = tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(dag.n))
        problem = IsotoneProblem(dag, coeffs)
        assert solve(problem) == brute_force_solve(problem)


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValidationError):
        IsotoneProblem(chain(1), (float("nan"),))


def test_non_finite_float_array_coefficients_are_named():
    for dtype in (np.float64, np.float32):
        with pytest.raises(ValidationError, match="coefficient 1 must be finite"):
            IsotoneProblem(chain(2), np.array([1.0, np.nan], dtype=dtype))
    with pytest.raises(ValidationError, match="coefficient 2 must be finite"):
        IsotoneProblem(chain(3), np.array([0.0, -1.5, -np.inf]))


def test_float_array_weights_equal_the_fraction_loop():
    # numpy's scaling of float64 coefficients gives the ints and the scale of the Fraction loop
    rng = np.random.default_rng(811)
    arrays = [
        np.array([5e-324, 1e300, -3.5, 0.0]),
        np.array([-0.0]),
        np.zeros(6),
        np.array([0.1, -2.5, 3.0, 1e-8], dtype=np.float32),
        np.ldexp(rng.uniform(-1.0, 1.0, 3000), rng.integers(-1070, 1020, 3000)),
        np.array([2.0**61, -(2.0**61), 1.0, 0.5]),  # int64 holds these scaled
        np.array([2.0**62, 0.5]),  # these not: 2**63 needs Python ints
        np.array([]),
    ]
    for array in arrays:
        problem = IsotoneProblem(chain(len(array)), array)
        assert problem.coeffs.dtype == np.float64 and not problem.coeffs.flags.writeable
        weights, scale, exact = _integer_weights(problem.coeffs)
        want, want_scale, _ = _integer_weights(tuple(Fraction(c) for c in array.tolist()))
        assert weights.tolist() == want and scale == want_scale and not exact
        assert all(type(w) is int for w in weights.tolist())
        wide = max(map(abs, want), default=0) >= 1 << 62
        assert weights.dtype == (object if wide else np.int64)
        # a tuple of floats alone takes the same path
        from_tuple, tuple_scale, _ = _integer_weights(tuple(array.tolist()))
        assert list(from_tuple) == want and tuple_scale == scale


def test_longdouble_array_coefficients_keep_the_tuple_path():
    third = np.longdouble(1) / 3
    problem = IsotoneProblem(chain(2), np.array([third, -third]))
    assert type(problem.coeffs) is tuple and problem.coeffs == (third, -third)
    assert all(type(c) is np.longdouble for c in problem.coeffs)


def test_objective_beyond_float_range_is_infinite():
    # the +/-1 values are exact; only the float objective, 2e308 - 1, leaves float range
    problem = IsotoneProblem(chain(3), (1e308, 1e308, -1.0))
    assert solve(problem) == ([1, 1, 1], float("inf"))
    assert brute_force_solve(problem) == ([1, 1, 1], float("inf"))
    assert solve(IsotoneProblem(chain(3), np.array([1e308, 1e308, -1.0]))) == ([1, 1, 1], float("inf"))


def test_coefficient_types_give_the_fraction_route_result():
    rng = random.Random(404)
    makers = {
        "int": lambda c, i: c,
        "Fraction": lambda c, i: Fraction(c, 3),
        "float": lambda c, i: c / 8,
        "mixed": lambda c, i: (c, Fraction(c, 3), c / 8, Fraction(c))[i % 4],
        "int64": lambda c, i: np.int64(c),
    }
    for _ in range(40):
        dag = _random_problem(rng).dag
        raw = [rng.randint(-9, 9) for _ in range(dag.n)]
        for make in makers.values():
            coeffs = tuple(make(c, i) for i, c in enumerate(raw))
            values, objective = solve(IsotoneProblem(dag, coeffs))
            # the reference: every coefficient as a Fraction; the objective stays exact
            # only when every coefficient is an int or a Fraction
            want_values, want_objective = solve(IsotoneProblem(dag, tuple(Fraction(c) for c in coeffs)))
            if any(isinstance(c, (float, np.integer)) for c in coeffs):
                want_objective = float(want_objective)
            assert values == want_values
            assert objective == want_objective and type(objective) is type(want_objective)
            assert (values, objective) == brute_force_solve(IsotoneProblem(dag, coeffs))


def test_int64_array_coefficients_solve_as_their_python_ints():
    # solve on the chain, the 2-d staircase and the min-cut: the array and its ints agree
    rng = random.Random(709)
    top = (1 << 63) - 1
    dags = [chain(1), chain(9), lattice_dag((3, 4)), lattice_dag((2, 2, 2))]
    for trial in range(120):
        d = 1 + trial % 3
        dags.append(build_dag(random_distinct_points(rng, rng.randint(1, 14), d, grid=rng.randint(2, 5))))
    paths = set()
    for dag in dags:
        bound = rng.choice((3, 10**6, top // max(dag.n, 1), top))  # the last leaves the int64 scan
        ints = [rng.randint(-bound, bound) for _ in range(dag.n)]
        problem = IsotoneProblem(dag, np.array(ints, dtype=np.int32 if bound == 3 else np.int64))
        paths.add("chain" if dag.is_chain else dag.dim)
        assert problem.coeffs.dtype == np.int64 and not problem.coeffs.flags.writeable
        values, objective = solve(problem)
        assert (values, objective) == solve(IsotoneProblem(dag, ints))
        assert type(objective) is Fraction and all(type(v) is int for v in values)
        if dag.n <= 12:
            assert brute_force_solve(problem) == (values, objective)
    assert paths == {"chain", 2, 3}
    with pytest.raises(ValidationError, match="2 coefficients for 3 nodes"):
        IsotoneProblem(chain(3), np.array([1, 2]))


def test_numpy_integer_coefficients_beside_a_large_common_denominator():
    # numpy integers must be scaled as Python ints: int64 would wrap or overflow past 2**63
    dag = chain(3)
    coeffs = (np.int64(-3), Fraction(1, 10**20), np.int64(4))
    want = solve(IsotoneProblem(dag, tuple(Fraction(int(c)) if isinstance(c, np.integer) else c for c in coeffs)))
    assert solve(IsotoneProblem(dag, coeffs)) == (want[0], float(want[1]))
    assert brute_force_solve(IsotoneProblem(dag, coeffs)) == solve(IsotoneProblem(dag, coeffs))


def test_brute_force_equals_solve_on_int64_fraction_float_mixes():
    rng = random.Random(707)
    makers = (
        lambda c: np.int64(c),
        lambda c: Fraction(c, 10 ** rng.randint(1, 25)),
        lambda c: c / 8,
        lambda c: c,
    )
    for _ in range(60):
        dag = _random_problem(rng).dag
        coeffs = tuple(rng.choice(makers)(rng.randint(-9, 9)) for _ in range(dag.n))
        problem = IsotoneProblem(dag, coeffs)
        assert brute_force_solve(problem) == solve(problem)


def test_chain_scan_equals_brute_force_on_huge_and_zero_suffix_coefficients():
    # coefficients near 1e30 overflow int64 and float's 53 bits, and trailing
    # zero weights tie several suffixes: the longest optimal one must win
    rng = random.Random(709)
    big = 10**30
    makers = (
        lambda k: k * big + rng.randint(-3, 3),
        lambda k: Fraction(k * big, 7),
        lambda k: k * 1e30,
        lambda k: k,
    )
    for trial in range(80):
        n = rng.randint(1, 12)
        zeros = rng.randint(0, min(3, n))
        make = makers[trial % len(makers)]
        raw = [make(rng.randint(-2, 2)) for _ in range(n - zeros)] + [make(0)] * zeros
        # nodes in shuffled order, so the chain order is a permutation of them
        perm = list(range(n))
        rng.shuffle(perm)
        dag = build_dag([(i,) for i in perm])
        coeffs = [raw[i] for i in perm]
        problem = IsotoneProblem(dag, coeffs)
        assert dag.chain_order is not None
        assert solve(problem) == brute_force_solve(problem)
    # every suffix ties at weight 0: all nodes take +1
    assert solve(IsotoneProblem(chain(4), (big, -big, 0, 0))) == ([1, 1, 1, 1], 0)
    assert solve(IsotoneProblem(chain(3), (-big, big, 0))) == ([-1, 1, 1], 2 * big)


def _linprog_optimum(points, coeffs):
    """max sum c_i v_i over -1 <= v <= 1 with v_i <= v_j whenever point i <= point j, by HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    pts = np.asarray(points)
    below = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    np.fill_diagonal(below, False)
    lo, hi = np.nonzero(below)
    rows = np.repeat(np.arange(len(lo)), 2)
    cols = np.stack((lo, hi), axis=1).ravel()
    signs = np.tile([1.0, -1.0], len(lo))
    a_ub = sparse.csr_array((signs, (rows, cols)), shape=(len(lo), len(pts)))
    res = optimize.linprog(
        -np.asarray(coeffs, dtype=float), A_ub=a_ub, b_ub=np.zeros(len(lo)),
        bounds=(-1, 1), method="highs",
    )
    assert res.status == 0
    return -res.fun


def test_solve_objective_equals_the_isotone_linear_program():
    # the comparability constraints are totally unimodular, so the LP optimum
    # is an integer and equals the best +/-1 labelling on every solver path
    rng = random.Random(701)
    dags = []
    for d, grid in ((1, 400), (2, 30), (3, 12)):
        for _ in range(6):
            dags.append(build_dag(random_distinct_points(rng, rng.randint(50, 300), d, grid=grid)))
    dags += [lattice_dag(orders) for orders in ((11, 11), (4, 4, 4), (0, 11), (3, 7))]
    for dag in dags:
        coeffs = [rng.randint(-9, 9) for _ in range(dag.n)]
        lp = _linprog_optimum(dag.nodes, coeffs)
        assert abs(lp - round(lp)) < 1e-6
        assert solve(IsotoneProblem(dag, coeffs))[1] == round(lp)


def _accumulate_chain_scan(order, weights):
    """The suffix scan over Python ints that the numpy scan replaced, kept as its reference."""
    sums = [0, *accumulate(map(weights.__getitem__, reversed(order)))]
    best = max(sums)
    length = len(sums) - 1 - sums[::-1].index(best)
    return order[len(order) - length :], best


def test_numpy_chain_scan_equals_the_accumulate_loop():
    rng = random.Random(431)
    int64_top = (1 << 63) - 1
    sides = set()
    for trial in range(400):
        n = rng.randint(1, 40)
        kind = trial % 5
        if kind == 0:  # small values with ties: zeros and cancelling pairs tie several suffixes
            weights = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
        elif kind == 1:
            weights = [-rng.randint(0, 5) for _ in range(n)]
        elif kind == 2:
            weights = [rng.randint(0, 5) for _ in range(n)]
        elif kind == 3:  # n * max|w| just below, at and just above 2**63
            top = (1 << 63) // n + rng.choice((-1, 0, 1))
            weights = [rng.choice((top, -top, top - 1, 0)) for _ in range(n)]
        else:  # beyond int64 itself
            weights = [rng.choice((-1, 1)) * rng.randint(0, 3 * int64_top) for _ in range(n)]
        sides.add(n * max(map(abs, weights)) < 1 << 63)
        order = list(range(n))
        rng.shuffle(order)
        want_plus, want_best = _accumulate_chain_scan(order, weights)
        given = [weights]
        if max(map(abs, weights)) <= int64_top:  # as an int64 array too, as IsotoneProblem keeps one
            given.append(np.array(weights, dtype=np.int64))
        for w in given:
            plus, best, total = _chain_best_up_set(np.array(order), w)
            assert plus.tolist() == want_plus and best == want_best and type(best) is int
            assert total == sum(weights) and type(total) is int
    assert sides == {True, False}
    # every suffix ties at weight 0: the longest one, the whole chain, wins
    assert _chain_best_up_set(np.arange(4), [0, 0, 0, 0])[0].tolist() == [0, 1, 2, 3]
    assert _chain_best_up_set(np.arange(3), [-1, -1, -1])[0].tolist() == []
    assert _chain_best_up_set(np.arange(0), [])[0].tolist() == []
