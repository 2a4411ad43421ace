"""Differential tests of the 2-d paths behind ``solve``: the staircase sweep and the grid program.

Both must give the same +1 set (the inclusion-maximal optimal up-set) as
exhaustive enumeration, as the min-cut they replace in two dimensions, and
as an independent networkx max-closure; the grid program must also equal the
sweep, and fits and regret curves must come out byte-identical to the
min-cut path, which the tests force for the reference.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import random_distinct_points

from isoclass import (
    IsotoneProblem,
    WeightedSample,
    brute_force_solve,
    build_dag,
    fit_bernstein,
    fit_monotone,
    lattice_dag,
    simulate_regret,
    solve,
)
from isoclass import isotone, order
from isoclass.cli import main
from isoclass.isotone import (
    _grid_best_up_set,
    _integer_weights,
    _min_cut_best_up_set,
    _staircase_best_up_set,
)


def _min_cut_as_grid_program(dag, weights):
    """The min-cut's +1 set, with the weight and total that ``_grid_best_up_set`` also returns."""
    weights = weights.tolist() if isinstance(weights, np.ndarray) else weights
    plus = _min_cut_best_up_set(dag, weights)
    return sorted(plus), sum(weights[i] for i in plus), sum(weights)


@pytest.fixture
def min_cut_path(monkeypatch):
    """Call to route 2-d problems (the sweep's and the grid program's) through the min-cut, their reference."""

    def route():
        monkeypatch.setattr(isotone, "_staircase_best_up_set", _min_cut_best_up_set)
        monkeypatch.setattr(isotone, "_grid_best_up_set", _min_cut_as_grid_program)

    return route


def _plus_set(values):
    return {i for i, v in enumerate(values) if v > 0}


def test_sweep_equals_brute_force_on_small_tied_sets():
    rng = random.Random(601)
    for _ in range(600):
        pts = random_distinct_points(rng, rng.randint(1, 15), 2, grid=rng.randint(2, 6))
        dag = build_dag(pts)
        weights = [rng.randint(-2, 2) for _ in pts]
        want = brute_force_solve(IsotoneProblem(dag, weights))
        assert solve(IsotoneProblem(dag, weights)) == want
        # chains go to the suffix scan in solve; the sweep must agree on them too
        assert set(_staircase_best_up_set(dag, weights)) == _plus_set(want[0])


def _coordinate(rng, k: int):
    """Grid value k as an int, an equal Fraction or float, or a rational off the float grid."""
    return rng.choice((k, Fraction(k), float(k), Fraction(3 * k + 1, 3), k / 4))


def _coefficient(rng):
    return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       rng.randint(-40, 40) / 8, rng.uniform(-1.0, 1.0)))


def test_sweep_equals_min_cut_on_point_sets_and_lattices(min_cut_path):
    rng = random.Random(602)
    problems = []
    for _ in range(60):
        grid = random_distinct_points(rng, rng.randint(20, 300), 2, grid=rng.randint(5, 40))
        pts = list(dict.fromkeys(tuple(_coordinate(rng, k) for k in p) for p in grid))
        problems.append(IsotoneProblem(build_dag(pts), [_coefficient(rng) for _ in pts]))
    for shape in ((1, 1), (1, 6), (7, 2), (12, 12), (29, 29), (20, 9)):
        dag = lattice_dag(shape)
        problems.append(IsotoneProblem(dag, [_coefficient(rng) for _ in range(dag.n)]))
    got = [solve(problem) for problem in problems]
    min_cut_path()
    assert got == [solve(problem) for problem in problems]


def test_grid_program_equals_the_sweep_on_tied_lattices():
    # weights -2..2 tie many up-sets: both must pick the union of the optimal ones
    rng = random.Random(608)
    for _ in range(1500):
        dag = lattice_dag((rng.randint(0, 7), rng.randint(0, 7)))
        weights = [rng.randint(-2, 2) for _ in range(dag.n)]
        plus, best, total = _grid_best_up_set(dag, weights)
        want = set(_staircase_best_up_set(dag, weights))
        assert set(plus.tolist()) == want
        assert (best, total) == (sum(weights[i] for i in want), sum(weights))


def test_grid_program_equals_the_sweep_on_full_grids_of_mixed_points():
    # every cell of an R x C grid, in shuffled order, with int, Fraction and float coordinates;
    # an integer value is spelled as any of its three types, point by point
    rng = random.Random(609)

    def axis(size):
        values = {}
        while len(values) < size:
            v = _coordinate(rng, rng.randrange(60))
            values.setdefault(Fraction(v), v)
        return list(values.values())

    def spelled(v):
        return rng.choice((int(v), Fraction(v), float(v))) if v == int(v) else v

    for _ in range(200):
        rows, cols = rng.randint(2, 12), rng.randint(2, 12)
        xs, ys = axis(rows), axis(cols)
        pts = [(spelled(x), spelled(y)) for x in xs for y in ys]
        rng.shuffle(pts)
        dag = build_dag(pts)
        assert dag.grid_shape == (rows, cols)
        weights, _, _ = _integer_weights([_coefficient(rng) for _ in pts])
        plus, best, total = _grid_best_up_set(dag, weights)
        want = set(_staircase_best_up_set(dag, list(weights)))
        assert set(plus.tolist()) == want
        assert (best, total) == (sum(weights[i] for i in want), sum(weights))


def test_grid_program_sums_past_int64_as_python_ints():
    # each weight fits int64, but n * max|w| does not: int64 sums would wrap
    rng = random.Random(610)
    big = (1 << 62) - 1
    for shape in ((3, 3), (5, 2), (6, 7)):
        dag = lattice_dag(shape)
        ints = [rng.choice((1, -1)) * (big - rng.randint(0, 9)) for _ in range(dag.n)]
        plus, best, total = _grid_best_up_set(dag, np.array(ints, dtype=np.int64))
        want = set(_staircase_best_up_set(dag, ints))
        assert set(plus.tolist()) == want
        assert (best, total) == (sum(ints[i] for i in want), sum(ints))
        assert solve(IsotoneProblem(dag, np.array(ints))) == solve(IsotoneProblem(dag, [Fraction(c) for c in ints]))


def _networkx_max_closure(nx, dag, weights):
    """Maximal maximum-weight up-set and cut value, from networkx's residual graph.

    Boykov-Kolmogorov is networkx's fastest max-flow on lattices; every max
    flow leaves the same nodes able to reach the sink.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(("s", "t"))
    for i, w in enumerate(weights):
        if w > 0:
            graph.add_edge("s", i, capacity=w)
        elif w < 0:
            graph.add_edge(i, "t", capacity=-w)
    # edges without a capacity attribute are infinite in networkx
    graph.add_edges_from(dag.cover_edges)
    residual = nx.algorithms.flow.boykov_kolmogorov(graph, "s", "t")
    sink_side, stack = {"t"}, ["t"]
    while stack:
        v = stack.pop()
        for u in residual.predecessors(v):
            arc = residual[u][v]
            if u not in sink_side and arc["capacity"] - arc["flow"] > 0:
                sink_side.add(u)
                stack.append(u)
    return {i for i in range(dag.n) if i not in sink_side}, residual.graph["flow_value"]


def test_every_path_equals_networkx_max_closure():
    nx = pytest.importorskip("networkx")
    rng = random.Random(603)
    dags = [build_dag(random_distinct_points(rng, rng.randint(50, 200), 2, grid=30)) for _ in range(8)]
    dags += [build_dag(random_distinct_points(rng, rng.randint(50, 150), 3, grid=8)) for _ in range(4)]
    dags += [lattice_dag((19, 14)), lattice_dag((80, 80)), lattice_dag((12, 40)), lattice_dag((4, 5, 3))]
    dags += [build_dag([(i, 2 * i) for i in range(60)])]
    for dag in dags:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dag.n)]
        values, objective = solve(IsotoneProblem(dag, coeffs))
        weights, scale, _ = _integer_weights(coeffs)
        plus, cut = _networkx_max_closure(nx, dag, weights)
        assert _plus_set(values) == plus
        best = sum(w for w in weights if w > 0) - cut
        assert objective == Fraction(2 * best - sum(weights), scale)


def test_two_dimensional_fits_build_no_cover_edges_and_no_flow_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 2-d fit reached the general closure path")

    monkeypatch.setattr(order, "_cover_edges", refuse)
    monkeypatch.setattr(isotone, "_Dinic", refuse)
    rng = random.Random(604)
    points = [(rng.random(), rng.random()) for _ in range(300)]
    sample = WeightedSample.unweighted([rng.choice((-1, 1)) for _ in points], points)
    assert fit_monotone(sample).values
    assert fit_bernstein(sample, (30, 30)).theta


def test_lifted_fits_take_the_min_cut_and_equal_the_2d_fits(monkeypatch):
    # a constant third coordinate keeps the order of 2-d points but sends their fit to the
    # min-cut: an oracle for the 2-d paths at sizes far past brute force
    cuts = []
    real = isotone._min_cut_best_up_set
    monkeypatch.setattr(isotone, "_min_cut_best_up_set", lambda dag, weights: cuts.append(dag.n) or real(dag, weights))
    rng = np.random.default_rng(617)
    for n in (50, 500, 2000):
        x = rng.random((n, 2))
        labels = np.where(rng.random(n) < np.where(x.sum(axis=1) >= 1.0, 0.75, 0.25), 1, -1)
        weights = rng.integers(0, 5, size=n)
        flat = fit_monotone(WeightedSample(weights, labels, x))
        lifted = fit_monotone(WeightedSample(weights, labels, np.column_stack((x, np.full(n, 0.5)))))
        assert cuts[-1] == len(flat.support) and len(cuts) == 1 + (50, 500, 2000).index(n)
        assert [p[:2] for p in lifted.support] == list(flat.support)
        assert lifted.values == flat.values and -1 in flat.values and 1 in flat.values


def _csv(path: Path, header: str, rows) -> str:
    path.write_text("\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n")
    return str(path)


def _cli_outputs(tmp_path: Path, files: dict) -> dict:
    out = {}
    for name, argv in files.items():
        target = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(target)]) == 0
        out[name] = target.read_bytes()
    return out


def test_model_files_are_byte_identical_to_the_min_cut_path(tmp_path, min_cut_path, capsys):
    rng = random.Random(605)
    # duplicate grid points, exact decimals, weights with a common denominator above 1
    grid = [(rng.randint(0, 9) / 10, rng.randint(0, 9) / 10) for _ in range(150)]
    plain = _csv(tmp_path / "plain.csv", "y,x1,x2", [(rng.choice((-1, 1)), *p) for p in grid])
    weighted = _csv(tmp_path / "weighted.csv", "w,y,x1,x2",
                    [(rng.randint(1, 9) / 4, rng.choice((-1, 1)), *p) for p in grid])
    small = _csv(tmp_path / "small.csv", "w,y,x1,x2",
                 [(rng.randint(1, 9) / 4, rng.choice((-1, 1)), *p) for p in grid[:40]])
    trials = _csv(tmp_path / "trials.csv", "z,d,x1,x2,e",
                  [(rng.randint(-5, 5), rng.choice((-1, 1)), *p, 0.5) for p in grid])
    files = {
        "monotone": ["fit-monotone", "--in", plain],
        "monotone-weighted-float": ["fit-monotone", "--in", weighted, "--weighted", "--float"],
        "policy": ["policy-fit", "--in", trials],
        "bernstein": ["fit-bernstein", "--in", plain, "--orders", "15,11"],
        "bernstein-default": ["fit-bernstein", "--in", small, "--weighted", "--rescale"],
    }
    got = _cli_outputs(tmp_path, files)
    min_cut_path()
    assert got == _cli_outputs(tmp_path, files)
    capsys.readouterr()


def test_step2d_regret_curves_are_identical_to_the_min_cut_path(min_cut_path):
    def curves():
        return [json.dumps(simulate_regret("step2d", (50, 200), reps=3, seed=606).as_dict()),
                json.dumps(simulate_regret("step2d", (60,), reps=2, seed=607, estimator="bernstein",
                                           orders=(12, 12)).as_dict())]

    got = curves()
    min_cut_path()
    assert got == curves()
