"""The four seeded workloads: inputs, the fixed op list of one round, and checks.

A round is built from ``numpy.random.default_rng([seed, round])``, so the
same seed gives the same inputs.  Inputs are generated before any op is
timed; the library receives only the generated inputs (CSV files, samples,
or the integer seed of a regret simulation).  Each op is one closed-loop
request: the next starts after the previous one has returned and been
checked.
"""

from __future__ import annotations

import io as _io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import isoclass
import isoclass.bench
import isoclass.bernstein
import isoclass.cli

import checks
from checks import require

# Sizes of one round.  "full" is what the benchmark measures; "tiny" is for
# the smoke check.  Full sizes keep a round near 2-3 s on a 2-CPU machine so
# one run holds several rounds and the median is steady.
SIZES = {
    "full": {
        "cli-exact-2d": {"grid": 40, "fit_rows": 800, "queries": 1000, "trials": 800},
        "sim-1d": {"ns": (4000, 16000, 64000), "bernstein_ns": (1600, 6400, 25600)},
        "sim-2d": {"ns": (200, 800), "reps": 1},
        "sieve-2d": {"rows": 1000, "order": 80, "queries": 1000},
    },
    "tiny": {
        "cli-exact-2d": {"grid": 8, "fit_rows": 40, "queries": 30, "trials": 40},
        "sim-1d": {"ns": (50, 200), "bernstein_ns": (50, 200)},
        "sim-2d": {"ns": (30,), "reps": 1},
        "sieve-2d": {"rows": 60, "order": 6, "queries": 30},
    },
}

# what reproduce-examples must print: the paper's two worked examples, exactly
EXAMPLES_TEXT = """\
example1 loss=zero-one argmin={-} classification_risk=14/30 (~0.47)
example1 loss=hinge:1 argmin={-} classification_risk=14/30 (~0.47)
example1 loss=exp argmin={0|1|2} classification_risk=16/30 (~0.53)
example1 loss=tquad argmin={0|1|2} classification_risk=16/30 (~0.53)
example2 exhaustive argmin={2} risk=1/3 (~0.33)
example2 hinge-over-linear vertex=(-1,1) set={1|2} risk=8/15 (~0.53)
"""

COORD_SCALE = 3000  # training coordinates are k/1000, query coordinates k/3000


class OpFailed(RuntimeError):
    pass


@dataclass
class Op:
    kind: str
    run: object  # () -> result
    check: object  # (result) -> None, raises CheckFailed
    work: int = 0  # points labelled or replications run
    rate: str = None  # name of the throughput figure that ``work`` feeds
    watchers: dict = field(default_factory=dict)  # span name -> callback, traced runs only
    traced: bool = False  # set by the runner before ``run``


# ---------------------------------------------------------------------------
# cli-exact-2d


def _call_cli(argv) -> str:
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = isoclass.cli.main(argv)
    if code != 0:
        raise OpFailed(f"isoclass {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _decimal(milli: int) -> str:
    """Exact 3-decimal text of milli/1000 for 0 <= milli < 1000."""
    return f"0.{milli:03d}"


def _cents(value: int) -> str:
    sign = "-" if value < 0 else ""
    return f"{sign}{abs(value) // 100}.{abs(value) % 100:02d}"


def _grid_points(rng, grid: int, rows: int) -> np.ndarray:
    """rows points on a grid x grid lattice of distinct 3-decimal coordinates (in 1/1000)."""
    axes = [np.sort(rng.choice(1000, size=grid, replace=False)) for _ in range(2)]
    cells = rng.integers(grid, size=(rows, 2))
    return np.stack([axes[0][cells[:, 0]], axes[1][cells[:, 1]]], axis=1)


def _load_monotone_model(path: Path):
    payload = json.loads(path.read_text())
    require(payload.get("type") == "monotone", "model file is not a monotone model")
    coords = checks.to_ints((Fraction(str(v)) for p in payload["support"] for v in p), COORD_SCALE)
    return coords.reshape(-1, 2), np.asarray(payload["values"], dtype=np.int64)


def _aggregate(milli: np.ndarray, coeffs):
    """Sum integer coefficients per distinct point: (coords in 1/COORD_SCALE, {point: sum})."""
    totals = {}
    for (a, b), c in zip(milli.tolist(), coeffs):
        totals[(a, b)] = totals.get((a, b), 0) + c
    return {(3 * a, 3 * b): c for (a, b), c in totals.items()}


def _check_fit_file(path: Path, totals: dict):
    """Checks a fitted model file; returns its support, values and cover edge count."""
    coords, values = _load_monotone_model(path)
    keys = [tuple(p) for p in coords.tolist()]
    require(len(keys) == len(totals) and set(keys) == set(totals),
            "model support is not the set of distinct sample points")
    coeffs = [totals[k] for k in keys]
    edges = checks.check_monotone_fit(coords, coeffs, values)
    return coords, values, edges


def _cli_round(rng, workdir: Path, sizes: dict):
    grid = sizes["grid"]

    fit_pts = _grid_points(rng, grid, sizes["fit_rows"])
    eta = np.where(fit_pts.sum(axis=1) >= 1000, 0.75, 0.25)
    fit_y = np.where(rng.random(len(fit_pts)) < eta, 1, -1)
    sample_csv, model_json = workdir / "sample.csv", workdir / "model.json"
    sample_csv.write_text("y,x1,x2\n" + "".join(
        f"{y},{_decimal(a)},{_decimal(b)}\n" for y, (a, b) in zip(fit_y.tolist(), fit_pts.tolist())))
    fit_totals = _aggregate(fit_pts, fit_y.tolist())

    queries = rng.integers(0, COORD_SCALE + 1, size=(sizes["queries"], 2))
    query_csv, pred_csv = workdir / "queries.csv", workdir / "pred.csv"
    query_csv.write_text("x1,x2\n" + "".join(f"{a}/{COORD_SCALE},{b}/{COORD_SCALE}\n" for a, b in queries.tolist()))

    trial_pts = _grid_points(rng, grid, sizes["trials"])
    tenths = rng.choice((3, 5, 7), size=len(trial_pts))  # propensity e in tenths
    treat = np.where(rng.random(len(trial_pts)) < tenths / 10, 1, -1)
    effect = np.where(trial_pts.sum(axis=1) >= 1000, 25, -25)
    cents = np.clip(np.rint(treat * effect + rng.normal(0, 50, len(trial_pts))), -200, 200).astype(int)
    trial_csv, policy_json = workdir / "trials.csv", workdir / "policy.json"
    trial_csv.write_text("z,d,x1,x2,e\n" + "".join(
        f"{_cents(z)},{d},{_decimal(a)},{_decimal(b)},0.{e}\n"
        for z, d, (a, b), e in zip(cents.tolist(), treat.tolist(), trial_pts.tolist(), tenths.tolist())))
    # IPW weight |z|/denominator with label sign(z)*d has signed coefficient z*d/denominator;
    # with z in cents and the denominator in tenths, 1050 * z*d/denominator is an integer
    denom_tenths = np.where(treat > 0, tenths, 10 - tenths)
    policy_coeffs = [c * d * 105 // q for c, d, q in zip(cents.tolist(), treat.tolist(), denom_tenths.tolist())]
    policy_totals = _aggregate(trial_pts, policy_coeffs)

    props = {
        "dim": 2,
        "numbers": "exact decimal and rational",
        "fit_rows": len(fit_pts),
        "fit_distinct_share": round(len(fit_totals) / len(fit_pts), 4),
        "trial_rows": len(trial_pts),
        "trial_distinct_share": round(len(policy_totals) / len(trial_pts), 4),
        "queries": len(queries),
    }

    def check_fit(_out):
        props["fit_cover_edges"] = _check_fit_file(model_json, fit_totals)[2]

    def check_predict(_out):
        coords, values = _load_monotone_model(model_json)
        lines = pred_csv.read_text().splitlines()
        require(lines[0] == "x1,x2,label" and len(lines) == len(queries) + 1, "bad prediction file shape")
        rows = [line.split(",") for line in lines[1:]]
        echoed = [(Fraction(a) * COORD_SCALE, Fraction(b) * COORD_SCALE) for a, b, _ in rows]
        require(echoed == [(Fraction(a), Fraction(b)) for a, b in queries.tolist()], "query points not echoed")
        labels = np.asarray([int(r[2]) for r in rows])
        want = np.where(checks.dominated_by_any(queries, coords[values < 0]), -1, 1)
        bad = int((labels != want).sum())
        require(bad == 0, f"{bad} monotone labels differ from the dominance rule")

    def check_policy(out: str):
        coords, values, props["trial_cover_edges"] = _check_fit_file(policy_json, policy_totals)
        labels = np.where(checks.dominated_by_any(3 * trial_pts, coords[values < 0]), -1, 1)
        agree = labels == treat
        welfare = sum(Fraction(int(c), 10 * int(q)) for c, q in zip(cents[agree], denom_tenths[agree]))
        welfare /= len(treat)
        want = f"estimated welfare of the fitted policy: {float(welfare):.6g}"
        require(want in out.splitlines(), f"welfare line missing or wrong; wanted {want!r}")

    def check_examples(out: str):
        require(out == EXAMPLES_TEXT, f"reproduce-examples printed {out!r}")

    ops = [
        Op("fit-monotone", lambda: _call_cli(["fit-monotone", "--in", str(sample_csv), "--out", str(model_json)]), check_fit),
        Op("predict", lambda: _call_cli(["predict", "--model", str(model_json), "--in", str(query_csv), "--out", str(pred_csv)]),
           check_predict, work=len(queries), rate="predict_pts_per_s"),
        Op("policy-fit", lambda: _call_cli(["policy-fit", "--in", str(trial_csv), "--out", str(policy_json)]), check_policy),
        Op("reproduce-examples", lambda: _call_cli(["reproduce-examples"]), check_examples),
    ]
    return ops, props


# ---------------------------------------------------------------------------
# simulations


def _check_curve(curve, dgp: str, ns, reps: int, low: float) -> None:
    require(curve.dgp == dgp and tuple(curve.sample_sizes) == tuple(ns) and curve.reps == reps,
            "regret curve does not describe the requested simulation")
    for mean, se in zip(curve.mean_regret, curve.std_error):
        require(math.isfinite(mean) and low <= mean <= 0.5, f"mean regret {mean} out of range")
        require(math.isfinite(se) and se >= 0.0, f"standard error {se} out of range")


def _step_regret_watch(captured: list):
    def watch(args, kwargs, risk):
        dgp, model = args[0], args[1]
        if dgp.name == "step":
            captured.append((model, risk))
    return watch


def _threshold(model) -> float:
    if hasattr(model, "support"):
        negatives = [p[0] for p, v in zip(model.support, model.values) if v < 0]
        return float(max(negatives)) if negatives else 0.0
    return checks.bernstein_threshold_1d(model.orders[0], np.asarray(model.theta, dtype=float))


def _check_step_regrets(captured: list, count: int) -> None:
    """Each step replication's regret is 0.5 |a - 0.5| at its fitted threshold a."""
    require(len(captured) == count, f"saw {len(captured)} step replications, expected {count}")
    for model, risk in captured:
        a = min(1.0, max(0.0, _threshold(model)))
        require(abs((risk - 0.25) - 0.5 * abs(a - 0.5)) <= 1e-9,
                f"step regret {risk - 0.25} differs from 0.5|a - 0.5| at a = {a}")


def _sim_op(kind: str, dgp: str, ns, reps: int, seed: int, estimator: str) -> Op:
    captured = []

    def run():
        captured.clear()
        return isoclass.bench.simulate_regret(dgp, ns, reps, seed, estimator=estimator)

    def check(curve):
        # 1-d risks are closed-form and exact, 2-d ones carry ~1e-3 quadrature error
        _check_curve(curve, dgp, ns, reps, -1e-12 if dgp != "step2d" else -0.02)
        if dgp == "step":
            require(curve.negative_count == 0, "negative regret on the exact step design")
            if op.traced:
                _check_step_regrets(captured, reps * len(ns))

    watchers = {"bench.population_risk": _step_regret_watch(captured)} if dgp == "step" else {}
    op = Op(kind, run, check, work=reps * len(ns), rate="reps_per_s", watchers=watchers)
    return op


def _sim_seed(rng) -> int:
    return int(rng.integers(2**31))


def _sim1d_round(rng, workdir: Path, sizes: dict):
    seed = _sim_seed(rng)
    # one op per point of each curve: replication streams are (seed, n, rep), so
    # the inputs are those of one call over all ns, and each op is timed on its own
    ops = [_sim_op(f"{dgp}/{estimator}/n={n}", dgp, (n,), 1, seed, estimator)
           for dgp, estimator, ns in (("step", "monotone", sizes["ns"]), ("smooth", "monotone", sizes["ns"]),
                                      ("step", "bernstein", sizes["bernstein_ns"]))
           for n in ns]
    props = {"dim": 1, "numbers": "float", "ns": list(sizes["ns"]),
             "bernstein_ns": list(sizes["bernstein_ns"]), "distinct_share": 1.0, "reps": 1}
    return ops, props


def _sim2d_round(rng, workdir: Path, sizes: dict):
    seed = _sim_seed(rng)
    ops = [_sim_op("step2d/monotone", "step2d", sizes["ns"], sizes["reps"], seed, "monotone")]
    props = {"dim": 2, "numbers": "float", "ns": list(sizes["ns"]), "distinct_share": 1.0,
             "reps": sizes["reps"], "quadrature_points": isoclass.bench.Step2dDgp.grid_size}
    return ops, props


# ---------------------------------------------------------------------------
# sieve-2d


def _sieve_round(rng, workdir: Path, sizes: dict):
    k = sizes["order"]
    orders = (k, k)
    pts = rng.random((sizes["rows"], 2))
    eta = np.where(pts.sum(axis=1) >= 1.0, 0.75, 0.25)
    ys = np.where(rng.random(len(pts)) < eta, 1, -1)
    sample = isoclass.WeightedSample.unweighted(ys.tolist(), [tuple(p) for p in pts.tolist()])
    queries = rng.random((sizes["queries"], 2))
    query_list = [tuple(q) for q in queries.tolist()]
    state = {}

    def fit():
        state["model"] = isoclass.bernstein.fit(sample, orders)
        return state["model"]

    def check_fit(model):
        require(tuple(model.orders) == orders, "fitted orders differ from the requested ones")
        checks.check_lattice_fit(orders, np.asarray(model.theta, dtype=float), pts, ys.astype(float))

    def predict():
        model = state["model"]
        return [isoclass.bernstein.predict(model, q) for q in query_list]

    def check_predict(labels):
        require(len(labels) == len(queries), "wrong number of labels")
        checks.check_bernstein_labels(orders, np.asarray(state["model"].theta, dtype=float), queries, labels)

    def risk():
        return isoclass.bernstein.empirical_hinge_risk(state["model"], sample)

    def check_risk(value):
        theta = np.asarray(state["model"].theta, dtype=float)
        want = float(np.mean(np.maximum(0.0, 1.0 - ys * checks.bernstein_values(orders, theta, pts))))
        require(abs(value - want) <= 1e-9, f"hinge risk {value} differs from {want}")

    ops = [
        Op("fit", fit, check_fit),
        Op("predict", predict, check_predict, work=len(query_list), rate="predict_pts_per_s"),
        Op("hinge-risk", risk, check_risk),
    ]
    props = {"dim": 2, "numbers": "float", "rows": len(pts), "distinct_share": 1.0,
             "orders": list(orders), "lattice_nodes": (k + 1) ** 2, "queries": len(query_list)}
    return ops, props


# workload name -> function making one round: (rng, workdir, sizes) -> (ops, input properties)
WORKLOADS = {
    "cli-exact-2d": _cli_round,
    "sim-1d": _sim1d_round,
    "sim-2d": _sim2d_round,
    "sieve-2d": _sieve_round,
}
