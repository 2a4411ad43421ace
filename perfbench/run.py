"""isoclass benchmark: run one seeded workload as a closed loop and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-exact-2d, sim-1d, sim-2d, sieve-2d (see perfbench/README.md).
One process, one client: each op starts after the previous one returned and
its output was checked.  A run repeats the workload's fixed op list (a round)
on fresh seeded inputs while one more round still fits in ``--seconds``; the
first round is a warm-up and is left out of the timings when there are more.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced rounds on the same inputs and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report, with the
spans of a traced run, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_MIN = 7
SETUP_CODE = "import isoclass, isoclass.cli; isoclass.cli.build_parser()"

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mib": "MiB",
}

# calibrate() takes this long on the reference host (a 2-vCPU shared x86 VM);
# setup_s and wall_ref_s are times rescaled to that speed
CAL_REF_S = 0.0125

# end-to-end figures printed where they apply; a JSON metric must exist on every workload
EXTRA = {
    "wall_s": "s",
    "fit_s": "s",
    "policy_fit_s": "s",
    "predict_pts_per_s": "points/s",
    "reps_per_s": "reps/s",
    "ops_failed_frac": "ratio",
}

# per-layer metric -> (span name, field); derived ones are computed in layer_metrics
PER_LAYER = {
    "io.load_sample.self_s": ("io.load_sample", "self_s"),
    "io.load_trials.self_s": ("io.load_trials", "self_s"),
    "io.load_points.self_s": ("io.load_points", "self_s"),
    "io.load_model.self_s": ("io.load_model", "self_s"),
    "io.save_model.self_s": ("io.save_model", "self_s"),
    "io.write_csv.self_s": ("io.write_csv", "self_s"),
    "io.rows_parsed": None,
    "risks.WeightedSample.self_s": ("risks.WeightedSample", "self_s"),
    "risks.WeightedSample.rows": ("risks.WeightedSample", "rows"),
    "policy.to_weighted_sample.self_s": ("policy.to_weighted_sample", "self_s"),
    "policy.welfare_estimate.self_s": ("policy.welfare_estimate", "self_s"),
    "monotone.fit.calls": ("monotone.fit", "calls"),
    "monotone.fit.self_s": ("monotone.fit", "self_s"),
    "monotone.fit.total_s": ("monotone.fit", "total_s"),
    "monotone.rows_in": ("monotone.fit", "rows_in"),
    "monotone.support_points": ("monotone.fit", "support_points"),
    "monotone.distinct_share": None,
    "monotone.predict.calls": ("monotone.predict", "calls"),
    "monotone.predict.self_s": ("monotone.predict", "self_s"),
    "order.build_dag.self_s": ("order.build_dag", "self_s"),
    "order.build_dag.nodes": ("order.build_dag", "nodes"),
    "order.build_dag.cover_edges": ("order.build_dag", "cover_edges"),
    "order.lattice_dag.self_s": ("order.lattice_dag", "self_s"),
    "order.lattice_dag.nodes": ("order.lattice_dag", "nodes"),
    "isotone.solve.calls": ("isotone.solve", "calls"),
    "isotone.solve.chain_s": ("isotone.solve", "chain_s"),
    "isotone.solve.mincut_s": ("isotone.solve", "mincut_s"),
    "isotone.solve.mincut_calls": ("isotone.solve", "mincut_calls"),
    "bernstein.fit.self_s": ("bernstein.fit", "self_s"),
    "bernstein.fit.total_s": ("bernstein.fit", "total_s"),
    "bernstein.evaluate.calls": ("bernstein.evaluate", "calls"),
    "bernstein.evaluate.self_s": ("bernstein.evaluate", "self_s"),
    "bernstein.empirical_hinge_risk.self_s": ("bernstein.empirical_hinge_risk", "self_s"),
    "bench.simulate_regret.total_s": ("bench.simulate_regret", "total_s"),
    "bench.draw.self_s": ("bench.draw", "self_s"),
    "bench.population_risk.self_s": ("bench.population_risk", "self_s"),
    "bench.halton.self_s": ("bench.halton", "self_s"),
    "bench.reps": ("bench.population_risk", "calls"),
    "cli.fit-monotone.total_s": ("cli.fit-monotone", "total_s"),
    "cli.predict.total_s": ("cli.predict", "total_s"),
    "cli.policy-fit.total_s": ("cli.policy-fit", "total_s"),
    "cli.reproduce-examples.total_s": ("cli.reproduce-examples", "total_s"),
    "trace.overhead_s": None,
    "trace.coverage": None,
    "trace.missing": None,
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "coverage")):
        return "ratio"
    return "count"


def load_library():
    """Import isoclass from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import isoclass

    where = Path(isoclass.__file__).resolve().parent
    if where != SRC / "isoclass":
        raise ImportError(f"isoclass was imported from {where}, not from {SRC}")
    return isoclass


_CAL_ARRAY = None


def calibrate() -> float:
    """Time a fixed piece of pure-Python and numpy work that no library change touches.

    Other tenants of the host slow everything in this process by up to ~1.5x
    for tens of seconds at a time.  Timing this next to each op measures how
    fast the host is running at that moment; the faster of two passes drops
    a pass hit by a single interruption.
    """
    global _CAL_ARRAY
    import numpy as np

    if _CAL_ARRAY is None:
        _CAL_ARRAY = np.random.default_rng(0).random(200_000)
    passes = []
    for _ in range(2):
        begin = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        np.sort(_CAL_ARRAY)
        passes.append(perf_counter() - begin)
    return min(passes)


def measure_setup() -> tuple:
    """Wall time of a fresh process that imports the package and builds the CLI,
    and the calibration timed around it."""
    cal_before = calibrate()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    # no timeout: with one, subprocess polls the child at 50 ms steps and quantizes the time
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    took = perf_counter() - start
    return took, (cal_before + calibrate()) / 2


def commit_id() -> str:
    """HEAD of this checkout's git directory, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile_summary(values) -> dict:
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    for pct in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = values[min(len(values) - 1, int(len(values) * pct / 100))]
            break
    return out


def run_op(op):
    """Run one op, then check its output untimed; returns (seconds, error or None)."""
    begin = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is recorded and the run goes on
        took, error = perf_counter() - begin, f"{type(exc).__name__}: {exc}"
    else:
        took = perf_counter() - begin
        try:
            op.check(result)
            return took, None
        except Exception as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    traceback.print_exc(file=sys.stderr)
    print(f"perfbench: op {op.kind} failed: {error}", file=sys.stderr)
    return took, error


def run_rounds(build_round, sizes, seed: int, seconds: float, tracer, workdir: Path, setup_times):
    """Run rounds while the next one fits in ``seconds``; returns (ops, rounds, properties).

    The first round always runs.  A later one starts only if a round as long
    as the previous one, input generation and checks included, still fits.
    Untraced runs time one fresh set-up process after each round, appending
    to ``setup_times``, so set-up samples spread over the run like the rounds.
    """
    import numpy as np

    ops_done, rounds, props = [], [], None
    start = perf_counter()
    r, last = 0, 0.0
    while r == 0 or perf_counter() - start + last <= seconds:
        round_start = perf_counter()
        # traced runs alternate which phase goes first, so drift in machine speed
        # does not bias trace.overhead_s
        phases = ("plain", "traced")[:: 1 if r % 2 == 0 else -1] if tracer else ("plain",)
        for phase in phases:
            # the same generator state gives both phases of a round the same inputs
            ops, round_props = build_round(np.random.default_rng([seed, r]), workdir, sizes)
            props = props or round_props
            wall = 0.0
            if phase == "traced":
                tracer.install()
            try:
                for op in ops:
                    op_id = len(ops_done)
                    op.traced = phase == "traced"
                    if op.traced:
                        tracer.op, tracer.watchers = op_id, op.watchers
                    cal_before = calibrate()
                    took, error = run_op(op)
                    cal_s = (cal_before + calibrate()) / 2
                    wall += took
                    ops_done.append({"id": op_id, "round": r, "phase": phase, "kind": op.kind,
                                     "seconds": took, "cal_s": cal_s, "work": op.work, "rate": op.rate,
                                     "error": error})
            finally:
                if phase == "traced":
                    tracer.uninstall()
                    tracer.op, tracer.watchers = None, {}
            rounds.append({"round": r, "phase": phase, "wall_s": wall})
        if not tracer:
            setup_times.append(measure_setup())
        last = perf_counter() - round_start
        r += 1
    return ops_done, rounds, props


def timed(records, rounds_total: int):
    """Drop the warm-up round when there is more than one."""
    skip = 1 if rounds_total > 1 else 0
    return [x for x in records if x["round"] >= skip]


def ref_round_s(ops_done, n_rounds: int) -> float:
    """Round time at the reference host speed: each op's time over the calibration
    timed around it, median per op kind, summed over the op list, times CAL_REF_S."""
    ratios = {}
    for o in timed([o for o in ops_done if o["phase"] == "plain"], n_rounds):
        ratios.setdefault(o["kind"], []).append(o["seconds"] / o["cal_s"])
    return CAL_REF_S * sum(statistics.median(r) for r in ratios.values())


def end_to_end_metrics(ops_done, n_rounds: int, setup_times) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": CAL_REF_S * statistics.median(took / cal_s for took, cal_s in setup_times),
        "wall_ref_s": ref_round_s(ops_done, n_rounds),
        "peak_rss_mib": rss,
    }


def extra_metrics(ops_done, n_rounds: int) -> dict:
    plain_ops = timed([o for o in ops_done if o["phase"] == "plain"], n_rounds)
    round_walls = {}
    for o in plain_ops:
        round_walls[o["round"]] = round_walls.get(o["round"], 0.0) + o["seconds"]
    out = {"wall_s": statistics.median(round_walls.values())}
    for name, kinds in (("fit_s", ("fit-monotone", "fit")), ("policy_fit_s", ("policy-fit",))):
        times = [o["seconds"] for o in plain_ops if o["kind"] in kinds]
        if times:
            out[name] = statistics.median(times)
    for name in ("predict_pts_per_s", "reps_per_s"):
        chosen = [o for o in plain_ops if o["rate"] == name]
        if chosen:
            out[name] = sum(o["work"] for o in chosen) / sum(o["seconds"] for o in chosen)
    out["ops_failed_frac"] = sum(1 for o in ops_done if o["error"]) / len(ops_done)
    return out


def layer_metrics(tracer, ops_done, rounds) -> dict:
    from tracing import END, OP, PARENT, START, summarize

    n_rounds = 1 + max(x["round"] for x in rounds)
    traced_ops = timed([o for o in ops_done if o["phase"] == "traced"], n_rounds)
    ids = {o["id"] for o in traced_ops}
    counted = len({o["round"] for o in traced_ops})
    summary = summarize(tracer.spans, ids, counted)

    def get(span, key):
        return summary.get(span, {}).get(key, 0.0)

    out = {}
    for name, source in PER_LAYER.items():
        if source is not None:
            out[name] = get(*source)
    out["io.rows_parsed"] = sum(get(s, "rows") for s in ("io.load_sample", "io.load_trials", "io.load_points"))
    rows_in = get("monotone.fit", "rows_in")
    out["monotone.distinct_share"] = get("monotone.fit", "support_points") / rows_in if rows_in else 0.0
    walls = {(x["round"], x["phase"]): x["wall_s"] for x in rounds}
    kept = sorted({o["round"] for o in traced_ops})
    out["trace.overhead_s"] = statistics.median(walls[(r, "traced")] - walls[(r, "plain")] for r in kept)
    top = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] is None and s[OP] in ids)
    out["trace.coverage"] = top / sum(walls[(r, "traced")] for r in kept)
    out["trace.missing"] = len(tracer.missing)
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="isoclass closed-loop benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke check")
    args = parser.parse_args(argv)

    threads = os.environ.pop("ISOCLASS_THREADS", None)  # runs are serial and single-process
    try:
        isoclass = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import isoclass from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build_round = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.size][args.workload]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "isoclass": isoclass.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ISOCLASS_THREADS": "unset" if threads is None else f"{threads} (unset for the run)",
        "commit": commit_id(),
    }

    setup_times = []
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops_done, rounds, props = run_rounds(build_round, sizes, args.seed, args.seconds, tracer, workdir,
                                             setup_times)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    n_rounds = 1 + max(x["round"] for x in rounds)
    failed = sum(1 for o in ops_done if o["error"])
    if args.trace:
        metrics = layer_metrics(tracer, ops_done, rounds)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        setup_times += [measure_setup() for _ in range(SETUP_MIN - len(setup_times))]
        metrics = end_to_end_metrics(ops_done, n_rounds, setup_times)
        units = dict(END_TO_END)
    extras = extra_metrics(ops_done, n_rounds)

    op_stats = {}
    for kind in dict.fromkeys(o["kind"] for o in ops_done):
        times = [o["seconds"] for o in timed(ops_done, n_rounds) if o["kind"] == kind and o["phase"] == "plain"]
        op_stats[kind] = percentile_summary(times)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"size={args.size} rounds={n_rounds} (round 0 is a warm-up when there are more)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("input " + " ".join(f"{k}={v}" for k, v in props.items()))
    for kind, stats in op_stats.items():
        print(f"op {kind}: " + " ".join(f"{k}={fmt(v)}" for k, v in stats.items()) + " s")
    if tracer and tracer.missing:
        print("trace missing: " + ", ".join(tracer.missing))
    for name, value in extras.items():
        print(f"metric {name} = {fmt(value)} {EXTRA[name]}")
    for name, value in metrics.items():
        print(f"metric {name} = {fmt(value)} {units[name]}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": env, "input": props, "ops": ops_done, "rounds": rounds,
        "op_stats": op_stats, "extra": extras, "metrics": metrics, "setup_times": setup_times,
    }
    if tracer:
        report["missing"] = tracer.missing
        report["spans"] = tracer.spans
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, default=str))

    result = {
        "correct": failed == 0,
        "attempted": len(ops_done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
