"""Smoke check of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and asserts that:
every metric named in BENCHMARK.json is emitted with its unit, every output
check passed, the end-to-end figures that apply to a workload are printed,
the layers a workload runs through show up in its trace, and in every traced
round the span self times add up to at most the round's wall time.  It also
asserts that the benchmark exits nonzero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import OP, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PRINTED = {
    "cli-exact-2d": ("wall_s", "fit_s", "policy_fit_s", "predict_pts_per_s", "ops_failed_frac"),
    "sim-1d": ("wall_s", "reps_per_s", "ops_failed_frac"),
    "sim-2d": ("wall_s", "reps_per_s", "ops_failed_frac"),
    "sieve-2d": ("wall_s", "fit_s", "predict_pts_per_s", "ops_failed_frac"),
}

# per-layer metrics that must be nonzero where the layer runs
RUNS_THROUGH = {
    "cli-exact-2d": ("io.load_sample.self_s", "io.load_trials.self_s", "io.load_points.self_s",
                     "io.load_model.self_s", "io.save_model.self_s", "io.write_csv.self_s",
                     "io.rows_parsed", "risks.WeightedSample.rows", "policy.to_weighted_sample.self_s",
                     "policy.welfare_estimate.self_s", "monotone.fit.calls", "monotone.predict.calls",
                     "order.build_dag.cover_edges", "isotone.solve.mincut_calls",
                     "cli.fit-monotone.total_s", "cli.predict.total_s", "cli.policy-fit.total_s",
                     "cli.reproduce-examples.total_s"),
    "sim-1d": ("monotone.fit.calls", "isotone.solve.chain_s", "risks.WeightedSample.rows",
               "bernstein.fit.total_s", "bernstein.evaluate.calls", "order.lattice_dag.nodes",
               "bench.simulate_regret.total_s", "bench.draw.self_s", "bench.reps"),
    "sim-2d": ("monotone.fit.calls", "order.build_dag.cover_edges", "isotone.solve.mincut_s",
               "bench.population_risk.self_s", "bench.halton.self_s", "bench.reps"),
    "sieve-2d": ("order.lattice_dag.nodes", "isotone.solve.mincut_s", "bernstein.fit.self_s",
                 "bernstein.evaluate.calls", "bernstein.empirical_hinge_risk.self_s"),
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}, set(result["metrics"]) ^ {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)), m
        if not trace:
            assert value > 0, m
    for name in PRINTED[workload]:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name
    if not trace:
        return
    for name in RUNS_THROUGH[workload]:
        assert result["metrics"][name]["value"] > 0, (workload, name)
    assert result["metrics"]["trace.missing"]["value"] == 0
    report = json.loads((HERE / "out" / f"{workload}-seed1-trace1.json").read_text())
    spans = report["spans"]
    own = self_times(spans)
    round_of = {o["id"]: o["round"] for o in report["ops"] if o["phase"] == "traced"}
    for entry in report["rounds"]:
        if entry["phase"] != "traced":
            continue
        total = sum(t for s, t in zip(spans, own) if round_of.get(s[OP]) == entry["round"])
        assert 0 < total <= entry["wall_s"] + 1e-9, (workload, entry, total)


def check_bare_directory() -> None:
    """Without the library next to it, the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("sim-1d", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for workload in PRINTED:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}", flush=True)
    check_bare_directory()
    print("ok bare directory exits nonzero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
