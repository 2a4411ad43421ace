"""In-memory span tracing installed from outside the library.

Wrappers replace the library's functions at the names where callers look
them up (a module attribute such as ``isoclass.monotone.build_dag``, or a
class attribute such as ``Step2dDgp.population_risk``).  No library source is
edited: ``Tracer.install`` swaps the attributes and ``Tracer.uninstall`` puts
the originals back.  A name that no longer exists is recorded as missing.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# span fields, kept as lists for speed: name, start, end, parent index, op id, counts
NAME, START, END, PARENT, OP, INFO = range(6)


def _rows_of_result(args, kwargs, result):
    return {"rows": len(result)}


def _rows_of_points(args, kwargs, result):
    return {"rows": len(result.points)}


def _sample_rows(args, kwargs, result):
    return {"rows": len(args[0].points)}


def _monotone_fit(args, kwargs, result):
    return {"rows_in": args[0].n, "support_points": len(result.support)}


def _dag_size(args, kwargs, result):
    return {"nodes": result.n, "cover_edges": len(result.cover_edges)}


def _lattice_size(args, kwargs, result):
    return {"nodes": result.n}


def _solve_path(args, kwargs, result):
    # solve computes dag.chain_order to pick its algorithm; it is cached, so
    # reading it here tells which path ran without repeating the work
    return {"_path": "chain" if args[0].dag.chain_order is not None else "mincut"}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "main")


# (module, attribute path, span name or naming function, count hook)
WRAPS = (
    ("isoclass.cli", "main", _cli_name, None),
    ("isoclass.io", "load_sample", "io.load_sample", _rows_of_points),
    ("isoclass.io", "load_trials", "io.load_trials", _rows_of_result),
    ("isoclass.io", "load_points", "io.load_points", _rows_of_result),
    ("isoclass.io", "load_model", "io.load_model", None),
    ("isoclass.io", "save_model", "io.save_model", None),
    ("isoclass.io", "write_csv", "io.write_csv", None),
    ("isoclass.risks", "WeightedSample.__post_init__", "risks.WeightedSample", _sample_rows),
    ("isoclass.policy", "to_weighted_sample", "policy.to_weighted_sample", None),
    ("isoclass.policy", "welfare_estimate", "policy.welfare_estimate", None),
    ("isoclass.monotone", "fit", "monotone.fit", _monotone_fit),
    ("isoclass.bench", "fit_monotone", "monotone.fit", _monotone_fit),
    ("isoclass.monotone", "predict", "monotone.predict", None),
    ("isoclass.monotone", "build_dag", "order.build_dag", _dag_size),
    ("isoclass.bench", "build_dag", "order.build_dag", _dag_size),
    ("isoclass.bernstein", "lattice_dag", "order.lattice_dag", _lattice_size),
    ("isoclass.monotone", "solve", "isotone.solve", _solve_path),
    ("isoclass.bernstein", "solve", "isotone.solve", _solve_path),
    ("isoclass.bernstein", "fit", "bernstein.fit", None),
    ("isoclass.bench", "fit_bernstein", "bernstein.fit", None),
    ("isoclass.bernstein", "evaluate", "bernstein.evaluate", None),
    ("isoclass.bench", "bernstein_value", "bernstein.evaluate", None),
    ("isoclass.bernstein", "empirical_hinge_risk", "bernstein.empirical_hinge_risk", None),
    ("isoclass.bench", "simulate_regret", "bench.simulate_regret", None),
    ("isoclass.bench", "halton", "bench.halton", None),
    ("isoclass.bench", "StepDgp.sample", "bench.draw", None),
    ("isoclass.bench", "SmoothDgp.sample", "bench.draw", None),
    ("isoclass.bench", "Step2dDgp.sample", "bench.draw", None),
    ("isoclass.bench", "StepDgp.population_risk", "bench.population_risk", None),
    ("isoclass.bench", "SmoothDgp.population_risk", "bench.population_risk", None),
    ("isoclass.bench", "Step2dDgp.population_risk", "bench.population_risk", None),
)


class Tracer:
    """Records spans and counts while installed; keeps everything in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.op = None
        self.watchers = {}  # span name -> callback(args, kwargs, result), for output checks
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            span = [label, perf_counter(), None, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            watch = self.watchers.get(label)
            if watch is not None:
                watch(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, hook in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def summarize(spans, ops, rounds: int) -> dict:
    """Per-round totals per span name over the spans of ``ops``.

    Each name maps to ``calls``, ``self_s``, ``total_s`` and the sums of its
    count hooks; ``isotone.solve`` also gets ``chain_s``/``mincut_s`` and
    ``chain_calls``/``mincut_calls`` from the path each call took.
    """
    out = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        if span[OP] not in ops:
            continue
        entry = out[span[NAME]]
        took = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += own
        # total_s counts outermost spans of a name only, so nesting is not counted twice
        parent = span[PARENT]
        if parent is None or spans[parent][NAME] != span[NAME]:
            entry["total_s"] += took
        for key, value in (span[INFO] or {}).items():
            if key == "_path":
                entry[value + "_s"] += took
                entry[value + "_calls"] += 1
            else:
                entry[key] += value
    return {name: {k: v / rounds for k, v in entry.items()} for name, entry in out.items()}
