"""The benchmark's tracer wraps library functions by name: every name must exist, and a fit must call through it."""

from pathlib import Path
from types import ModuleType

import isoclass.bernstein
import isoclass.monotone
import isoclass.order
from isoclass import WeightedSample

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> ModuleType:
    """``perfbench/tracing.py`` as a module, compiled from its source (no bytecode is written beside it)."""
    module = ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_the_tracer_finds_every_name_and_records_the_order_and_solve_spans_of_both_fits():
    tracer = _tracing().Tracer()
    sample = WeightedSample.unweighted([1, -1, 1, -1, 1], [(0.0, 0.5), (0.5, 0.0), (1.0, 1.0), (0.25, 0.25), (0.75, 0.5)])
    try:
        tracer.install()
        assert tracer.missing == []
        isoclass.monotone.fit(sample)
        isoclass.bernstein.fit(sample, (2, 2))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert {"monotone.fit", "bernstein.fit", "order.build_dag", "order.lattice_dag", "isotone.solve"} <= set(names)
    assert names.count("isotone.solve") == 2
    # uninstalled, the names are the library's own functions again
    assert isoclass.monotone.build_dag is isoclass.order.build_dag and isoclass.bernstein.lattice_dag is isoclass.order.lattice_dag
