"""The benchmark's tracer can still find every function it wraps.

perfbench/tracer.py wraps package functions by name and refuses to run when
one is gone.  This resolves each of its targets the way Tracer.install does,
without wrapping anything, so a rename or deletion shows up here first.
The reference tables the benchmark checks its output against must still
have the table format that persistence.py writes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from vortexwave import persistence

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module_name, dotted, span", TRACER.SPANS,
                         ids=[f"{m}.{d}" for m, d, _ in TRACER.SPANS])
def test_span_target_resolves(module_name, dotted, span):
    owner_path, _, attr = dotted.rpartition(".")
    owner = importlib.import_module(module_name)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    assert callable(fn), f"{module_name}.{dotted} ({span}) is gone"


def test_point_still_binds_iterations():
    # the tracer reads the accepted point's corrector iterations by name
    from vortexwave.continuation import ContinuationEngine

    assert "iterations" in inspect.signature(
        ContinuationEngine._point).parameters


REFERENCE_TABLES = sorted((TRACER_PATH.parent / "reference").glob("*.csv"))


@pytest.mark.parametrize("path", REFERENCE_TABLES,
                         ids=[p.name for p in REFERENCE_TABLES])
def test_reference_table_matches_the_table_format(path):
    # the benchmark's output check compares a run's branch.csv with these
    # tables (read only here), so a change of the table format fails here
    # before it fails there
    lines = path.read_text(encoding="utf-8").splitlines()
    schema = next(line for line in lines if line.startswith("# schema"))
    assert schema == f"# schema = {persistence.SCHEMA}"
    header = next(line for line in lines if not line.startswith("#"))
    assert tuple(header.split(",")) == persistence.CSV_COLUMNS


def test_the_workloads_have_reference_tables():
    names = {path.name for path in REFERENCE_TABLES}
    assert {"branch-64x32.csv", "solve-64x32.csv"} <= names
