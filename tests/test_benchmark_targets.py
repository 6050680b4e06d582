"""The benchmark's tracer can still find every function it wraps, and the
benchmark's output check passes on this package.

perfbench/tracer.py wraps package functions by name and refuses to run when
one is gone.  This resolves each of its targets the way Tracer.install does,
without wrapping anything, so a rename or deletion shows up here first.
The reference tables the benchmark checks its output against must still
have the table format that persistence.py writes, and the seed-0 commands
of the gated workloads, run in this process, must pass perfbench/run.py's
`check_output` against them, so a change of the branch fails here too, and
their seed-1 commands, whose jittered vortex height and tension move every
elevation along the branch, must pass its invariants.  A short 16x8 branch
at each non-default [physical] value must pass its invariants: exit code,
one row and snapshot per point, and every residual within newton_tol.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vortexwave import cli, persistence

from test_cli import NON_DEFAULT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load(path):
    name = f"perfbench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACER = _load(TRACER_PATH)
RUN = _load(PERFBENCH / "run.py")


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


def _check(name, workload, seed, tmp_path, capsys, monkeypatch,
           config_seed=0):
    """perfbench/run.py's `check_output` on one run of the workload's
    configuration for `config_seed` in this process; `seed` 0 compares it
    with the reference, any other checks its invariants alone."""
    config = tmp_path / "config.ini"
    config.write_text(RUN.config_text(workload, config_seed))
    points = []  # one stamp per recorded point, as the benchmark's child
    write = persistence.BranchWriter.write

    def stamped(self, point):
        points.append(point.strength)
        return write(self, point)

    monkeypatch.setattr(persistence.BranchWriter, "write", stamped)
    out = tmp_path / "out"
    code = cli.main([*workload.command, "--config", str(config),
                     "--out", str(out)])
    record = {"exit_code": code, "stderr": capsys.readouterr().err,
              "points": points}
    return RUN.check_output(name, workload, seed, out, record)


@pytest.mark.parametrize("name", ["branch-64x32", "solve-64x32"])
def test_seed_zero_output_passes_the_benchmark_check(name, tmp_path, capsys,
                                                    monkeypatch):
    assert _check(name, RUN.WORKLOADS[name], 0, tmp_path, capsys,
                  monkeypatch) == []


@pytest.mark.parametrize("name", ["branch-64x32", "solve-64x32"])
def test_seed_one_output_keeps_the_benchmark_invariants(name, tmp_path,
                                                        capsys, monkeypatch):
    assert _check(name, RUN.WORKLOADS[name], 1, tmp_path, capsys,
                  monkeypatch, config_seed=1) == []


@pytest.mark.parametrize("key", [key.split(".")[1] for key in NON_DEFAULT
                                 if key.startswith("physical.")])
def test_every_physical_key_keeps_the_benchmark_invariants(key, tmp_path,
                                                           capsys,
                                                           monkeypatch):
    workload = replace(
        RUN.WORKLOADS["branch-64x32"],
        command=("continue", "--max-steps", "2"), rows=3,
        config={"discretization": {"n_modes": 16, "m_vertical": 8},
                "physical": {key: NON_DEFAULT[f"physical.{key}"]}})
    assert _check("branch-16x8", workload, 1, tmp_path, capsys,
                  monkeypatch) == []
