"""Benchmark of the vortexwave command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Each run writes the workload's configuration file, then starts the CLI
(``vortexwave.cli.main``) in a fresh child process per invocation, one at a
time (a closed loop with one client).  BLAS thread counts are left at the
library default and recorded, never set.  Invocations repeat while the next
one is predicted to end within S seconds; there is always at least one.

Untraced runs (--trace 0) report, as medians over the run's invocations:

  setup_s      process start until the ContinuationEngine exists (imports,
               load_config, WaveSystem); also sampled by SETUP_PROBES extra
               processes that exit right there
  wall_s       process start until exit of the whole CLI command
  point_s_p50  time to each accepted branch point, stamped as it reaches
               BranchWriter.write, from the previous point or, for the
               first, from engine construction; pooled over invocations
  peak_rss_mb  peak resident memory of the child process

The lines before the final JSON line also give each sample count, the tail
percentile of point_s (the highest one with at least ten samples beyond
it), fail_ratio (invocations failing the output check over invocations
attempted; ``failed``/``attempted`` in the JSON line) and the environment.

Traced runs (--trace 1) alternate untraced and traced invocations (at least
one and two) and report the per-layer metrics of tracer.py: medians of
times over the traced invocations, counts that must repeat exactly across
them, the tracing overhead, and a DGEMM rate measured in the same run.

Every invocation's output is checked: exit code, termination kind, one row
per recorded point, every residual_norm at or below newton_tol, and for
seed 0 agreement with the reference outputs in reference/ (row by row for
the fixed-budget workloads, the final point for endpoint-16x8, whose path
length moves with roundoff).  Seed 0 runs exactly the configurations below;
any other seed moves vortex_y by up to +-VORTEX_Y_JITTER and scales
surface_tension by up to 1 +- TENSION_JITTER, and is checked by the
invariants alone.  Reference outputs are rewritten by record_reference.py.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

VORTEX_Y_JITTER = 0.005
TENSION_JITTER = 0.02

#: extra processes per untraced run that stop once set-up is done
SETUP_PROBES = 5

#: no invocation is started that could end after this many seconds of run
RUN_LIMIT_S = 170.0

#: relative tolerance of branch tables against the reference
TABLE_RTOL = 1e-8

#: absolute tolerance of the endpoint's final point against the reference
ENDPOINT_ATOL = 1e-6

NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One CLI command and its expected outcome; BENCHMARK.json says why."""

    command: tuple[str, ...]
    #: count gate: factorizations per branch point may not exceed this
    max_factorizations_per_point: float
    config: dict = field(default_factory=dict)
    exit_code: int = 0
    termination: str | None = "max_steps_reached"
    rows: int | None = None  # branch table rows, when the budget fixes them


#: BENCHMARK.json lists only the two workloads whose times spread least on a
#: shared 2-core machine.  branch-128x48 and endpoint-16x8 run by name or with
#: `all`: over ten seeds their wall_s or point_s_p50 quartile spread reached
#: 0.26 and 0.22, too close to a 0.25 regression bound, but their traced work
#: counts are exact.
#:
#: The count gates sit at the highest factorizations per point seen at this
#: commit over seeds 0-9 (branch-64x32 5.38-5.54, branch-128x48 3.33,
#: endpoint-16x8 10.67-11.24, solve-64x32 14), with headroom for the paths of
#: unseen seeds.
WORKLOADS = {
    "branch-64x32": Workload(
        command=("continue", "--max-steps", "12"),
        rows=13,
        max_factorizations_per_point=5.75,
    ),
    "branch-128x48": Workload(
        command=("continue", "--max-steps", "2"),
        config={"discretization": {"n_modes": 128, "m_vertical": 48}},
        rows=3,
        max_factorizations_per_point=3.34,
    ),
    "endpoint-16x8": Workload(
        command=("continue",),
        config={"discretization": {"n_modes": 16, "m_vertical": 8},
                "continuation": {"ds_max": 0.3, "max_steps": 5000}},
        exit_code=4,
        termination="interface_touches_boundary",
        max_factorizations_per_point=11.5,
    ),
    "solve-64x32": Workload(
        command=("single-solve",),
        config={"continuation": {"target_strength": 3.0}},
        termination=None,
        rows=1,
        max_factorizations_per_point=14.0,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ---------------------------------------------------------------------


def config_text(workload: Workload, seed: int) -> str:
    sections = {name: dict(keys) for name, keys in workload.config.items()}
    if seed != 0:
        rng = random.Random(seed)
        physical = sections.setdefault("physical", {})
        physical["vortex_y"] = -0.5 + rng.uniform(-1, 1) * VORTEX_Y_JITTER
        physical["surface_tension"] = 0.1 * (
            1.0 + rng.uniform(-1, 1) * TENSION_JITTER
        )
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value!r}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


# -- one child process ------------------------------------------------------------


def invoke(workload: Workload, mode: str, directory: Path, config: Path,
           deadline: float) -> dict:
    """Run the CLI once in a child process; returns its record."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    record_path = directory / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(record_path),
           mode, "--", *workload.command, "--config", str(config),
           "--out", str(directory / "out")]
    start = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} invocation did not end in time") from exc
    end = _now()
    if not record_path.is_file():
        raise BenchmarkError(
            f"{mode} invocation left no record (exit {proc.returncode}):\n"
            f"{proc.stderr}"
        )
    record = json.loads(record_path.read_text())
    record.update(start=start, wall_s=end - start, returncode=proc.returncode,
                  stderr=proc.stderr)
    return record


# -- output checks ----------------------------------------------------------------


def read_table(path: Path) -> list[dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        lines = [ln.strip() for ln in handle if not ln.startswith("#")]
    names = lines[0].split(",")
    return [dict(zip(names, map(float, ln.split(",")))) for ln in lines[1:]
            if ln]


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_output(name: str, workload: Workload, seed: int, out: Path,
                 record: dict) -> list[str]:
    """Problems with one invocation's output; empty when it is correct."""
    if record["exit_code"] != workload.exit_code:
        last = record["stderr"].strip().splitlines()[-1:]
        return [f"exit code {record['exit_code']}, expected "
                f"{workload.exit_code}: {' '.join(last)}"]
    problems = []
    try:
        summary = json.loads((out / "summary.json").read_text())
        rows = read_table(out / "branch.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if summary["termination"] != workload.termination:
        problems.append(f"termination {summary['termination']}")
    if workload.rows is not None and len(rows) != workload.rows:
        problems.append(f"{len(rows)} rows, expected {workload.rows}")
    if not summary["points"] == len(rows) == len(record["points"]):
        problems.append("summary, table and recorded points disagree")
    if len(list(out.glob("snapshot_*.json"))) != len(rows):
        problems.append("one snapshot per row expected")
    if not all(row["residual_norm"] <= NEWTON_TOL for row in rows):
        problems.append("a residual_norm exceeds newton_tol")
    if seed != 0 or problems:
        return problems

    if workload.rows is None:  # a guard ends it: compare the final point
        final = json.loads((REFERENCE / f"{name}.json").read_text())["final"]
        for column, value in final.items():
            if not _close(rows[-1][column], value, atol=ENDPOINT_ATOL):
                problems.append(f"final {column} {rows[-1][column]!r} is not "
                                f"the reference {value!r}")
        return problems
    reference = read_table(REFERENCE / f"{name}.csv")
    if len(reference) != len(rows):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    for row, ref in zip(rows, reference):
        for column, value in ref.items():
            if column != "residual_norm" and not _close(
                    row[column], value, rtol=TABLE_RTOL, atol=TABLE_RTOL):
                problems.append(f"step {int(ref['step'])} {column} "
                                f"{row[column]!r} is not {value!r}")
    return problems


# -- statistics -------------------------------------------------------------------


def tail_percentile(samples: list[float]):
    """(percentile, value, samples beyond) of the highest percentile that
    has at least ten samples beyond it, or None."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (1.0 - pct / 100.0) + 1e-9)
        if beyond >= 10:
            value = sorted(samples)[n - beyond - 1]
            return pct, value, beyond
    return None


def point_intervals(record: dict) -> list[float]:
    stamps = [record["engine"], *record["points"]]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def environment(records: list[dict]) -> dict:
    env = dict(records[0]["environment"])
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
        python=sys.version.split()[0],
    )
    return env


def dgemm_gflops() -> float:
    """Best of five 1024^3 float64 matrix products, in GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 1024))
    b = rng.standard_normal((1024, 1024))
    a @ b
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * 1024**3 / best / 1e9


def _output_files(out: Path) -> tuple[int, int]:
    files = [p for p in out.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# -- runs ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run invocations for about `seconds`; returns records and problems."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(config_text(workload, seed))

    begin = _now()
    deadline = begin + RUN_LIMIT_S
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(invoke(workload, "setup", work / "probe", config,
                                 deadline))

    records = {"plain": [], "trace": [], "setup": probes}
    plan = ["plain", "trace", "trace"] if trace else ["plain"]
    problems = []
    failed = 0
    durations = []
    while True:
        if plan:
            mode = plan.pop(0)
        elif trace and len(records["plain"]) >= len(records["trace"]):
            mode = "trace"
        else:
            mode = "plain"
        directory = work / f"{mode}-{len(records[mode])}"
        record = invoke(workload, mode, directory, config, deadline)
        durations.append(record["wall_s"])
        out = directory / "out"
        found = check_output(name, workload, seed, out, record)
        failed += bool(found)
        problems += [f"{mode} {len(records[mode])}: {p}" for p in found[:5]]
        record["files"] = _output_files(out) if out.is_dir() else (0, 0)
        records[mode].append(record)
        shutil.rmtree(directory)
        now = _now()
        if not plan and (now - begin + statistics.median(durations) > seconds
                         or now + 1.5 * max(durations) > deadline):
            break
    records.update(problems=problems, failed=failed)
    return records


def end_to_end(records: dict) -> tuple[dict, list[float]]:
    """(median, unit, sample count) of each end-to-end metric, and the
    pooled point intervals."""
    plain = [r for r in records["plain"] if r["engine"] is not None]
    setup = [r["engine"] - r["start"] for r in records["setup"] + plain
             if r["engine"] is not None]
    intervals = [dt for r in plain for dt in point_intervals(r)]
    if not intervals:
        raise BenchmarkError("no invocation got as far as a branch point")
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s",
                   len(plain)),
        "point_s_p50": (statistics.median(intervals), "s", len(intervals)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB", len(plain)),
    }, intervals


def per_layer(workload: Workload, records: dict,
              lines: list[str]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced invocations, and whether the count
    checks passed; a failed check adds a line."""
    traced = records["trace"]
    counts = [dict(r["counts"], **dict(zip(
        ("persistence.files", "persistence.bytes"), r["files"])))
        for r in traced]
    ok = True
    if any(c != counts[0] for c in counts):
        ok = False
        lines.append("  work counts differ between traced invocations: "
                     + json.dumps(counts))
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    metrics.update(counts[0])
    per_point = metrics["layers.factorizations_per_point"]
    if per_point > workload.max_factorizations_per_point:
        ok = False
        lines.append(f"  count gate: {per_point:.4g} factorizations per "
                     f"point exceed {workload.max_factorizations_per_point}")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in records["plain"])
    )
    metrics["machine.dgemm_gflops"] = dgemm_gflops()
    return metrics, ok


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Lines to print and the result object of one benchmark run."""
    records = measure(name, seed, seconds, trace)
    attempted = len(records["plain"]) + len(records["trace"])
    failed = records["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    lines = [f"workload {name} seed {seed} trace {int(trace)}: "
             f"{attempted} invocations, {failed} failed "
             f"(fail_ratio {failed / attempted:g})"]
    lines += [f"  output check: {p}" for p in records["problems"]]
    lines.append("  environment " + json.dumps(
        environment(records["plain"]), sort_keys=True))

    if not trace:
        metrics, intervals = end_to_end(records)
        for key, (value, unit, count) in metrics.items():
            lines.append(f"  {key} {value:.6g} {unit} (median of {count})")
        tail = tail_percentile(intervals)
        if tail is not None:
            pct, value, beyond = tail
            lines.append(f"  point_s_tail {value:.6g} s (p{pct:g} of "
                         f"{len(intervals)}, {beyond} beyond)")
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u, _) in metrics.items()}
        return {"lines": lines, "result": result}

    metrics, counts_ok = per_layer(WORKLOADS[name], records, lines)
    result["correct"] &= counts_ok
    units = per_layer_units()
    result["metrics"] = {key: {"value": metrics[key], "unit": unit}
                         for key, unit in units.items()}
    for key, unit in units.items():
        lines.append(f"  {key} {metrics[key]:.6g} {unit}")
    return {"lines": lines, "result": result}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vortexwave" / "cli.py").is_file():
        print(f"no vortexwave package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            outcome = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark error in {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(WORK / name, ignore_errors=True)
            if WORK.is_dir() and not any(WORK.iterdir()):
                WORK.rmdir()
        print("\n".join(outcome["lines"]))
        print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
