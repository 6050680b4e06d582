"""Rewrites the seed-0 reference outputs that run.py checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it only when a change is meant to alter the branch; say so where the
change is described.  Fixed-budget workloads keep their whole branch table;
endpoint-16x8 keeps its final point, termination and point count.
"""

import json
import shutil
import sys

import run

#: final-point columns of the endpoint workload that run.py compares
ENDPOINT_COLUMNS = ("strength", "speed", "elevation_sup")


def record(name: str):
    workload = run.WORKLOADS[name]
    work = run.WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(run.config_text(workload, 0))
    directory = work / "reference"
    result = run.invoke(workload, "plain", directory, config,
                        run._now() + run.RUN_LIMIT_S)
    if result["exit_code"] != workload.exit_code:
        raise SystemExit(f"{name}: exit code {result['exit_code']}\n"
                         f"{result['stderr']}")
    out = directory / "out"
    run.REFERENCE.mkdir(exist_ok=True)
    if workload.rows is None:
        rows = run.read_table(out / "branch.csv")
        summary = json.loads((out / "summary.json").read_text())
        data = {
            "termination": summary["termination"],
            "points": len(rows),
            "final": {c: rows[-1][c] for c in ENDPOINT_COLUMNS},
        }
        (run.REFERENCE / f"{name}.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
    else:
        shutil.copyfile(out / "branch.csv", run.REFERENCE / f"{name}.csv")
    shutil.rmtree(work)
    print(f"{name}: recorded")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or list(run.WORKLOADS):
        record(workload_name)
