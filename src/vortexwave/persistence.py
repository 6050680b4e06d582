"""Branch tables, solution snapshots, and run summaries on disk.

All files are deterministic for a fixed configuration and build: floats are
written with repr (shortest round-trip form), JSON keys are sorted, and no
timestamps or environment details are recorded.  Each branch-table row is
written through as its point is accepted, so an interrupted run still
holds a valid prefix.

Every branch.csv column after the step, and every entry of a snapshot's
diagnostics, is the `continuation.BranchPoint` attribute of its name, so a
new column is one name in `DIAGNOSTICS`.  An output directory that cannot
be created, or an output file that cannot be written, is a configuration
error that names it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .continuation import BranchPoint
from .errors import ConfigError, NonFiniteEntry
from .spectral import EvenField
from .system import WaveState

#: format version of branch.csv and the snapshots
SCHEMA = 1

#: format version of summary.json: 2 echoes the configuration as JSON
#: values, where 1 wrote the repr string of each
SUMMARY_SCHEMA = 2

#: BranchPoint attributes recorded as a snapshot's diagnostics
DIAGNOSTICS = (
    "elevation_sup",
    "elevation_sobolev",
    "elevation_center",
    "vortex_distance",
    "det_sign",
    "smallest_singular",
    "newton_iterations",
    "residual_norm",
)

#: the branch.csv header: the step, then one BranchPoint attribute each
CSV_COLUMNS = ("step", "strength", "speed", *DIAGNOSTICS)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextmanager
def _writing(path: str, mode: str = "w"):
    """`path` open for writing; an OSError on it is a ConfigError naming it."""
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


class BranchWriter:
    """Writes the table header, then appends one row per accepted point."""

    def __init__(self, path: str, config_hash: str):
        self.path = path
        with _writing(path) as handle:
            handle.write(f"# schema = {SCHEMA}\n# config = {config_hash}\n"
                         + ",".join(CSV_COLUMNS) + "\n")
        self._step = 0

    def write(self, point: BranchPoint):
        row = (self._step,
               *(getattr(point, name) for name in CSV_COLUMNS[1:]))
        with _writing(self.path, "a") as handle:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
        self._step += 1


def load_branch_table(path: str) -> dict[str, np.ndarray]:
    """Columns of a branch table as arrays, keyed by header name."""
    with open(path, encoding="utf-8") as handle:
        lines = [ln.rstrip("\n") for ln in handle if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    return {name: data[:, j] for j, name in enumerate(names)}


def snapshot_record(point: BranchPoint, n_modes: int, m_vertical: int,
                    half_period: float, depth: float,
                    config_hash: str) -> dict:
    return {
        "schema": SCHEMA,
        "config": config_hash,
        "grid": {
            "n_modes": n_modes,
            "m_vertical": m_vertical,
            "half_period": half_period,
            "depth": depth,
        },
        "strength": point.strength,
        "speed": point.speed,
        "elevation": point.state.elevation.coeffs.tolist(),
        "trace_upper": point.state.trace_upper.coeffs.tolist(),
        "trace_lower": point.state.trace_lower.coeffs.tolist(),
        "diagnostics": {name: getattr(point, name) for name in DIAGNOSTICS},
    }


def write_snapshot(path: str, record: dict):
    with _writing(path) as handle:
        json.dump(record, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_snapshot(path: str) -> tuple[WaveState, float, dict]:
    """Snapshot back to (state, strength, full record).

    A record that lacks an entry it needs, or holds one of the wrong type,
    raises ValueError naming the entry.
    """
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError("snapshot is not a JSON object")
    if record.get("schema") != SCHEMA:
        raise ValueError(
            f"snapshot schema {record.get('schema')!r} is not {SCHEMA}"
        )
    for key in ("elevation", "trace_upper", "trace_lower", "speed",
                "strength"):
        value = record.get(key)
        scalar = key in ("speed", "strength")
        if not (_is_number(value) if scalar else isinstance(value, list)
                and all(_is_number(v) for v in value)):
            raise ValueError(f"snapshot entry {key} is missing or not "
                             + ("a number" if scalar else "a number list"))
        if not np.all(np.isfinite(value)):
            raise NonFiniteEntry(f"snapshot entry {key} is not finite")
    grid = record.get("grid")
    n_modes = grid.get("n_modes") if isinstance(grid, dict) else None
    if not isinstance(n_modes, int) or isinstance(n_modes, bool):
        raise ValueError("snapshot entry grid.n_modes is missing or not "
                         "an integer")
    band = n_modes + 1
    for key in ("elevation", "trace_upper", "trace_lower"):
        if len(record[key]) != band:
            raise ValueError(f"snapshot entry {key} has {len(record[key])} "
                             f"coefficients, not the grid's {band}")
    state = WaveState(
        EvenField(np.array(record["elevation"])),
        EvenField(np.array(record["trace_upper"])),
        EvenField(np.array(record["trace_lower"])),
        float(record["speed"]),
    )
    return state, float(record["strength"]), record


def write_summary(path: str, config_echo: dict, config_hash: str,
                  mode: str, termination: str | None,
                  n_points: int, final_strength: float, exit_code: int):
    """Write summary.json; `config_echo` maps "section.key" to a number
    or None, written as the JSON value it is, or, for a number JSON has
    none for (such as an infinite ds_max), as the string of its repr."""
    write_snapshot(path, {  # the same JSON layout
        "schema": SUMMARY_SCHEMA,
        "config": {key: repr(value) if isinstance(value, float)
                   and not np.isfinite(value) else value
                   for key, value in config_echo.items()},
        "config_hash": config_hash,
        "mode": mode,
        "termination": termination,
        "points": n_points,
        "final_strength": final_strength,
        "exit_code": exit_code,
    })


def ensure_dir(path: str):
    """Create the output directory; ConfigError when it cannot be used."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path!r}: "
                          f"{exc.strerror}") from exc
