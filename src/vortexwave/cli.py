"""Command-line driver.

Three subcommands share one configuration format:

* ``continue``: build the branch from the trivial solution, writing the
  branch table, one snapshot per accepted point, and a run summary.
* ``single-solve``: one fixed-strength solve seeded by the origin tangent.
* ``validate``: the built-in invariant suite, one pass/fail line per check.

Exit codes: 0 success (including a branch that exhausts its step budget),
2 configuration error (an unusable output directory or output file, or a
flat state outside a guard), 3 numerical failure (running out of memory
or a failure at the flat state among them) or a failed validation, 4 a
guard-triggered termination, of a branch or of a single solve, which then
writes no file.  Codes 2, 3 and 4 leave the files written so far on disk;
the table is written through per point.  A run first deletes an earlier
run's records from its output directory, so a failed single solve leaves
none there.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config, load_config_file
from .continuation import Alternative, Branch, ContinuationEngine
from .errors import ConfigError, VortexWaveError
from .persistence import (
    BranchWriter,
    ensure_dir,
    snapshot_record,
    write_snapshot,
    write_summary,
)
from .system import WaveSystem
from .validation import run_validation

_TERMINATION_EXIT = {
    Alternative.MAX_STEPS_REACHED: 0,
    Alternative.NEWTON_FAILURE: 3,
    Alternative.UNBOUNDED: 4,
    Alternative.INTERFACE_TOUCHES_BOUNDARY: 4,
    Alternative.VORTEX_NEAR_INTERFACE: 4,
}


def _seed(text: str) -> int:
    """A non-negative integer: numpy's generators take no other seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexwave",
        description="Steady interfacial waves carried by a point-vortex pair.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    cont = sub.add_parser("continue", help="trace the branch from the origin")
    single = sub.add_parser("single-solve",
                            help="solve once at the configured strength")
    check = sub.add_parser("validate", help="run the built-in invariant suite")

    for p in (cont, single, check):
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (defaults apply when omitted)")
    for p in (cont, single):
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config)")
    cont.add_argument("--max-steps", type=int, metavar="N",
                      help="override the configured step budget")
    check.add_argument("--seed", type=_seed, default=0, metavar="N",
                       help="seed for the randomized checks (N >= 0)")
    return parser


def _load(args) -> RunConfig:
    if args.config is None:
        return load_config("")
    return load_config_file(args.config)


def _make_engine(config: RunConfig) -> ContinuationEngine:
    system = WaveSystem(config.params, config.n_modes, config.m_vertical)
    return ContinuationEngine(system, config.settings)


def _out_dir(args, config: RunConfig) -> str:
    """The output directory, made if missing, less an earlier run's
    records: branch.csv, its snapshots and summary.json."""
    out = args.out if args.out is not None else config.out_dir
    ensure_dir(out)
    try:
        for name in os.listdir(out):
            path = os.path.join(out, name)
            if re.fullmatch(r"branch\.csv|snapshot_\d+\.json|summary\.json",
                            name) and os.path.isfile(path):
                os.remove(path)
    except OSError as exc:
        raise ConfigError(f"cannot remove {exc.filename!r}: "
                          f"{exc.strerror}") from exc
    return out


def _record(config: RunConfig, out: str, mode: str, run
            ) -> tuple[Branch, int]:
    """Write the records of `run(on_point)`; the Branch and its exit code.

    `on_point(point)` appends the point's row to branch.csv and writes its
    snapshot; `run` returns the finished Branch, whose summary comes last.
    """
    chash = config.config_hash()
    writer = BranchWriter(os.path.join(out, "branch.csv"), chash)

    def on_point(point):
        step = writer.write(point)
        record = snapshot_record(
            point, config.n_modes, config.m_vertical,
            config.params.half_period, config.params.depth, chash,
        )
        write_snapshot(os.path.join(out, f"snapshot_{step:04d}.json"), record)

    branch = run(on_point)
    termination = branch.termination  # None after a single solve
    code = 0 if termination is None else _TERMINATION_EXIT[termination]
    write_summary(
        os.path.join(out, "summary.json"),
        config.resolved(),
        chash, mode, None if termination is None else termination.value,
        len(branch.points), branch.points[-1].strength, code,
    )
    return branch, code


def _run_continue(args) -> int:
    config = _load(args)
    if args.max_steps is not None:
        try:
            config = replace(
                config, settings=replace(config.settings,
                                         max_steps=args.max_steps)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out = _out_dir(args, config)
    branch, code = _record(config, out, "continue",
                           _make_engine(config).continue_branch)
    termination = branch.termination.value
    if code:
        print(f"terminated: {termination}", file=sys.stderr)
    else:
        print(f"branch complete: {len(branch.points)} points, "
              f"termination {termination}")
    return code


def _run_single(args) -> int:
    config = _load(args)
    out = _out_dir(args, config)
    # solved before any record is opened, so a failed solve writes nothing
    # and leaves no earlier run's records (`_out_dir`)
    branch = _make_engine(config).solve_at(config.settings.target_strength)
    if branch.termination is not None:  # the solution is outside a guard
        print(f"terminated: {branch.termination.value}", file=sys.stderr)
        return _TERMINATION_EXIT[branch.termination]
    point = branch.points[0]

    def run(on_point):
        on_point(point)
        return branch

    _record(config, out, "single_solve", run)
    print(f"solved at strength {point.strength!r} "
          f"in {point.newton_iterations} iterations")
    return 0


def _run_validate(args) -> int:
    config = _load(args)
    ok = run_validation(config.params, seed=args.seed)
    return 0 if ok else 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "continue": _run_continue,
        "single-solve": _run_single,
        "validate": _run_validate,
    }
    try:
        # every non-finite value is caught by an explicit check, which
        # reports it as one line; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.mode](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (VortexWaveError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
