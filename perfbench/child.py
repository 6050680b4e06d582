"""Runs one vortexwave CLI command in this process and records its timings.

Usage: python3 child.py SRC RECORD MODE -- CLI-ARGS...

SRC is the directory holding the ``vortexwave`` package, RECORD the JSON
file this writes, and MODE one of ``plain`` (timestamps only), ``trace``
(timestamps plus per-layer spans, see tracer.py) or ``setup`` (exit as soon
as the continuation engine exists).  Timestamps use CLOCK_MONOTONIC, which
is shared by all processes, so the parent can measure from before it
started this process.
"""

import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_libraries() -> list[str]:
    """File names of the BLAS/LAPACK shared objects mapped into this process."""
    names = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            base = os.path.basename(path)
            if base.startswith("lib") and "blas" in base:
                names.add(base)
    return sorted(names)


def main(argv: list[str]) -> int:
    src, record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        raise SystemExit("usage: child.py SRC RECORD plain|trace|setup -- ARGS")
    sys.path.insert(0, src)
    import vortexwave.cli as cli
    from vortexwave.continuation import ContinuationEngine
    from vortexwave.persistence import BranchWriter

    package = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package) != os.path.abspath(src):
        raise SystemExit(f"imported vortexwave from {package}, not from {src}")

    record = {"engine": None, "points": []}

    def write_record(**extra):
        record.update(extra)
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        )
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    engine_init = ContinuationEngine.__init__
    branch_write = BranchWriter.write

    def timed_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        record["engine"] = _now()
        if mode == "setup":
            write_record(exit_code=0)
            sys.stdout.flush()
            os._exit(0)

    def timed_write(self, *args, **kwargs):
        record["points"].append(_now())
        return branch_write(self, *args, **kwargs)

    ContinuationEngine.__init__ = timed_init
    BranchWriter.write = timed_write

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    try:
        code = cli.main(cli_args)
    except Exception:  # a traceback is a failed invocation, not a lost one
        traceback.print_exc()
        code = 1
    extra = {
        "exit_code": code,
        "environment": {
            "blas_libraries": _blas_libraries(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        extra["counts"] = tracer.counts()
        extra["layers"] = tracer.summary(len(record["points"]))
    write_record(**extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
