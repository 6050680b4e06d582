"""Per-layer spans and work counts around the calls into vortexwave's modules.

The tracer wraps functions from outside the package: every target in
``SPANS`` is replaced, for the life of one child process, by a wrapper that
times a span and updates work counters at that boundary.  Each span is
folded into per-name totals in memory as it closes: calls, busy time (outer
spans of a name only) and self time (less the traced spans nested in it).
``summary()`` turns the totals into the per-layer metrics after the run.

A target that no longer exists is an error (``MissingSpanTarget``), never a
silent zero.  Layer boundaries that exist only as private methods are listed
in ``PRIVATE_BOUNDARIES`` so a rename of one of them is noticed here first.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

#: private methods that are the only boundary of their layer
PRIVATE_BOUNDARIES = (
    ("vortexwave.continuation", "ContinuationEngine._arclength_correct",
     "continuation.corrector"),
    ("vortexwave.continuation", "ContinuationEngine._point",
     "continuation.point_diag"),
)

#: (module, dotted attribute inside it, span name); module-level functions
#: are wrapped where the caller looks them up, since callers bind them by name
SPANS = PRIVATE_BOUNDARIES + (
    ("vortexwave.layers", "sla.lu_factor", "layers.factor"),
    ("vortexwave.layers", "sla.lu_solve", "layers.backsolve"),
    ("vortexwave.layers", "LayerOperators.__init__", "layers.construct"),
    ("vortexwave.layers", "LayerOperators.solve", "layers.solve"),
    ("vortexwave.layers", "LayerOperators.dno_matrix", "layers.dno_matrix"),
    ("vortexwave.layers", "LayerOperators.shape_batch", "layers.shape_batch"),
    ("vortexwave.layers", "LayerOperators.interior_dy_row",
     "layers.interior_dy_row"),
    ("vortexwave.system", "WaveSystem.prepare", "system.prepare"),
    ("vortexwave.system", "WaveSystem.residual_prepared", "system.residual"),
    ("vortexwave.system", "WaveSystem.jacobian_prepared", "system.jacobian"),
    ("vortexwave.system", "vortex_traces", "vortex.traces"),
    ("vortexwave.continuation", "ContinuationEngine.newton_correct",
     "continuation.corrector"),
    ("vortexwave.continuation", "ContinuationEngine.tangent",
     "continuation.tangent"),
    ("vortexwave.continuation", "ContinuationEngine.check_guards",
     "continuation.guard"),
    ("vortexwave.continuation", "ContinuationEngine.vortex_distance",
     "continuation.guard"),
    ("vortexwave.continuation", "ContinuationEngine.state_norm",
     "continuation.guard"),
    ("vortexwave.spectral", "CollocationGrid.even_values_half", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.even_values", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.evaluate_even", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.evaluate_odd", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.ddx", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.dealias", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.sobolev_norm", "spectral"),
    ("vortexwave.spectral", "CollocationGrid.sobolev_weights", "spectral"),
    ("vortexwave.persistence", "BranchWriter.write", "persistence.write"),
    ("vortexwave.cli", "snapshot_record", "persistence.write"),
    ("vortexwave.cli", "write_snapshot", "persistence.write"),
    ("vortexwave.cli", "write_summary", "persistence.write"),
)


class MissingSpanTarget(RuntimeError):
    """A function the tracer wraps is gone; the benchmark must be updated."""


class _ModuleProxy:
    """Stands in for a module inside one consumer, with some names wrapped."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Stats:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0  # outermost spans of this name only
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Span aggregates and work counters of one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats: dict[str, _Stats] = {}
        self._stack: list[list] = []  # [start, time in nested spans]
        self.factor_flop = 0.0
        self.operator_bytes = 0
        self.backsolve_columns = 0
        # id -> weak reference of prepared states not yet given a Jacobian
        self._unjacobianed: dict[int, weakref.ref] = {}
        self.jacobianed_prepares = 0
        # continuation bookkeeping: a corrector frame is
        # [prepares seen, a damping trial awaiting its verdict]
        self._correctors: list[list] = []
        self.damping_trials = 0
        self.damping_accepted = 0
        self._converged = False
        self.accepted = 0
        self.accepted_iterations = 0
        self._point_signature = None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; raises MissingSpanTarget before wrapping any."""
        resolved = []
        for module_name, dotted, name in SPANS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = dotted.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                raise MissingSpanTarget(f"{module_name}.{dotted} does not exist")
            resolved.append((module, owner_path, owner, attr, fn, name))
        proxies = {}
        for module, owner_path, owner, attr, fn, name in resolved:
            if inspect.ismodule(owner) and owner is not module:
                # a module bound by name inside another (layers.sla): wrap
                # only that consumer's view, not the library itself
                key = (module.__name__, owner_path)
                if key not in proxies:
                    proxies[key] = _ModuleProxy(owner)
                    setattr(module, owner_path, proxies[key])
                owner = proxies[key]
            if attr == "_point":
                self._point_signature = inspect.signature(fn)
            setattr(owner, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, _Stats())
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        clock = self.clock
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            stats.calls += 1
            stats.depth += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats.depth -= 1
                stats.self_time += duration - frame[1]
                if stats.depth == 0:
                    stats.inclusive += duration
                if stack:
                    stack[-1][1] += duration
                if after is not None:
                    after(tracer, ok, args, result if ok else None)
            return result

        return span

    # -- boundary hooks -----------------------------------------------------

    def _settle_trial(self, accepted: bool):
        frame = self._correctors[-1]
        if frame[1]:
            self.damping_accepted += accepted
            frame[1] = False

    def _before_prepare(self, args, kwargs):
        if self._correctors:
            frame = self._correctors[-1]
            frame[0] += 1
            if frame[0] > 1:  # the first prepare of a corrector is the guess
                self.damping_trials += 1
                # a trial still awaiting its verdict here was rejected
                frame[1] = True

    def _after_prepare(self, ok, args, prep):
        if ok:
            pending = self._unjacobianed
            key = id(prep)
            pending[key] = weakref.ref(prep, lambda _, k=key: pending.pop(k, None))

    def _before_jacobian(self, args, kwargs):
        prep = args[1] if len(args) > 1 else kwargs["prep"]
        ref = self._unjacobianed.get(id(prep))
        if ref is not None and ref() is prep:
            del self._unjacobianed[id(prep)]
            self.jacobianed_prepares += 1
        if self._correctors:
            self._settle_trial(True)

    def _before_corrector(self, args, kwargs):
        self._converged = False
        self._correctors.append([0, False])

    def _after_corrector(self, ok, args, result):
        self._settle_trial(ok)
        self._correctors.pop()
        self._converged = ok

    def _before_point(self, args, kwargs):
        if self._converged:
            bound = self._point_signature.bind(*args, **kwargs)
            self.accepted += 1
            self.accepted_iterations += int(bound.arguments["iterations"])
            self._converged = False

    def _before_factor(self, args, kwargs):
        matrix = args[0] if args else kwargs["a"]
        n = matrix.shape[0]
        self.factor_flop += 2.0 * n**3 / 3.0
        self.operator_bytes = max(self.operator_bytes, matrix.nbytes)

    def _before_backsolve(self, args, kwargs):
        rhs = args[1] if len(args) > 1 else kwargs["b"]
        self.backsolve_columns += 1 if rhs.ndim == 1 else rhs.shape[1]

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Work counts that must repeat exactly across runs of one input."""
        s = self.stats
        return {
            "layers.factorizations": s["layers.factor"].calls,
            "layers.backsolve_columns": self.backsolve_columns,
            "system.prepares": s["system.prepare"].calls,
            "system.prepares_residual_only":
                s["system.prepare"].calls - self.jacobianed_prepares,
            "system.jacobians": s["system.jacobian"].calls,
            "system.residuals": s["system.residual"].calls,
            "continuation.attempts": s["continuation.corrector"].calls,
            "continuation.accepted": self.accepted,
            "continuation.damping_trials": self.damping_trials,
            "layers.shape_batch_calls": s["layers.shape_batch"].calls,
            "layers.dno_matrix_calls": s["layers.dno_matrix"].calls,
            "layers.solve_calls": s["layers.solve"].calls,
            "layers.interior_dy_row_calls": s["layers.interior_dy_row"].calls,
            "vortex.traces_calls": s["vortex.traces"].calls,
            "spectral.calls": s["spectral"].calls,
        }

    def summary(self, points_written: int) -> dict:
        """Per-layer metrics of this process, keyed by metric name."""
        s = self.stats
        out = self.counts()
        factor_s = s["layers.factor"].inclusive
        out.update({
            "layers.factorizations_per_point":
                out["layers.factorizations"] / max(points_written, 1),
            "layers.factor_s": factor_s,
            "layers.assemble_s": s["layers.construct"].inclusive - factor_s,
            "layers.factor_gflop": self.factor_flop / 1e9,
            "layers.factor_gflops":
                self.factor_flop / 1e9 / factor_s if factor_s else 0.0,
            "layers.operator_mb": self.operator_bytes / 1e6,
            "layers.backsolve_s": s["layers.backsolve"].inclusive,
            "layers.shape_batch_s": s["layers.shape_batch"].inclusive,
            "layers.shape_batch_self_s": s["layers.shape_batch"].self_time,
            "layers.dno_matrix_s": s["layers.dno_matrix"].inclusive,
            "layers.solve_s": s["layers.solve"].inclusive,
            "layers.interior_dy_row_s": s["layers.interior_dy_row"].inclusive,
            "system.prepare_s": s["system.prepare"].inclusive,
            "system.residual_only_frac":
                out["system.prepares_residual_only"]
                / max(out["system.prepares"], 1),
            "system.jacobian_s": s["system.jacobian"].inclusive,
            "system.jacobian_self_s": s["system.jacobian"].self_time,
            "system.residual_s": s["system.residual"].inclusive,
            "continuation.accept_ratio":
                self.accepted / max(out["continuation.attempts"], 1),
            "continuation.iterations_per_point":
                self.accepted_iterations / max(self.accepted, 1),
            # with no damping trials nothing was wasted: the ratio reads 1
            "continuation.damping_accept_ratio":
                self.damping_accepted / self.damping_trials
                if self.damping_trials else 1.0,
            "continuation.corrector_self_s":
                s["continuation.corrector"].self_time,
            "continuation.tangent_s": s["continuation.tangent"].inclusive,
            "continuation.point_diag_s":
                s["continuation.point_diag"].inclusive,
            "continuation.guard_s": s["continuation.guard"].inclusive,
            "vortex.traces_s": s["vortex.traces"].inclusive,
            "spectral.busy_s": s["spectral"].inclusive,
            "persistence.write_s": s["persistence.write"].inclusive,
        })
        return out


_BEFORE = {
    "system.prepare": Tracer._before_prepare,
    "system.jacobian": Tracer._before_jacobian,
    "continuation.corrector": Tracer._before_corrector,
    "continuation.point_diag": Tracer._before_point,
    "layers.factor": Tracer._before_factor,
    "layers.backsolve": Tracer._before_backsolve,
}

_AFTER = {
    "system.prepare": Tracer._after_prepare,
    "continuation.corrector": Tracer._after_corrector,
}
