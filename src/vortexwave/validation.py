"""Built-in invariant suite behind the `validate` subcommand.

One curated check per module-level contract that matters at runtime:
flat-strip operator symbols, the closed-form origin linearization,
finite-difference referees for the Jacobian and the strength derivative,
and the origin tangent.
Each check prints one pass/fail line; the suite is deterministic for a
fixed seed.
"""

from __future__ import annotations

import numpy as np

from .continuation import ContinuationEngine, ContinuationSettings
from .layers import LayerOperators, flat_dno_symbol, flat_interior_dy_symbol
from .spectral import CollocationGrid, EvenField
from .system import PhysicalParameters, WaveState, WaveSystem
from .vortex import vortex_traces


def _random_state(rng, n_modes) -> WaveState:
    n = n_modes + 1
    decay = np.exp(-0.4 * np.arange(n))
    eta = 0.02 * rng.standard_normal(n) * decay
    eta[0] = 0.0
    return WaveState(
        EvenField(eta),
        EvenField(0.05 * rng.standard_normal(n) * decay),
        EvenField(0.05 * rng.standard_normal(n) * decay),
        0.1,
    )


def check_flat_dno(params: PhysicalParameters):
    grid = CollocationGrid(params.half_period, 64)
    symbol = flat_dno_symbol(grid, params.depth)
    # a flat interface is its own reflection: one strip stands for both
    ops = LayerOperators(grid, params.depth, EvenField(np.zeros(65)), 32)
    mat = ops.dno_matrix(ops.adjoint_block())
    worst = max(abs(mat[k, k] - symbol[k]) / abs(symbol[k])
                for k in range(17))
    return worst < 1e-10, f"worst relative multiplier error {worst:.2e}"


def check_origin_linearization(params: PhysicalParameters):
    system = WaveSystem(params, 64, 48)
    origin = system.prepare(system.origin())
    flat = system.flat_linearization()
    gap = np.abs(system.jacobian_prepared(origin, 0.0) - flat).max()
    singulars = np.linalg.svd(
        WaveSystem(params, 64, 32).flat_linearization(), compute_uv=False
    )
    # 1e-9 absolute while the entries stay below 1e3, as at the defaults;
    # relative beyond, where surface tension scales the elevation block
    bound = 1e-12 * max(1e3, np.abs(flat).max())
    ok = gap < bound and singulars[-1] > 1e-6
    return ok, (f"elementwise gap {gap:.2e}, "
                f"smallest singular value {singulars[-1]:.2e}")


def check_jacobian_referee(params: PhysicalParameters, seed: int):
    rng = np.random.default_rng(seed)
    system = WaveSystem(params, 16, 12)
    state = _random_state(rng, 16)
    analytic = system.jacobian_prepared(system.prepare(state), 0.05)
    fd = system.jacobian_fd(state, 0.05)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    return rel < 1e-5, f"relative Frobenius discrepancy {rel:.2e}"


def check_strength_derivative(params: PhysicalParameters, seed: int):
    rng = np.random.default_rng(seed + 1)
    system = WaveSystem(params, 16, 12)
    state = _random_state(rng, 16)
    prep = system.prepare(state)
    gap = np.abs(system.strength_derivative(prep, 0.03)
                 - system.strength_derivative_fd(state, 0.03)).max()
    return gap < 1e-7, f"max entry gap to central difference {gap:.2e}"


def check_origin_tangent(params: PhysicalParameters):
    """The origin tangent against block substitution through the flat
    linearization.  Vacuous for a mirrored pair (phantom_y = -vortex_y, the
    default): the flat traces then vanish, the oracle is the pair speed and
    the gap exactly 0.  Off the mirror it measures the drift row's
    `interior_dy_row` against `flat_interior_dy_symbol`."""
    system = WaveSystem(params, 16, 16)
    engine = ContinuationEngine(system, ContinuationSettings())
    prep = system.prepare(system.origin())
    tang = engine.tangent(prep, 0.0, system.jacobian_prepared(prep, 0.0))
    g = system.grid
    n = g.n_modes + 1
    tr = vortex_traces(params.pair, g.half_nodes, np.zeros(n),
                       params.half_period)
    trace_up = g._cos_inv @ tr.phi
    trace_low = -(g._cos_inv @ tr.phi)
    row = flat_interior_dy_symbol(g, params.depth, params.pair.lower[1])
    speed = system.pair_speed - float(row @ trace_low)
    raw = np.r_[np.zeros(n), trace_up, trace_low, speed, 1.0]
    raw /= np.sqrt(engine.weighted_dot(raw, raw))
    gap = np.abs(tang - raw).max()
    return gap < 1e-8, f"max gap to block substitution {gap:.2e}"


def run_validation(params: PhysicalParameters, seed: int = 0) -> bool:
    """Run every check, print one line each, return overall pass."""
    checks = [
        ("flat_dno_multipliers", lambda: check_flat_dno(params)),
        ("origin_linearization", lambda: check_origin_linearization(params)),
        ("jacobian_fd_referee", lambda: check_jacobian_referee(params, seed)),
        ("strength_derivative_fd", lambda: check_strength_derivative(
            params, seed)),
        ("origin_tangent_oracle", lambda: check_origin_tangent(params)),
    ]
    all_ok = True
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
