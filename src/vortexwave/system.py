"""The steady-wave system map, its Jacobian, and the flat-state linearization.

Unknowns are (elevation, upper trace, lower trace, speed) with the vortex
strength as the continuation parameter.  The four residual blocks are

  dynamic         pressure balance on the interface: speed coupling, squared
                  trace velocities of both layers, gravity and curvature;
  kinematic_upper upper trace + strength * upper vortex trace + speed * elevation;
  kinematic_lower same for the lower layer;
  drift           speed + vertical interior derivative of the lower harmonic
                  extension at the vortex, minus the pair-induced speed term.

All fields live on the even cosine band of a CollocationGrid; residual blocks
are collocated on the half grid and projected back to coefficients, so parity
is exact by construction.  Each fluid is one FluidLayer, and every block is
one per-layer expression over the two: a layer of sign +1 (lower) or -1
(upper) sees sign * strength and is solved as the lower strip under
sign * elevation, so this is the only module that knows which side a layer
is on.  A FluidLayer holds its strip's one `layers.LayerOperators`, probed
at the vortex on the lower side, and the nodal values of its trace solve.

A WaveSystem decides where its layer solves start, from arrays it keeps.
Each prepare starts its trace solves from the nodal values of the last
state prepared: in the continuation corrector that is a nearby state, the
last difference point about 1e-7 away, the last damping trial, or a
branch step's base point.  Each analytic Jacobian after the first starts
its adjoint blocks from the last one's Z - Z0, scaled by the elevation
(Allgower & Georg, Numerical Continuation Methods, 1990).  Starts change
how many Krylov vectors a solve builds, not what it converges to.  The
system keeps no prepared state and no operator, whose adjoint blocks
would outlive their point.

The analytic Jacobian assembles the true Fréchet derivative: the quadratic
velocity terms contribute (state factor) * (derivative factor), and the
composition of the vortex traces with the moving interface contributes
strength-weighted second-derivative terms in the elevation block.
flat_jacobian is the same assembly with each layer's solves replaced by
its flat strip's, cheap and exact on strips of constant thickness, which
the continuation corrector factors as the chord of its fixed-strength
solve, at the guess and before each Newton-Krylov step.
jacobian_fd is a literal central difference of the residual and serves as
the referee for the analytic assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .errors import NonFiniteEntry, SingularEvaluation
from .layers import (
    LayerOperators,
    WorkBuffers,
    _blas_product,
    flat_interior_dy_symbol,
)
from .spectral import CollocationGrid, EvenField
from .vortex import (
    VortexPair,
    VortexTraces,
    pair_induced_speed,
    vortex_traces,
)

#: central-difference step of the fd Jacobian referee
FD_STEP = 1e-5

#: central-difference step of the strength-derivative cross-check
EPS_STEP = 1e-6


@dataclass(frozen=True)
class PhysicalParameters:
    """Densities, restoring forces, geometry, and the vortex pair."""

    rho_lower: float = 1.0
    rho_upper: float = 0.9
    gravity: float = 1.0
    surface_tension: float = 0.1
    depth: float = 1.0
    half_period: float = float(np.pi)
    pair: VortexPair = VortexPair((0.0, -0.5), (0.0, 0.5))

    def __post_init__(self):
        for name in ("rho_lower", "rho_upper", "gravity", "surface_tension",
                     "depth", "half_period"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.rho_lower > 0:
            raise ValueError("lower density must be positive")
        if not 0 < self.rho_upper < self.rho_lower:
            raise ValueError("need 0 < upper density < lower density")
        if not (self.gravity > 0 and self.surface_tension > 0):
            raise ValueError("gravity and surface tension must be positive")
        if not (self.depth > 0 and self.half_period > 0):
            raise ValueError("depth and half period must be positive")
        if not -self.depth < self.pair.lower[1] < 0:
            raise ValueError("vortex must sit strictly inside the lower layer")
        if not 0 < self.pair.upper[1] < self.depth:
            raise ValueError("phantom must sit strictly inside the upper layer")
        # the periodized kernel grows like exp(pi |dy| / half_period) and
        # overflows once the period is short against the pair's separation
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                speed = pair_induced_speed(self.pair, self.half_period)
        except OverflowError:
            speed = np.inf
        except SingularEvaluation as exc:  # the pair all but coincides
            raise ValueError(f"vortex_y and phantom_y: {exc}") from exc
        if not np.isfinite(speed):
            raise ValueError("half_period is too short for the vortex pair: "
                             "the periodized kernel overflows")

    @property
    def buoyancy(self) -> float:
        """(upper - lower) density times gravity; negative by construction."""
        return (self.rho_upper - self.rho_lower) * self.gravity


@dataclass(frozen=True)
class WaveState:
    """One point of the unknown vector: three even fields and the speed."""

    elevation: EvenField
    trace_upper: EvenField
    trace_lower: EvenField
    speed: float

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.elevation.coeffs,
            self.trace_upper.coeffs,
            self.trace_lower.coeffs,
            [self.speed],
        ])

    @staticmethod
    def from_vector(vec: np.ndarray, n_modes: int) -> "WaveState":
        n = n_modes + 1
        if vec.size != 3 * n + 1:
            raise ValueError("vector length does not match the band")
        return WaveState(
            elevation=EvenField(vec[:n]),
            trace_upper=EvenField(vec[n:2 * n]),
            trace_lower=EvenField(vec[2 * n:3 * n]),
            speed=float(vec[-1]),
        )

    @staticmethod
    def zero(n_modes: int) -> "WaveState":
        z = np.zeros(n_modes + 1)
        return WaveState(EvenField(z), EvenField(z.copy()), EvenField(z.copy()), 0.0)


@dataclass(frozen=True)
class Residual:
    """The four system blocks evaluated at one (state, strength) pair."""

    dynamic: EvenField
    kinematic_upper: EvenField
    kinematic_lower: EvenField
    drift: float

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.dynamic.coeffs,
            self.kinematic_upper.coeffs,
            self.kinematic_lower.coeffs,
            [self.drift],
        ])


@dataclass(frozen=True)
class FluidLayer:
    """One fluid's side of the interface and its trace solve.

    sign is +1 for the lower fluid and -1 for the upper: the layer sees
    sign * strength, and its strip lies under sign * elevation.  weight is
    its signed density in the dynamic block.  The operator's probe is the
    interior point whose vertical derivative enters the drift row (None:
    no drift row), and values the nodal values of the trace solve.
    """

    sign: float
    weight: float
    trace_half: np.ndarray
    ops: LayerOperators
    values: np.ndarray
    dno_half: np.ndarray
    dxt: np.ndarray


@dataclass
class PreparedState:
    """Per-state solve products shared by the residual and the Jacobian."""

    state: WaveState
    elevation_half: np.ndarray
    slope_half: np.ndarray
    curvature_half: np.ndarray
    upper: FluidLayer
    lower: FluidLayer
    traces: VortexTraces
    interior_dy: float

    @property
    def layers(self) -> tuple[FluidLayer, FluidLayer]:
        """(upper, lower): the order of the trace blocks."""
        return self.upper, self.lower


class WaveSystem:
    """Residual, Jacobian, and flat linearization on one discretization."""

    def __init__(self, params: PhysicalParameters, n_modes: int,
                 m_vertical: int):
        self.params = params
        self.grid = CollocationGrid(params.half_period, n_modes)
        self.m_vertical = int(m_vertical)
        self.pair_speed = pair_induced_speed(params.pair, params.half_period)
        # scratch of every layer operator this system builds
        self._work = WorkBuffers()
        # what the last solves leave to start the next: the (upper, lower)
        # nodal values of the last state prepared, and the elevation
        # coefficients and (upper, lower) float32 Z - Z0 of the last
        # analytic Jacobian
        self._values = (None, None)
        self._elevation: np.ndarray | None = None
        self._deviations: list[np.ndarray | None] = [None, None]

    @property
    def n_unknowns(self) -> int:
        return 3 * (self.grid.n_modes + 1) + 1

    def origin(self) -> WaveState:
        return WaveState.zero(self.grid.n_modes)

    # -- state preparation -----------------------------------------------------

    def prepare(self, state: WaveState) -> PreparedState:
        """Solve both layers for the state's traces and sample vortex fields.

        Each layer's trace solve starts from its nodal values at the last
        state this system prepared (`layers.LayerOperators.solve`), which
        it keeps in their place.
        """
        g = self.grid
        p = self.params
        e = g.even_values_half(state.elevation)
        upper_guess, lower_guess = self._values
        lower = self._layer(1.0, -p.rho_lower, state.elevation,
                            state.trace_lower, lower_guess, p.pair.lower)
        upper = self._layer(-1.0, p.rho_upper, state.elevation,
                            state.trace_upper, upper_guess)
        prep = PreparedState(
            state, e, g.half_d1 @ e, g.half_d2 @ e, upper, lower,
            vortex_traces(p.pair, g.half_nodes, e, p.half_period),
            lower.ops.eval_interior_dy(lower.values))
        self._values = (upper.values, lower.values)
        return prep

    def _layer(self, sign: float, weight: float, elevation: EvenField,
               trace: EvenField, guess: np.ndarray | None,
               probe=None) -> FluidLayer:
        """Build and solve one layer's strip under sign * elevation."""
        g = self.grid
        ops = LayerOperators(g, self.params.depth,
                             EvenField(sign * elevation.coeffs),
                             self.m_vertical, self._work, probe)
        values = ops.solve(trace, guess)
        trace_half = g.even_values_half(trace)
        return FluidLayer(sign, weight, trace_half, ops, values,
                          ops.dno_values_half(values), g.half_d1 @ trace_half)

    @staticmethod
    def _velocity(prep: PreparedState, layer: FluidLayer, strength: float):
        """Normal/tangential trace velocity (a, b) of one layer, half grid."""
        gamma = layer.sign * strength
        d = 1.0 + prep.slope_half**2
        ex = prep.slope_half
        tr = prep.traces
        a = (layer.dno_half + ex * layer.dxt) / d + gamma * tr.phi_y
        b = (layer.dxt - ex * layer.dno_half) / d + gamma * tr.phi_x
        return a, b

    def _project(self, values: np.ndarray) -> EvenField:
        coeffs = self.grid._cos_inv @ values
        if not np.all(np.isfinite(coeffs)):  # e.g. squared velocities overflow
            raise NonFiniteEntry("residual block has non-finite entries")
        return EvenField(coeffs)

    # -- residual ---------------------------------------------------------------

    def residual_prepared(self, prep: PreparedState, strength: float) -> Residual:
        p = self.params
        c = prep.state.speed
        e = prep.elevation_half
        tr = prep.traces
        dynamic = (p.buoyancy * e + p.surface_tension * prep.curvature_half
                   / (1.0 + prep.slope_half**2) ** 1.5)
        kinematic = []
        for layer in prep.layers:
            a, b = self._velocity(prep, layer, strength)
            dynamic = dynamic + layer.weight * (c * a + 0.5 * (a**2 + b**2))
            kinematic.append(self._project(
                layer.trace_half + layer.sign * strength * tr.phi + c * e))
        drift = c + prep.interior_dy - self.pair_speed * strength
        return Residual(self._project(dynamic), *kinematic, float(drift))

    def residual(self, state: WaveState, strength: float) -> Residual:
        return self.residual_prepared(self.prepare(state), strength)

    # -- strength derivative ------------------------------------------------------

    def strength_derivative(self, prep: PreparedState, strength: float) -> Residual:
        """Analytic derivative of the residual in the strength parameter."""
        c = prep.state.speed
        tr = prep.traces
        dynamic = 0.0
        kinematic = []
        for layer in prep.layers:
            a, b = self._velocity(prep, layer, strength)
            dynamic = dynamic + layer.sign * layer.weight * (
                (c + a) * tr.phi_y + b * tr.phi_x)
            kinematic.append(self._project(layer.sign * tr.phi))
        return Residual(self._project(dynamic), *kinematic, -self.pair_speed)

    # -- Jacobian ------------------------------------------------------------------

    def jacobian_prepared(self, prep: PreparedState, strength: float
                          ) -> np.ndarray:
        """Analytic Jacobian over (elevation, upper trace, lower trace, speed).

        Each layer's adjoint block starts from its flat block plus the
        Z - Z0 this system kept from its last analytic Jacobian, scaled by
        lambda = <eta, eta_prev> / <eta_prev, eta_prev> over the elevation
        coefficients, and writes its own Z - Z0 over it
        (`layers.LayerOperators.track_adjoint_deviation`), whether its
        panels take Richardson steps, GMRES or the LU step.  A block starts
        flat where there is none to scale: at the system's second analytic
        Jacobian, and after an elevation of zero.  A system's first
        analytic Jacobian keeps none, so a run that builds one allocates
        none.  The Jacobian is the same either way, to the solves'
        tolerance.
        """
        eta = prep.state.elevation.coeffs
        last, self._elevation = self._elevation, eta
        if last is None:
            return self._jacobian(prep, strength, flat=False)
        square = float(np.dot(last, last))
        scale = float(np.dot(eta, last)) / square if square > 0.0 else 0.0
        for layer, kept in zip(prep.layers, self._deviations):
            if kept is not None and scale != 0.0:
                kept *= scale
            else:
                kept = None
            layer.ops.track_adjoint_deviation(kept)
        jac = self._jacobian(prep, strength, flat=False)
        self._deviations = [layer.ops.adjoint_deviation
                            for layer in prep.layers]
        return jac

    def flat_jacobian(self, prep: PreparedState, strength: float) -> np.ndarray:
        """The analytic Jacobian with each layer's solves on its flat strip.

        Each layer's products are those of its `flat_adjoint_block`, M^-T
        [E^T | e] with M the flat strip at the layer's mean thickness, in
        place of A^-T [E^T | e], taken in closed form without forming the
        block (`layers.LayerOperators.shape_batch` with `flat`): no solve,
        and exact where both strips have constant thickness.  Everything
        else is as in `jacobian_prepared`.
        """
        return self._jacobian(prep, strength, flat=True)

    def _jacobian(self, prep: PreparedState, strength: float, flat: bool
                  ) -> np.ndarray:
        """The Jacobian assembly of `jacobian_prepared` and, when `flat`,
        of `flat_jacobian`."""
        g = self.grid
        p = self.params
        n = g.n_modes + 1
        c = prep.state.speed
        ex = prep.slope_half
        exx = prep.curvature_half
        d = 1.0 + ex**2
        tr = prep.traces

        proj = g._cos_inv
        basis = g._cos_mat
        dxc = g.half_d1_coeffs
        dxxc = g.half_d2_coeffs

        def col(v):
            return v[:, None]

        jac = np.zeros((self.n_unknowns, self.n_unknowns))
        dyn_eta = dyn_speed = 0.0
        for k, layer in ((2, prep.lower), (1, prep.upper)):
            block = slice(k * n, (k + 1) * n)  # its trace columns and row
            gamma = layer.sign * strength
            shape, probe_shape = layer.ops.shape_batch(layer.values, flat)
            shape = layer.sign * shape  # strip under sign * elevation
            dno = _blas_product(basis, layer.ops.dno_matrix(flat))

            # its share weight * ((speed + a) a' + b b') of the dynamic
            # block: trace columns, elevation columns (shape, slope and
            # vortex composition terms) and speed column
            a, b = self._velocity(prep, layer, strength)
            dno_half, dxt = layer.dno_half, layer.dxt
            a_mat = (dno + col(ex) * dxc) / col(d)
            b_mat = (dxc - col(ex) * dno) / col(d)
            da = (shape / col(d)
                  + col(dxt / d - 2.0 * ex * (a - gamma * tr.phi_y) / d) * dxc
                  + gamma * col(tr.phi_yy) * basis)
            db = (-col(ex / d) * shape
                  + col(-dno_half / d - 2.0 * ex * (b - gamma * tr.phi_x) / d) * dxc
                  + gamma * col(tr.phi_xy) * basis)
            jac[:n, block] = _blas_product(
                proj, layer.weight * (col(c + a) * a_mat + col(b) * b_mat))
            dyn_eta = dyn_eta + layer.weight * (col(c + a) * da + col(b) * db)
            dyn_speed = dyn_speed + layer.weight * a

            # its kinematic row
            jac[block, :n] = _blas_product(
                proj, col(c + gamma * tr.phi_y) * basis)
            jac[block, block] = np.eye(n)
            jac[block, -1] = prep.state.elevation.coeffs

            if layer.ops.probe is not None:
                jac[-1, :n] = probe_shape
                jac[-1, block] = layer.ops.interior_dy_row(flat)

        # buoyancy and the curvature linearization complete the elevation
        # columns
        dyn_eta = dyn_eta + p.buoyancy * basis + p.surface_tension * (
            col(d**-1.5) * dxxc - col(3.0 * exx * ex * d**-2.5) * dxc)
        jac[:n, :n] = _blas_product(proj, dyn_eta)
        jac[:n, -1] = dgemv(1.0, proj.T, dyn_speed, trans=1)
        jac[-1, -1] = 1.0

        if not np.all(np.isfinite(jac)):
            raise NonFiniteEntry("Jacobian assembly produced non-finite entries")
        return jac

    def jacobian_fd(self, state: WaveState, strength: float,
                    step: float = FD_STEP) -> np.ndarray:
        base = state.to_vector()
        n_modes = self.grid.n_modes
        jac = np.empty((self.n_unknowns, self.n_unknowns))
        for j in range(base.size):
            bump = np.zeros_like(base)
            bump[j] = step
            plus = self.residual(WaveState.from_vector(base + bump, n_modes),
                                 strength)
            minus = self.residual(WaveState.from_vector(base - bump, n_modes),
                                  strength)
            jac[:, j] = (plus.to_vector() - minus.to_vector()) / (2.0 * step)
        return jac

    def strength_derivative_fd(self, state: WaveState, strength: float,
                               step: float = EPS_STEP) -> np.ndarray:
        plus = self.residual(state, strength + step)
        minus = self.residual(state, strength - step)
        return (plus.to_vector() - minus.to_vector()) / (2.0 * step)

    # -- flat closed form -------------------------------------------------------------

    def flat_linearization(self) -> np.ndarray:
        """Origin Jacobian assembled from multipliers alone, no solves."""
        g = self.grid
        p = self.params
        n = g.n_modes + 1
        jac = np.zeros((self.n_unknowns, self.n_unknowns))
        eta_mult = p.buoyancy - p.surface_tension * g.wavenumbers**2
        jac[:n, :n] = np.diag(eta_mult)
        jac[n:3 * n, n:3 * n] = np.eye(2 * n)
        jac[-1, 2 * n:3 * n] = flat_interior_dy_symbol(
            g, p.depth, p.pair.lower[1]
        )
        jac[-1, -1] = 1.0
        return jac
