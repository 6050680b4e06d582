"""The steady-wave system map, its Jacobian, and the flat-state linearization.

Unknowns are (elevation, upper trace, lower trace, speed) with the vortex
strength as the continuation parameter.  The four residual blocks are

  dynamic         pressure balance on the interface: speed coupling, squared
                  trace velocities of both layers, gravity and curvature;
  kinematic_upper upper trace + strength * upper vortex trace + speed * elevation;
  kinematic_lower same for the lower layer;
  drift           speed + vertical interior derivative of the lower harmonic
                  extension at the vortex, minus the pair-induced speed term.

All fields live on the even cosine band of a CollocationGrid; residual
blocks are collocated on the half grid and projected back to coefficients,
so parity is exact by construction.  The residual and its strength
derivative are each one vector in the order of `WaveState.to_vector`.
Each fluid is one FluidLayer, which holds its strip's one
`layers.LayerOperators`, and every block is one per-layer expression over
the two, so this is the only module that knows which side a layer is on.

- `WaveSystem.prepare` solves both layers for a state's traces, from the
  last state's nodal values; `residual_prepared` reads them.
- `jacobian_prepared` is the analytic Jacobian, the true Fréchet
  derivative, its adjoint blocks predicted from the last one's;
  `flat_jacobian` is the flat chord; `flat_linearization` is the origin
  Jacobian from multipliers alone; `jacobian_fd` and
  `strength_derivative_fd` are central-difference referees.
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

#: central-difference step of the strength-derivative cross-check.  The
#: residual is quadratic in the strength, so the central difference has no
#: truncation error and only roundoff, about eps max|F| / EPS_STEP: a
#: large step keeps that below the check's 1e-7 once surface tension
#: scales the residual (at 1e-6 it reached 3.4e-7 at surface_tension 3e4)
EPS_STEP = 1e-2


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
        if not self.rho_upper > 0:
            raise ValueError("upper density must be positive")
        if not self.rho_upper < self.rho_lower:
            raise ValueError("upper density must be below the lower: "
                             "(rho_upper - rho_lower) * gravity < 0 "
                             "required")
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
class FluidLayer:
    """One fluid's side of the interface and its trace solve.

    sign is +1 for the lower fluid and -1 for the upper: the layer sees
    sign * strength, and its strip lies under sign * elevation.  weight is
    its signed density in the dynamic block, values the nodal values of
    the trace solve, and the operator's probe, when set, the point whose
    vertical derivative enters the drift row.
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
        # the starts of the next solves: the (upper, lower) nodal values of
        # the last state prepared, and the elevation and (upper, lower)
        # float32 Z - Z0 of the last analytic Jacobian
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
        it keeps in their place: in the continuation corrector that is a
        nearby state.  The system keeps no prepared state and no operator,
        whose LU factors would outlive their point.
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

    def _project(self, values: np.ndarray) -> np.ndarray:
        coeffs = self.grid._cos_inv @ values
        if not np.all(np.isfinite(coeffs)):  # e.g. squared velocities overflow
            raise NonFiniteEntry("residual block has non-finite entries")
        return coeffs

    # -- residual ---------------------------------------------------------------

    def residual_prepared(self, prep: PreparedState, strength: float
                          ) -> np.ndarray:
        """The residual vector: the dynamic, upper kinematic and lower
        kinematic coefficients, then the drift, in the block order of
        `WaveState.to_vector`."""
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
        return np.concatenate([self._project(dynamic), *kinematic, [drift]])

    def residual(self, state: WaveState, strength: float) -> np.ndarray:
        return self.residual_prepared(self.prepare(state), strength)

    # -- strength derivative ------------------------------------------------------

    def strength_derivative(self, prep: PreparedState, strength: float
                            ) -> np.ndarray:
        """Analytic derivative of the residual vector in the strength."""
        c = prep.state.speed
        tr = prep.traces
        dynamic = 0.0
        kinematic = []
        for layer in prep.layers:
            a, b = self._velocity(prep, layer, strength)
            dynamic = dynamic + layer.sign * layer.weight * (
                (c + a) * tr.phi_y + b * tr.phi_x)
            kinematic.append(self._project(layer.sign * tr.phi))
        return np.concatenate([self._project(dynamic), *kinematic,
                               [-self.pair_speed]])

    # -- Jacobian ------------------------------------------------------------------

    def jacobian_prepared(self, prep: PreparedState, strength: float
                          ) -> np.ndarray:
        """Analytic Jacobian over (elevation, upper trace, lower trace, speed).

        The quadratic velocity terms contribute (state factor) *
        (derivative factor), and the vortex traces, composed with the
        moving interface, strength-weighted second derivatives in the
        elevation block.  Each layer's adjoint block starts from the
        prediction of `layers.LayerOperators.adjoint_block`, whose Z - Z0
        this system keeps and scales in place; the first analytic Jacobian
        keeps none, so a run that builds one allocates none.
        """
        eta = prep.state.elevation.coeffs
        last, self._elevation = self._elevation, eta
        if last is not None:
            square = float(np.dot(last, last))
            scale = float(np.dot(eta, last)) / square if square > 0.0 else 0.0
            n = self.grid.n_modes + 1
            for i, layer in enumerate(prep.layers):
                if self._deviations[i] is None:  # the second starts from Z0
                    self._deviations[i] = np.zeros(
                        (n, n + (layer.ops.probe is not None),
                         self.m_vertical + 1), np.float32)
                else:
                    self._deviations[i] *= scale
        return self._jacobian(prep, strength, self._deviations)

    def flat_jacobian(self, prep: PreparedState, strength: float) -> np.ndarray:
        """The flat chord: the analytic Jacobian with each layer's solves on
        its flat strip.

        Each layer's adjoint block A^-T [E^T | e] is replaced by its
        closed-form flat block Z0 = M^-T [E^T | e], M the flat strip at the
        layer's mean thickness (`layers.LayerOperators.flat_adjoint_block`),
        which the layer products read without forming it: no solve, and
        exact where both strips have constant thickness, as at a guess of
        zero elevation.  The continuation corrector factors it as the chord
        of its fixed-strength solve.
        """
        return self._jacobian(prep, strength, None)

    def _jacobian(self, prep: PreparedState, strength: float,
                  kept: list[np.ndarray | None] | None) -> np.ndarray:
        """The Jacobian assembly of `jacobian_prepared`, whose adjoint
        blocks start from the (upper, lower) `kept`, and, when `kept` is
        None, of `flat_jacobian`.  Each layer's block is solved, read by
        its three layer products and dropped before the next layer's, so
        one block is alive at a time."""
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
            # k - 1 is the layer's place in (upper, lower)
            z = None if kept is None else layer.ops.adjoint_block(kept[k - 1])
            shape, probe_shape = layer.ops.shape_batch(layer.values, z)
            shape = layer.sign * shape  # strip under sign * elevation
            dno = _blas_product(basis, layer.ops.dno_matrix(z))

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
                jac[-1, block] = layer.ops.interior_dy_row(z)
            del z

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

    def jacobian_fd(self, state: WaveState, strength: float) -> np.ndarray:
        base = state.to_vector()
        n_modes = self.grid.n_modes
        jac = np.empty((self.n_unknowns, self.n_unknowns))
        for j in range(base.size):
            bump = np.zeros_like(base)
            bump[j] = FD_STEP
            plus = self.residual(WaveState.from_vector(base + bump, n_modes),
                                 strength)
            minus = self.residual(WaveState.from_vector(base - bump, n_modes),
                                  strength)
            jac[:, j] = (plus - minus) / (2.0 * FD_STEP)
        return jac

    def strength_derivative_fd(self, state: WaveState, strength: float
                               ) -> np.ndarray:
        plus = self.residual(state, strength + EPS_STEP)
        minus = self.residual(state, strength - EPS_STEP)
        return (plus - minus) / (2.0 * EPS_STEP)

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
