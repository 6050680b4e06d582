"""The steady-wave system map, its Jacobian, and the flat-state linearization.

Unknowns are (elevation, upper trace, lower trace, speed) with the vortex
strength as the continuation parameter.  The four residual blocks are

  dynamic         pressure balance on the interface: speed coupling, squared
                  trace velocities of both layers, gravity, curvature,
                  minus the Bernoulli constant;
  kinematic_upper upper trace + strength * upper vortex trace + speed * elevation;
  kinematic_lower same for the lower layer;
  drift           speed + vertical interior derivative of the lower harmonic
                  extension at the vortex, minus the pair-induced speed term.

All fields live on the even cosine band of a CollocationGrid; residual blocks
are collocated on the half grid and projected back to coefficients, so parity
is exact by construction.  The upper layer is solved as the lower strip under
the reflected interface -elevation, so this is the only module that knows
which side a layer is on.

The analytic Jacobian assembles the true Fréchet derivative: the quadratic
velocity terms contribute (state factor) * (derivative factor), and the
composition of the vortex traces with the moving interface contributes
strength-weighted second-derivative terms in the elevation block.
jacobian_fd is a literal central difference of the residual and serves as
the referee for the analytic assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry
from .layers import (
    LayerGeometry,
    LayerOperators,
    WorkBuffers,
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
    bernoulli_constant: float = 0.0
    pair: VortexPair = VortexPair((0.0, -0.5), (0.0, 0.5))

    def __post_init__(self):
        for name in ("rho_lower", "rho_upper", "gravity", "surface_tension",
                     "depth", "half_period", "bernoulli_constant"):
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

    def block_norms(self) -> tuple[float, float, float, float]:
        return (
            float(np.linalg.norm(self.dynamic.coeffs)),
            float(np.linalg.norm(self.kinematic_upper.coeffs)),
            float(np.linalg.norm(self.kinematic_lower.coeffs)),
            abs(self.drift),
        )


@dataclass
class PreparedState:
    """Per-state solve products shared by the residual and the Jacobian."""

    state: WaveState
    elevation_half: np.ndarray
    slope_half: np.ndarray
    curvature_half: np.ndarray
    ops_lower: LayerOperators
    ops_upper: LayerOperators
    sol_lower: object
    sol_upper: object
    dno_lower_half: np.ndarray
    dno_upper_half: np.ndarray
    dxt_lower: np.ndarray
    dxt_upper: np.ndarray
    traces: VortexTraces
    interior_dy: float


class WaveSystem:
    """Residual, Jacobian, and flat linearization on one discretization."""

    def __init__(self, params: PhysicalParameters, n_modes: int,
                 m_vertical: int):
        self.params = params
        self.grid = CollocationGrid(params.half_period, n_modes)
        self.m_vertical = int(m_vertical)
        self.pair_speed = pair_induced_speed(params.pair, params.half_period)
        g = self.grid
        self._coeffs_to_dx = g.half_d1 @ g._cos_mat
        self._coeffs_to_dxx = g.half_d2 @ g._cos_mat
        # scratch of every layer operator this system builds
        self._work = WorkBuffers()

    @property
    def n_unknowns(self) -> int:
        return 3 * (self.grid.n_modes + 1) + 1

    def origin(self) -> WaveState:
        return WaveState.zero(self.grid.n_modes)

    # -- state preparation -----------------------------------------------------

    def prepare(self, state: WaveState) -> PreparedState:
        """Solve both layers for the state's traces and sample vortex fields."""
        g = self.grid
        p = self.params
        e = g.even_values_half(state.elevation)
        ex = g.half_d1 @ e
        exx = g.half_d2 @ e
        ops_low = LayerOperators(
            LayerGeometry(g, p.depth, state.elevation), self.m_vertical,
            self._work)
        # the upper fluid over eta is the lower strip under -eta
        ops_up = LayerOperators(
            LayerGeometry(g, p.depth, EvenField(-state.elevation.coeffs)),
            self.m_vertical, self._work)
        sol_low = ops_low.solve(state.trace_lower)
        sol_up = ops_up.solve(state.trace_upper)
        traces = vortex_traces(p.pair, g.half_nodes, e, p.half_period)
        return PreparedState(
            state=state,
            elevation_half=e,
            slope_half=ex,
            curvature_half=exx,
            ops_lower=ops_low,
            ops_upper=ops_up,
            sol_lower=sol_low,
            sol_upper=sol_up,
            dno_lower_half=ops_low.dno_values_half(sol_low),
            dno_upper_half=ops_up.dno_values_half(sol_up),
            dxt_lower=g.half_d1 @ g.even_values_half(state.trace_lower),
            dxt_upper=g.half_d1 @ g.even_values_half(state.trace_upper),
            traces=traces,
            interior_dy=ops_low.eval_interior_dy(sol_low, p.pair.lower),
        )

    @staticmethod
    def _velocity(prep: PreparedState, dno_half, dxt, gamma: float):
        """Normal/tangential trace velocity (a, b) of one layer, half grid.

        gamma is the vortex strength the layer sees: the strength below the
        interface, minus it above, where the vortex fields are the negatives
        of the lower layer's.
        """
        d = 1.0 + prep.slope_half**2
        ex = prep.slope_half
        tr = prep.traces
        a = (dno_half + ex * dxt) / d + gamma * tr.phi_y
        b = (dxt - ex * dno_half) / d + gamma * tr.phi_x
        return a, b

    def _velocity_parts(self, prep: PreparedState, strength: float):
        """(a_low, b_low, a_up, b_up): `_velocity` of both layers."""
        return (*self._velocity(prep, prep.dno_lower_half, prep.dxt_lower,
                                strength),
                *self._velocity(prep, prep.dno_upper_half, prep.dxt_upper,
                                -strength))

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
        ex = prep.slope_half
        exx = prep.curvature_half
        tr = prep.traces
        a_low, b_low, a_up, b_up = self._velocity_parts(prep, strength)

        dynamic = (
            c * (p.rho_upper * a_up - p.rho_lower * a_low)
            + 0.5 * p.rho_upper * (a_up**2 + b_up**2)
            - 0.5 * p.rho_lower * (a_low**2 + b_low**2)
            + p.buoyancy * e
            + p.surface_tension * exx / (1.0 + ex**2) ** 1.5
            - p.bernoulli_constant
        )
        kin_up = (
            self.grid.even_values_half(prep.state.trace_upper)
            - strength * tr.phi
            + c * e
        )
        kin_low = (
            self.grid.even_values_half(prep.state.trace_lower)
            + strength * tr.phi
            + c * e
        )
        drift = c + prep.interior_dy - self.pair_speed * strength
        return Residual(
            dynamic=self._project(dynamic),
            kinematic_upper=self._project(kin_up),
            kinematic_lower=self._project(kin_low),
            drift=float(drift),
        )

    def residual(self, state: WaveState, strength: float) -> Residual:
        return self.residual_prepared(self.prepare(state), strength)

    # -- strength derivative ------------------------------------------------------

    def strength_derivative(self, prep: PreparedState, strength: float) -> Residual:
        """Analytic derivative of the residual in the strength parameter."""
        p = self.params
        c = prep.state.speed
        tr = prep.traces
        a_low, b_low, a_up, b_up = self._velocity_parts(prep, strength)
        dyn = (
            -c * (p.rho_upper * tr.phi_y + p.rho_lower * tr.phi_y)
            - p.rho_upper * (a_up * tr.phi_y + b_up * tr.phi_x)
            - p.rho_lower * (a_low * tr.phi_y + b_low * tr.phi_x)
        )
        return Residual(
            dynamic=self._project(dyn),
            kinematic_upper=self._project(-tr.phi),
            kinematic_lower=self._project(tr.phi),
            drift=-self.pair_speed,
        )

    # -- Jacobian ------------------------------------------------------------------

    def jacobian_prepared(self, prep: PreparedState, strength: float) -> np.ndarray:
        """Analytic Jacobian over (elevation, upper trace, lower trace, speed)."""
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
        dxc = self._coeffs_to_dx
        dxxc = self._coeffs_to_dxx
        # the pointed shape batch comes first, so that the lower layer's one
        # adjoint block carries the vortex functional for all three products
        s_low, drift_shape = prep.ops_lower.shape_batch(prep.sol_lower,
                                                        p.pair.lower)
        # the upper strip is built under -elevation (see prepare): chain rule
        s_up = -prep.ops_upper.shape_batch(prep.sol_upper)[0]
        dno_low = basis @ prep.ops_lower.dno_matrix()
        dno_up = basis @ prep.ops_upper.dno_matrix()

        def col(v):
            return v[:, None]

        def dynamic_columns(weight, gamma, dno_half, dxt, dno, shape):
            """One layer's share weight * ((speed + a) a' + b b') of the
            dynamic block: its trace columns, its elevation columns (shape,
            slope and vortex composition terms) and its speed column."""
            a, b = self._velocity(prep, dno_half, dxt, gamma)
            a_mat = (dno + col(ex) * dxc) / col(d)
            b_mat = (dxc - col(ex) * dno) / col(d)
            da = (shape / col(d)
                  + col(dxt / d - 2.0 * ex * (a - gamma * tr.phi_y) / d) * dxc
                  + gamma * col(tr.phi_yy) * basis)
            db = (-col(ex / d) * shape
                  + col(-dno_half / d - 2.0 * ex * (b - gamma * tr.phi_x) / d) * dxc
                  + gamma * col(tr.phi_xy) * basis)
            return (weight * (col(c + a) * a_mat + col(b) * b_mat),
                    weight * (col(c + a) * da + col(b) * db),
                    weight * a)

        dyn_lower, eta_lower, speed_lower = dynamic_columns(
            -p.rho_lower, strength, prep.dno_lower_half, prep.dxt_lower,
            dno_low, s_low)
        dyn_upper, eta_upper, speed_upper = dynamic_columns(
            p.rho_upper, -strength, prep.dno_upper_half, prep.dxt_upper,
            dno_up, s_up)
        # buoyancy and the curvature linearization complete the elevation
        # columns
        dyn_eta = (
            eta_lower + eta_upper
            + p.buoyancy * basis
            + p.surface_tension * (col(d**-1.5) * dxxc
                                   - col(3.0 * exx * ex * d**-2.5) * dxc)
        )
        dyn_speed = speed_upper + speed_lower

        jac = np.zeros((self.n_unknowns, self.n_unknowns))
        r1 = slice(0, n)
        r2 = slice(n, 2 * n)
        r3 = slice(2 * n, 3 * n)
        ceta = slice(0, n)
        cup = slice(n, 2 * n)
        clow = slice(2 * n, 3 * n)

        jac[r1, ceta] = proj @ dyn_eta
        jac[r1, cup] = proj @ dyn_upper
        jac[r1, clow] = proj @ dyn_lower
        jac[r1, -1] = proj @ dyn_speed

        jac[r2, ceta] = proj @ (col(c - strength * tr.phi_y) * basis)
        jac[r2, cup] = np.eye(n)
        jac[r2, -1] = prep.state.elevation.coeffs

        jac[r3, ceta] = proj @ (col(c + strength * tr.phi_y) * basis)
        jac[r3, clow] = np.eye(n)
        jac[r3, -1] = prep.state.elevation.coeffs

        jac[-1, ceta] = drift_shape
        jac[-1, clow] = prep.ops_lower.interior_dy_row(p.pair.lower)
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
        jac[n:2 * n, n:2 * n] = np.eye(n)
        jac[2 * n:3 * n, 2 * n:3 * n] = np.eye(n)
        jac[-1, 2 * n:3 * n] = flat_interior_dy_symbol(
            g, p.depth, p.pair.lower[1]
        )
        jac[-1, -1] = 1.0
        return jac
