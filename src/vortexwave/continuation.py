"""Pseudo-arclength continuation of the wave branch from the trivial solution.

The corrector is damped Newton on the residual augmented with Keller's
arclength constraint.  Tangents are unit null vectors of the bordered
Jacobian under a weighted inner product: discrete H^1 weights on the three
field blocks and unit weights on the speed and the strength, so mode counts
do not drown the scalars.  The first corrector iteration of each step reuses
the Jacobian of the accepted base point; later iterations rebuild it at the
current iterate.

Termination is classified against fixed guards, checked on each converged
candidate before it is accepted.  A candidate that trips a guard is not
appended, so a finished branch is always a valid prefix.  Precedence when
several guards trip at once: vortex proximity, then boundary contact, then
norm blowup.  A step whose corrector fails (no convergence, a guard
violation, a failed layer solve or a non-finite entry at a trial point) is
retried at half the arclength step; once the step falls below ds_min the
branch ends as a Newton failure.  Exhausted step budgets and unrecoverable
Newton failures are reported through the same classification.

Determinant signs come from a pivoted factorization and are recorded as 0
when the smallest singular value drops below 1e-12 of the largest; parity
surveillance along the branch is a plain scan for consecutive sign changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solve

from .errors import (
    DegenerateStrip,
    LinearSolveFailure,
    NewtonFailure,
    NonFiniteEntry,
    SingularBorderedSystem,
    VortexTooClose,
)
from .spectral import pad_coeffs
from .system import PreparedState, WaveState, WaveSystem
from .vortex import min_vortex_distance

#: fraction of the half-gap kept between either vortex and the interface
VORTEX_GUARD_FRACTION = 0.05

#: fraction of the half-gap kept between the interface and the walls
GAP_FLOOR_FRACTION = 0.02

#: smoothness index of the recorded elevation norm and the blowup monitor
DIAGNOSTIC_ORDER = 3

#: relative singular-value floor below which the determinant sign is 0
SIGN_FLOOR = 1e-12

#: step-growth factor after fast corrector convergence
GROWTH = 1.3

#: corrector iteration count considered fast enough to grow the step
FAST_ITERATIONS = 3

#: damping halvings attempted before a corrector iteration is abandoned
MAX_HALVINGS = 5


class Alternative(enum.Enum):
    """How a finished branch ended."""

    UNBOUNDED = "unbounded"
    INTERFACE_TOUCHES_BOUNDARY = "interface_touches_boundary"
    VORTEX_NEAR_INTERFACE = "vortex_near_interface"
    MAX_STEPS_REACHED = "max_steps_reached"
    NEWTON_FAILURE = "newton_failure"


@dataclass(frozen=True)
class ContinuationSettings:
    ds0: float = 5e-4
    ds_min: float = 1e-8
    ds_max: float = 2e-2
    newton_tol: float = 1e-10
    newton_max: int = 25
    max_steps: int = 200
    norm_cap: float = 1e3
    vortex_guard: float | None = None
    gap_floor: float | None = None

    def __post_init__(self):
        if not 0 < self.ds_min <= self.ds0 <= self.ds_max:
            raise ValueError("need 0 < ds_min <= ds0 <= ds_max")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max < 1 or self.max_steps < 1:
            raise ValueError("iteration and step caps must be at least 1")
        if not 0 < self.norm_cap < np.inf:
            raise ValueError("norm_cap must be finite and positive")


@dataclass(frozen=True)
class BranchPoint:
    state: WaveState
    strength: float
    residual_norm: float
    newton_iterations: int
    smallest_singular: float
    det_sign: int
    elevation_norm: float
    elevation_center: float
    vortex_distance: float


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    termination: Alternative | None = None

    @property
    def strengths(self) -> np.ndarray:
        return np.array([p.strength for p in self.points])

    @property
    def det_signs(self) -> list[int]:
        return [p.det_sign for p in self.points]


def classify_termination(vortex_tripped: bool, boundary_tripped: bool,
                         unbounded_tripped: bool,
                         newton_failed: bool = False) -> Alternative:
    """Fixed precedence so simultaneous trips classify deterministically."""
    if vortex_tripped:
        return Alternative.VORTEX_NEAR_INTERFACE
    if boundary_tripped:
        return Alternative.INTERFACE_TOUCHES_BOUNDARY
    if unbounded_tripped:
        return Alternative.UNBOUNDED
    if newton_failed:
        return Alternative.NEWTON_FAILURE
    return Alternative.MAX_STEPS_REACHED


def parity_monitor(points) -> list[int]:
    """Indices where consecutive determinant signs differ."""
    signs = [p.det_sign if isinstance(p, BranchPoint) else int(p)
             for p in points]
    return [i for i in range(1, len(signs))
            if signs[i] != signs[i - 1]]


class ContinuationEngine:
    """Drives one WaveSystem along its branch in the strength parameter."""

    def __init__(self, system: WaveSystem, settings: ContinuationSettings):
        self.system = system
        self.settings = settings
        depth = system.params.depth
        self.vortex_guard = (settings.vortex_guard
                             if settings.vortex_guard is not None
                             else VORTEX_GUARD_FRACTION * depth)
        self.gap_floor = (settings.gap_floor
                          if settings.gap_floor is not None
                          else GAP_FLOOR_FRACTION * depth)
        w1 = system.grid.sobolev_weights(1)
        self.weights = np.concatenate([w1, w1, w1, [1.0, 1.0]])

    # -- norms and diagnostics ---------------------------------------------------

    def weighted_dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(self.weights * u, v))

    def state_norm(self, state: WaveState, strength: float) -> float:
        g = self.system.grid
        parts = [
            g.sobolev_norm(state.elevation, DIAGNOSTIC_ORDER),
            g.sobolev_norm(state.trace_upper, DIAGNOSTIC_ORDER),
            g.sobolev_norm(state.trace_lower, DIAGNOSTIC_ORDER),
            state.speed,
            strength,
        ]
        return float(np.linalg.norm(parts))

    def vortex_distance(self, state: WaveState) -> float:
        g = self.system.grid
        return min_vortex_distance(
            self.system.params.pair, g.half_nodes,
            g.even_values_half(state.elevation),
        )

    def check_guards(self, state: WaveState):
        """Raise if a corrector starting point is outside the admissible set."""
        if self.vortex_distance(state) < self.vortex_guard:
            raise VortexTooClose(
                "trial interface violates the vortex distance guard"
            )
        sup = np.abs(
            self.system.grid.even_values_half(state.elevation)
        ).max()
        if self.system.params.depth - sup < self.gap_floor:
            raise DegenerateStrip(
                "trial interface violates the wall gap floor"
            )

    def _sign_and_sigma(self, jac: np.ndarray) -> tuple[int, float]:
        singulars = np.linalg.svd(jac, compute_uv=False)
        sign = int(np.linalg.slogdet(jac)[0])
        if singulars[-1] < SIGN_FLOOR * singulars[0]:
            sign = 0
        return sign, float(singulars[-1])

    def _point(self, state: WaveState, strength: float, residual_norm: float,
               iterations: int, jac: np.ndarray) -> BranchPoint:
        sign, sigma = self._sign_and_sigma(jac)
        g = self.system.grid
        return BranchPoint(
            state=state,
            strength=strength,
            residual_norm=residual_norm,
            newton_iterations=iterations,
            smallest_singular=sigma,
            det_sign=sign,
            elevation_norm=g.sobolev_norm(state.elevation, DIAGNOSTIC_ORDER),
            elevation_center=float(np.sum(state.elevation.coeffs)),
            vortex_distance=self.vortex_distance(state),
        )

    # -- fixed-strength corrector ---------------------------------------------------

    def newton_correct(self, guess: WaveState, strength: float
                       ) -> tuple[WaveState, int, float, PreparedState]:
        """Damped Newton at fixed strength; returns the converged state."""
        tol = self.settings.newton_tol
        self.check_guards(guess)
        state = guess
        prep = self.system.prepare(state)
        res = self.system.residual_prepared(prep, strength)
        norm = float(np.linalg.norm(res.to_vector()))
        for iteration in range(1, self.settings.newton_max + 1):
            if norm <= tol:
                return state, iteration - 1, norm, prep
            jac = self.system.jacobian_prepared(prep, strength)
            try:
                step = solve(jac, -res.to_vector())
            except LinAlgError as exc:
                raise NewtonFailure("Jacobian solve failed") from exc
            state, prep, res, norm = self._damped_update(
                state, strength, step, norm
            )
        if norm <= tol:
            return state, self.settings.newton_max, norm, prep
        raise NewtonFailure(
            f"no convergence in {self.settings.newton_max} iterations"
        )

    def _damped_update(self, state, strength, step, norm):
        """Walk along the Newton direction, halving until the residual drops."""
        base = state.to_vector()
        n_modes = self.system.grid.n_modes
        scale = 1.0
        last_guard = None
        for _ in range(MAX_HALVINGS + 1):
            trial = WaveState.from_vector(base + scale * step, n_modes)
            try:
                prep = self.system.prepare(trial)
            except (VortexTooClose, DegenerateStrip) as exc:
                last_guard = exc
                scale *= 0.5
                continue
            res = self.system.residual_prepared(prep, strength)
            trial_norm = float(np.linalg.norm(res.to_vector()))
            if trial_norm < norm or trial_norm <= self.settings.newton_tol:
                return trial, prep, res, trial_norm
            scale *= 0.5
        if last_guard is not None:
            raise last_guard
        raise NewtonFailure("damping exhausted without residual decrease")

    # -- tangents -------------------------------------------------------------------

    def tangent(self, prep: PreparedState, strength: float,
                previous: np.ndarray | None = None,
                jac: np.ndarray | None = None) -> np.ndarray:
        """Unit tangent of the branch at a solved point, consistently oriented."""
        n = self.system.n_unknowns
        if jac is None:
            jac = self.system.jacobian_prepared(prep, strength)
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = jac
        bordered[:n, n] = self.system.strength_derivative(
            prep, strength
        ).to_vector()
        if previous is None:
            bordered[n, n] = 1.0
        else:
            bordered[n, :] = self.weights * previous
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        try:
            raw = solve(bordered, rhs)
        except LinAlgError as exc:
            raise SingularBorderedSystem("tangent system is singular") from exc
        if not np.all(np.isfinite(raw)):
            raise SingularBorderedSystem("tangent system is numerically singular")
        raw /= np.sqrt(self.weighted_dot(raw, raw))
        if previous is not None and self.weighted_dot(raw, previous) < 0:
            raw = -raw
        if previous is None and raw[-1] < 0:
            raw = -raw
        return raw

    def solve_at(self, strength: float) -> BranchPoint:
        """One fixed-strength solve seeded by the first-order origin predictor."""
        origin = self.system.origin()
        prep = self.system.prepare(origin)
        jac = self.system.jacobian_prepared(prep, 0.0)
        tang = self.tangent(prep, 0.0, jac=jac)
        guess_vec = origin.to_vector() + (strength / tang[-1]) * tang[:-1]
        guess = WaveState.from_vector(guess_vec, self.system.grid.n_modes)
        state, iterations, norm, solved = self.newton_correct(guess, strength)
        return self._point(state, strength, norm, iterations,
                           self.system.jacobian_prepared(solved, strength))

    # -- arclength corrector ----------------------------------------------------------

    def _arclength_correct(self, base: np.ndarray, tang: np.ndarray,
                           ds: float, chord_jac: np.ndarray):
        """Correct the predicted point back onto the branch at fixed arclength."""
        tol = self.settings.newton_tol
        n = self.system.n_unknowns
        n_modes = self.system.grid.n_modes
        current = base + ds * tang
        state = WaveState.from_vector(current[:n], n_modes)
        strength = float(current[n])
        prep = self.system.prepare(state)
        res = self.system.residual_prepared(prep, strength).to_vector()
        gap = self.weighted_dot(current - base, tang) - ds
        norm = float(np.hypot(np.linalg.norm(res), gap))
        for iteration in range(1, self.settings.newton_max + 1):
            if np.linalg.norm(res) <= tol and abs(gap) <= tol:
                return state, strength, iteration - 1, prep, float(
                    np.linalg.norm(res)
                )
            if iteration == 1 and chord_jac is not None:
                jac = chord_jac
            else:
                jac = self.system.jacobian_prepared(prep, strength)
            bordered = np.zeros((n + 1, n + 1))
            bordered[:n, :n] = jac
            bordered[:n, n] = self.system.strength_derivative(
                prep, strength
            ).to_vector()
            bordered[n, :] = self.weights * tang
            try:
                step = solve(bordered, -np.r_[res, gap])
            except LinAlgError as exc:
                raise NewtonFailure("bordered solve failed") from exc
            scale = 1.0
            last_guard = None
            for _ in range(MAX_HALVINGS + 1):
                trial = current + scale * step
                trial_state = WaveState.from_vector(trial[:n], n_modes)
                trial_strength = float(trial[n])
                try:
                    trial_prep = self.system.prepare(trial_state)
                except (VortexTooClose, DegenerateStrip) as exc:
                    last_guard = exc
                    scale *= 0.5
                    continue
                trial_res = self.system.residual_prepared(
                    trial_prep, trial_strength
                ).to_vector()
                trial_gap = self.weighted_dot(trial - base, tang) - ds
                trial_norm = float(
                    np.hypot(np.linalg.norm(trial_res), trial_gap)
                )
                if trial_norm < norm or trial_norm <= tol:
                    current, state, strength = trial, trial_state, trial_strength
                    prep, res, gap, norm = (trial_prep, trial_res,
                                            trial_gap, trial_norm)
                    break
                scale *= 0.5
            else:
                if last_guard is not None:
                    raise last_guard
                raise NewtonFailure("damping exhausted in arclength corrector")
        raise NewtonFailure(
            f"no convergence in {self.settings.newton_max} iterations"
        )

    # -- branch driver -----------------------------------------------------------------

    def continue_branch(self, direction: int = 1,
                        on_point=None) -> Branch:
        """Predict, correct, classify; returns the finished branch."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        settings = self.settings
        branch = Branch()

        origin = self.system.origin()
        prep = self.system.prepare(origin)
        res0 = self.system.residual_prepared(prep, 0.0).to_vector()
        jac = self.system.jacobian_prepared(prep, 0.0)
        point = self._point(origin, 0.0, float(np.linalg.norm(res0)), 0, jac)
        branch.points.append(point)
        if on_point is not None:
            on_point(point)

        tang = direction * self.tangent(prep, 0.0, jac=jac)
        base = np.r_[origin.to_vector(), 0.0]
        ds = settings.ds0

        vortex_block = boundary_block = False
        for _ in range(settings.max_steps):
            try:
                state, strength, iterations, prep, norm = (
                    self._arclength_correct(base, tang, ds, jac)
                )
            except (NewtonFailure, VortexTooClose, DegenerateStrip,
                    LinearSolveFailure, NonFiniteEntry) as exc:
                vortex_block |= isinstance(exc, VortexTooClose)
                boundary_block |= isinstance(exc, DegenerateStrip)
                ds *= 0.5
                if ds < settings.ds_min:
                    branch.termination = classify_termination(
                        vortex_block, boundary_block, False,
                        newton_failed=True,
                    )
                    return branch
                continue
            vortex_block = boundary_block = False

            vortex_hit = self.vortex_distance(state) < self.vortex_guard
            sup = np.abs(
                self.system.grid.even_values_half(state.elevation)
            ).max()
            boundary_hit = (self.system.params.depth - sup) < self.gap_floor
            unbounded_hit = self.state_norm(state, strength) > settings.norm_cap
            if vortex_hit or boundary_hit or unbounded_hit:
                branch.termination = classify_termination(
                    vortex_hit, boundary_hit, unbounded_hit
                )
                return branch

            jac = self.system.jacobian_prepared(prep, strength)
            point = self._point(state, strength, norm, iterations, jac)
            branch.points.append(point)
            if on_point is not None:
                on_point(point)

            tang = self.tangent(prep, strength, previous=tang, jac=jac)
            base = np.r_[state.to_vector(), strength]
            if iterations <= FAST_ITERATIONS:
                ds = min(ds * GROWTH, settings.ds_max)

        branch.termination = classify_termination(False, False, False)
        return branch


def refine_point(system: WaveSystem, settings: ContinuationSettings,
                 point: BranchPoint, factor: int = 2) -> BranchPoint:
    """Re-solve one branch point on a grid with factor-times the resolution."""
    fine = WaveSystem(
        system.params,
        system.grid.n_modes * factor,
        system.m_vertical * factor,
        vortex_guard=system.vortex_guard,
        dealias=system.dealias,
    )
    n = fine.grid.n_modes
    guess = WaveState(
        pad_coeffs(point.state.elevation, n),
        pad_coeffs(point.state.trace_upper, n),
        pad_coeffs(point.state.trace_lower, n),
        point.state.speed,
    )
    engine = ContinuationEngine(fine, settings)
    state, iterations, norm, prep = engine.newton_correct(
        guess, point.strength
    )
    jac = fine.jacobian_prepared(prep, point.strength)
    return engine._point(state, point.strength, norm, iterations, jac)
