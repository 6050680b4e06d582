"""Pseudo-arclength continuation of the wave branch from the trivial solution.

One corrector serves both solves: damped Newton on the residual bordered by
one scalar constraint.  Keller's arclength constraint gives a branch step; a
row that pins the strength gives the fixed-strength solve.  Each Newton step
is halved, at most MAX_HALVINGS times, until the bordered residual norm
drops; the corrector has converged once the residual and the constraint are
both within newton_tol, after at most newton_max updates.

The corrector keeps a chord: the LU factors of a bordered Jacobian.  A
branch step starts from the chord of its accepted base point and solves
its first iteration with it.  The fixed-strength solve has no base point,
so its first iteration builds the analytic Jacobian and keeps its bordered
factors as the chord.  Each later iteration takes a Newton-Krylov step
(Knoll & Keyes 2004): GMRES on the bordered system to the relative forcing
KRYLOV_FORCING, right-preconditioned by the chord's factors, with
Jacobian-vector products from forward differences of the bordered
residual.  Those are residual-only evaluations, which factor no layer
operator.  The analytic Jacobian takes over an iteration whose GMRES
misses the forcing within KRYLOV_VECTORS or whose difference evaluation
raises, and one whose layer operators are already factored (small grids,
or a trace solve that fell back to LU), where its layer solves
back-substitute; its bordered factors become the chord.  The analytic
Jacobian factors no layer operator either: it reads each layer through one
adjoint block solved by GMRES (`layers.LayerOperators._adjoint_block`).
So above the Krylov crossover a branch factors no layer operator at all
unless a GMRES solve misses, and every accepted point still gets the exact
Jacobian that the tangent and the point diagnostics need.

Tangents are unit null vectors of the bordered Jacobian under a weighted
inner product: discrete H^1 weights on the three field blocks and unit
weights on the speed and the strength, so mode counts do not drown the
scalars.

check_guards is the one admissibility test: the fixed-strength solve runs it
on its guess, continue_branch on each converged candidate before accepting
it, so a finished branch is always a valid prefix.  Precedence when several
guards trip at once: vortex proximity, then boundary contact, then norm
blowup.  Inside the corrector, a trial point whose layer strip degenerates
or whose interface meets or crosses a vortex is damped like a rejected
trial.  A step whose corrector fails (no convergence, a bordered Jacobian
with a zero pivot, a guard violation, a failed layer solve, or a
non-finite entry in a Newton step or at a trial point) is retried at half
the arclength step; once the step falls below ds_min the branch ends as a
Newton failure.  Only accepted points count against the max_steps budget,
so a run whose every attempt fails ends as a Newton failure, whatever its
budget.  Exhausted step budgets and unrecoverable
Newton failures are reported through the same classification.

The point diagnostics take the smallest singular value from scipy's
svdvals and the determinant sign from an LU factorization of the Jacobian:
the signs of U's diagonal, flipped once per row swap.  The sign is recorded
as 0 when the smallest singular value drops below 1e-12 of the largest.
Both run on scipy's LAPACK because numpy and scipy each bundle their own
OpenBLAS: a numpy LAPACK call here left numpy's threads spinning while
scipy factored the next layer operator, which then took 50-70% longer.

The branch leaves the origin towards positive strength.  The map
(elevation, traces, speed, strength) -> (elevation, -traces, -speed,
-strength) is an exact symmetry of the residual, so the other half of the
continuum through the origin is this branch's mirror image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve, svdvals

from .errors import (
    DegenerateStrip,
    LinearSolveFailure,
    NewtonFailure,
    NonFiniteEntry,
    SingularBorderedSystem,
    VortexTooClose,
    VortexWaveError,
)
from .layers import GAP_FLOOR_FRACTION, gmres
from .system import PreparedState, WaveState, WaveSystem
from .vortex import min_vortex_distance

#: fraction of the half-gap kept between either vortex and the interface
VORTEX_GUARD_FRACTION = 0.05

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

#: relative residual a Newton-Krylov step must reach (the forcing term).
#: At 1e-6 the 60-step default branch strayed up to 3.4e-9 (relative) from
#: the one the analytic Jacobian gives; 1e-7 keeps it within 1.4e-10 for
#: about one more Krylov vector per iteration
KRYLOV_FORCING = 1e-7

#: Krylov vectors a Newton-Krylov step may build before the analytic
#: Jacobian takes over that iteration
KRYLOV_VECTORS = 10


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
        # an infinite ds0 would survive every halving, so a failing step
        # would be retried forever
        if not (0 < self.ds_min <= self.ds0 <= self.ds_max
                and np.isfinite(self.ds0)):
            raise ValueError("need 0 < ds_min <= ds0 <= ds_max, ds0 finite")
        # an infinite tolerance would accept every guess unconverged
        if not 0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be finite and positive")
        if self.newton_max < 1 or self.max_steps < 1:
            raise ValueError("iteration and step caps must be at least 1")
        for name in ("norm_cap", "vortex_guard", "gap_floor"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class BranchPoint:
    state: WaveState
    strength: float
    residual_norm: float
    newton_iterations: int
    smallest_singular: float
    det_sign: int
    elevation_sup: float
    elevation_sobolev: float
    elevation_center: float
    vortex_distance: float

    @property
    def speed(self) -> float:
        return self.state.speed


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    termination: Alternative | None = None


def classify_termination(vortex_tripped: bool, boundary_tripped: bool,
                         newton_failed: bool = False) -> Alternative:
    """Fixed precedence so simultaneous trips classify deterministically."""
    if vortex_tripped:
        return Alternative.VORTEX_NEAR_INTERFACE
    if boundary_tripped:
        return Alternative.INTERFACE_TOUCHES_BOUNDARY
    if newton_failed:
        return Alternative.NEWTON_FAILURE
    return Alternative.MAX_STEPS_REACHED


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
        """Raise if a state is outside the admissible set.

        VortexTooClose when the interface comes within vortex_guard of
        either vortex or has crossed one (`vortex.min_vortex_distance`),
        checked first; DegenerateStrip when it comes within gap_floor of a
        wall.
        """
        if self.vortex_distance(state) < self.vortex_guard:
            raise VortexTooClose(
                "interface violates the vortex distance guard"
            )
        sup = np.abs(
            self.system.grid.even_values_half(state.elevation)
        ).max()
        if self.system.params.depth - sup < self.gap_floor:
            raise DegenerateStrip(
                "interface violates the wall gap floor"
            )

    def _sign_and_sigma(self, jac: np.ndarray) -> tuple[int, float]:
        """(determinant sign, smallest singular value) of a Jacobian.

        The sign is that of det(P L U): the product of the signs of U's
        diagonal, flipped once per row swap of the partial pivoting.
        """
        singulars = svdvals(jac, check_finite=False)
        if singulars[-1] < SIGN_FLOOR * singulars[0]:
            return 0, float(singulars[-1])
        lu, piv = lu_factor(jac, check_finite=False)
        flips = (np.count_nonzero(piv != np.arange(piv.size))
                 + np.count_nonzero(np.diagonal(lu) < 0.0))
        return (-1 if flips % 2 else 1), float(singulars[-1])

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
            elevation_sup=float(
                np.abs(g.even_values_half(state.elevation)).max()
            ),
            elevation_sobolev=g.sobolev_norm(state.elevation,
                                             DIAGNOSTIC_ORDER),
            elevation_center=float(np.sum(state.elevation.coeffs)),
            vortex_distance=self.vortex_distance(state),
        )

    # -- the bordered corrector ----------------------------------------------------

    def _bordered(self, prep: PreparedState, strength: float,
                  jac: np.ndarray, row: np.ndarray) -> np.ndarray:
        """The Jacobian bordered by the strength derivative and one row."""
        n = self.system.n_unknowns
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = jac
        bordered[:n, n] = self.system.strength_derivative(
            prep, strength
        ).to_vector()
        bordered[n, :] = row
        return bordered

    def _pin_row(self) -> np.ndarray:
        """The unit row of the strength in the augmented vector."""
        return np.r_[np.zeros(self.system.n_unknowns), 1.0]

    def _evaluate(self, vec: np.ndarray, constraint):
        """Prepare the state of an augmented vector; residual and constraint.

        Returns (state, strength, prep, residual vector, constraint value,
        bordered residual norm).  A non-finite vector raises NonFiniteEntry.
        """
        if not np.all(np.isfinite(vec)):
            raise NonFiniteEntry("corrector produced a non-finite state")
        n = self.system.n_unknowns
        state = WaveState.from_vector(vec[:n], self.system.grid.n_modes)
        strength = float(vec[n])
        prep = self.system.prepare(state)
        res = self.system.residual_prepared(prep, strength).to_vector()
        gap = constraint(vec)
        return (state, strength, prep, res, gap,
                float(np.hypot(np.linalg.norm(res), gap)))

    def _difference_product(self, vec: np.ndarray, bordered_res: np.ndarray,
                            v: np.ndarray, constraint) -> np.ndarray:
        """Bordered Jacobian times v by a forward difference at vec."""
        eps = (np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(vec))
               / np.linalg.norm(v))
        evaluated = self._evaluate(vec + eps * v, constraint)
        return (np.r_[evaluated[3], evaluated[4]] - bordered_res) / eps

    def _krylov_step(self, vec: np.ndarray, bordered_res: np.ndarray,
                     chord, constraint) -> np.ndarray | None:
        """Newton-Krylov step, preconditioned by the chord's factors.

        GMRES on difference products to the relative forcing KRYLOV_FORCING;
        None when it misses within KRYLOV_VECTORS or a difference evaluation
        raises.
        """
        try:
            return gmres(
                lambda v: self._difference_product(vec, bordered_res, v,
                                                   constraint),
                lambda v: lu_solve(chord, v, check_finite=False),
                -bordered_res, KRYLOV_VECTORS, KRYLOV_FORCING,
            )
        except VortexWaveError:
            return None

    def _factor_bordered(self, prep: PreparedState, strength: float,
                         jac: np.ndarray, row: np.ndarray):
        """LU factors of a bordered Jacobian; SingularBorderedSystem on a
        zero pivot."""
        chord = lu_factor(self._bordered(prep, strength, jac, row),
                          check_finite=False)
        if np.any(np.diagonal(chord[0]) == 0.0):
            raise SingularBorderedSystem("bordered Jacobian is singular")
        return chord

    def _damped_newton(self, current: np.ndarray, row: np.ndarray,
                       constraint, chord_jac: np.ndarray | None = None):
        """Damped Newton on the residual bordered by one scalar constraint.

        `current` is the augmented (state, strength) start, `row` the
        constraint's gradient and `constraint(vec)` its value.  The chord
        is the factored bordered matrix of `chord_jac` when one is given;
        the first iteration solves with it.  An iteration without a usable
        step builds the analytic Jacobian, solves with its bordered
        factors and keeps them as the new chord.  Later iterations whose
        layer operators are not factored take a Newton-Krylov step
        preconditioned by the chord.  Returns (state, strength,
        iterations, prep, residual norm).
        """
        tol = self.settings.newton_tol
        newton_max = self.settings.newton_max
        state, strength, prep, res, gap, norm = self._evaluate(current,
                                                               constraint)
        chord = None
        if chord_jac is not None:
            chord = self._factor_bordered(prep, strength, chord_jac, row)
        for iteration in range(newton_max + 1):
            if np.linalg.norm(res) <= tol and abs(gap) <= tol:
                return state, strength, iteration, prep, float(
                    np.linalg.norm(res)
                )
            if iteration == newton_max:
                break
            bordered_res = np.r_[res, gap]
            step = None
            if iteration > 0 and not all(layer.ops.factored
                                         for layer in prep.layers):
                step = self._krylov_step(current, bordered_res, chord,
                                         constraint)
            if step is None:
                if chord is None or iteration > 0:
                    chord = self._factor_bordered(
                        prep, strength,
                        self.system.jacobian_prepared(prep, strength), row,
                    )
                step = lu_solve(chord, -bordered_res, check_finite=False)
            if not np.all(np.isfinite(step)):
                raise NonFiniteEntry("Newton step has non-finite entries")
            scale = 1.0
            last_guard = None
            for _ in range(MAX_HALVINGS + 1):
                trial = current + scale * step
                try:
                    evaluated = self._evaluate(trial, constraint)
                except (VortexTooClose, DegenerateStrip) as exc:
                    last_guard = exc
                    scale *= 0.5
                    continue
                if evaluated[-1] < norm or evaluated[-1] <= tol:
                    current = trial
                    state, strength, prep, res, gap, norm = evaluated
                    break
                scale *= 0.5
            else:
                if last_guard is not None:
                    raise last_guard
                raise NewtonFailure("damping exhausted without residual decrease")
        raise NewtonFailure(f"no convergence in {newton_max} iterations")

    def newton_correct(self, guess: WaveState, strength: float
                       ) -> tuple[WaveState, int, float, PreparedState]:
        """Damped Newton at fixed strength; returns the converged state."""
        self.check_guards(guess)
        n = self.system.n_unknowns
        state, _, iterations, prep, norm = self._damped_newton(
            np.r_[guess.to_vector(), strength], self._pin_row(),
            lambda vec: vec[n] - strength,
        )
        return state, iterations, norm, prep

    def _arclength_correct(self, base: np.ndarray, tang: np.ndarray,
                           ds: float, chord_jac: np.ndarray):
        """Correct the predicted point back onto the branch at fixed arclength."""
        return self._damped_newton(
            base + ds * tang, self.weights * tang,
            lambda vec: self.weighted_dot(vec - base, tang) - ds, chord_jac,
        )

    # -- tangents -------------------------------------------------------------------

    def tangent(self, prep: PreparedState, strength: float,
                previous: np.ndarray | None = None,
                jac: np.ndarray | None = None) -> np.ndarray:
        """Unit tangent of the branch at a solved point.

        The bordered row orients it: row . raw = 1 makes the strength
        component, or the weighted dot with `previous`, positive.
        """
        if jac is None:
            jac = self.system.jacobian_prepared(prep, strength)
        row = self._pin_row() if previous is None else self.weights * previous
        raw = lu_solve(self._factor_bordered(prep, strength, jac, row),
                       self._pin_row(), check_finite=False)
        if not np.all(np.isfinite(raw)):
            raise SingularBorderedSystem("tangent system is numerically singular")
        return raw / np.sqrt(self.weighted_dot(raw, raw))

    def solve_at(self, strength: float) -> BranchPoint:
        """One fixed-strength solve seeded by the first-order origin predictor."""
        origin = self.system.origin()
        tang = self.tangent(self.system.prepare(origin), 0.0,
                            jac=self.system.flat_linearization())
        guess_vec = origin.to_vector() + (strength / tang[-1]) * tang[:-1]
        guess = WaveState.from_vector(guess_vec, self.system.grid.n_modes)
        state, iterations, norm, solved = self.newton_correct(guess, strength)
        return self._point(state, strength, norm, iterations,
                           self.system.jacobian_prepared(solved, strength))

    # -- branch driver -----------------------------------------------------------------

    def continue_branch(self, on_point=None) -> Branch:
        """Predict, correct, classify; returns the finished branch."""
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

        tang = self.tangent(prep, 0.0, jac=jac)
        base = np.r_[origin.to_vector(), 0.0]
        ds = settings.ds0

        vortex_block = boundary_block = False
        # the budget counts accepted points; halving ds bounds the retries
        while len(branch.points) <= settings.max_steps:
            try:
                state, strength, iterations, prep, norm = (
                    self._arclength_correct(base, tang, ds, jac)
                )
            except (NewtonFailure, SingularBorderedSystem, VortexTooClose,
                    DegenerateStrip, LinearSolveFailure,
                    NonFiniteEntry) as exc:
                vortex_block |= isinstance(exc, VortexTooClose)
                boundary_block |= isinstance(exc, DegenerateStrip)
                ds *= 0.5
                if ds < settings.ds_min:
                    branch.termination = classify_termination(
                        vortex_block, boundary_block, newton_failed=True,
                    )
                    return branch
                continue
            vortex_block = boundary_block = False

            try:
                self.check_guards(state)
            except (VortexTooClose, DegenerateStrip) as exc:
                branch.termination = classify_termination(
                    isinstance(exc, VortexTooClose),
                    isinstance(exc, DegenerateStrip),
                )
                return branch
            if self.state_norm(state, strength) > settings.norm_cap:
                branch.termination = Alternative.UNBOUNDED
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

        branch.termination = classify_termination(False, False)
        return branch

