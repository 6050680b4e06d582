"""Pseudo-arclength continuation of the wave branch from the flat state.

- `ContinuationEngine._damped_newton` is the one corrector: damped Newton
  on the residual bordered by one scalar constraint, with Newton-Krylov
  steps (`_krylov_step`) preconditioned by a chord.  Keller's arclength
  constraint gives a branch step (`_arclength_correct`), and a row that
  pins the strength the fixed-strength solve (`newton_correct`).
- `ContinuationEngine.check_guards` is the one admissibility check: the
  `Alternative` a converged state violates, or None.
- `continue_branch` predicts along the `tangent`, corrects, checks and
  retries; `solve_at` solves once, from the origin tangent.  Either
  returns a `Branch`, whose `termination` is how the run ended.
- `_point` takes a converged point's diagnostics, the determinant sign
  and sigma_min from one LU factorization (`_sign_and_sigma`).

Tangents are unit null vectors of the bordered Jacobian under a weighted
inner product: discrete H^1 weights on the three field blocks and unit
weights on the speed and the strength, so mode counts do not drown the
scalars.  Every LAPACK and large BLAS call runs on scipy's, not numpy's
(README, "Threads").

The branch leaves the origin towards positive strength.  The map
(elevation, traces, speed, strength) -> (elevation, -traces, -speed,
-strength) is an exact symmetry of the residual, so the other half of the
continuum through the origin is this branch's mirror image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve, svdvals
from scipy.linalg.blas import dgemv, dnrm2
from scipy.linalg.lapack import dgetrf, dgetrs, dstev

from .errors import (
    DegenerateStrip,
    LinearSolveFailure,
    NewtonFailure,
    NonFiniteEntry,
    SingularBorderedSystem,
    ValidationError,
    VortexTooClose,
    VortexWaveError,
)
from .layers import GAP_FLOOR_FRACTION, WorkBuffers, gmres
from .system import PreparedState, WaveState, WaveSystem
from .vortex import min_vortex_distance

#: fraction of the half-gap kept between either vortex and the interface
VORTEX_GUARD_FRACTION = 0.05

#: smoothness index of the recorded elevation norm and the blowup monitor
DIAGNOSTIC_ORDER = 3

#: relative singular-value floor below which the determinant sign is 0
SIGN_FLOOR = 1e-12

#: relative residual bound at which the Lanczos estimate of sigma_min
#: stops (`_smallest_singular`): its eigenvalue of (J^T J)^-1 is then within
#: this fraction of the largest, so sigma_min within half of it
SINGULAR_TOL = 1e-13

#: step-growth factor after fast corrector convergence
GROWTH = 1.3

#: corrector iteration count considered fast enough to grow the step
FAST_ITERATIONS = 3

#: damping halvings attempted before a corrector iteration is abandoned
MAX_HALVINGS = 5

#: relative residual a Newton-Krylov step on an exact chord must reach,
#: unless the floor FORCING_FLOOR is higher (`_forcing`)
KRYLOV_FORCING = 1e-7

#: Eisenstat-Walker forcing of a Newton-Krylov step on a flat chord (their
#: choice 2, SIAM J. Sci. Comput. 17, 1996).  Their safeguard max(eta,
#: FORCING_GAMMA eta_prev^2) applies only once FORCING_GAMMA eta_prev^2 >
#: 0.1, which FORCING_MAX = 0.1 rules out
FORCING_GAMMA = 0.9
FORCING_MAX = 0.1

#: fraction of newton_tol that the linearized residual after a step
#: reaches at the forcing floor (Knoll & Keyes 2004)
FORCING_FLOOR = 0.1

#: Krylov vectors a Newton-Krylov step may build before the analytic
#: Jacobian takes over that iteration.  A miss pays the vectors it built
#: plus a Jacobian, so the bound stays below the number of warm difference
#: evaluations that one analytic Jacobian costs
KRYLOV_VECTORS = 20

#: numerical failures of a step (`continue_branch`)
STEP_FAILURES = (NewtonFailure, SingularBorderedSystem, VortexTooClose,
                 DegenerateStrip, LinearSolveFailure, NonFiniteEntry)


def _smallest_singular(lu: np.ndarray, piv: np.ndarray) -> float:
    """sigma_min of J from its LU factors (scipy's getrf): Lanczos on
    (J^T J)^-1 = J^-1 J^-T.

    Each step applies J^-T, then J^-1, as two getrs calls on the factors,
    and reorthogonalizes the new vector against the whole basis, twice.
    The largest eigenvalue theta of the Lanczos tridiagonal approximates
    1/sigma_min^2 from below, and an eigenvalue lies within beta |s| of it,
    beta the next off-diagonal and s the last entry of theta's eigenvector;
    the loop stops once that is at most SINGULAR_TOL theta, or once the
    basis spans the space.  The start is a fixed vector (`_lanczos_start`),
    so reruns repeat bit for bit.  Returns 1 / sqrt(theta), not finite
    when an estimate is not.
    """
    n = piv.size
    basis = np.empty((n + 1, n))  # row k + 1 takes the vector step k makes
    alpha, beta = np.empty(n), np.empty(n)
    basis[0] = _lanczos_start(n)
    for k in range(n):
        w = dgetrs(lu, piv, dgetrs(lu, piv, basis[k], trans=1)[0],
                   overwrite_b=True)[0]
        kept = basis[:k + 1].T  # Fortran-ordered: dgemv copies nothing
        alpha[k] = 0.0
        for _ in range(2):
            dots = dgemv(1.0, kept, w, trans=1)
            w = dgemv(-1.0, kept, dots, beta=1.0, y=w, overwrite_y=True)
            alpha[k] += dots[k]
        beta[k] = dnrm2(w)
        theta, vectors, _ = dstev(alpha[:k + 1], beta[:max(k, 1)])
        if not beta[k] * abs(vectors[-1, -1]) > SINGULAR_TOL * theta[-1]:
            break
        np.divide(w, beta[k], out=basis[k + 1])
    return float(1.0 / np.sqrt(theta[-1]))


@lru_cache(maxsize=8)
def _lanczos_start(n: int) -> np.ndarray:
    """The unit start vector of `_smallest_singular` for order n, a fixed
    normal draw, read-only."""
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.sqrt(np.einsum("i,i->", q, q))
    q.flags.writeable = False
    return q


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
    target_strength: float = 1e-3  # of a fixed-strength solve

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
        if not np.isfinite(self.target_strength):
            raise ValueError("target_strength must be finite")


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
    """The accepted points of a run, and the Alternative that ended it;
    None for a fixed-strength solve that found its point."""

    points: list[BranchPoint] = field(default_factory=list)
    termination: Alternative | None = None


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
        self._work = WorkBuffers()  # Newton-Krylov's; not the layers'

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

    def check_guards(self, state: WaveState, strength: float
                     ) -> Alternative | None:
        """The Alternative a state violates, None inside every guard.

        In this order, the first violated one wins: the interface within
        vortex_guard of either vortex, or past one
        (`vortex.min_vortex_distance`); the interface within gap_floor of a
        wall; the `state_norm` above norm_cap.  At the default gap_floor
        the wall test cannot trip: the layer solver raises DegenerateStrip
        at the same floor (`layers.GAP_FLOOR_FRACTION`), so every state it
        solved has depth - sup|eta| above it, and a branch meets the wall
        through steps that fail until ds < ds_min (`continue_branch`).
        """
        if self.vortex_distance(state) < self.vortex_guard:
            return Alternative.VORTEX_NEAR_INTERFACE
        sup = np.abs(
            self.system.grid.even_values_half(state.elevation)
        ).max()
        if self.system.params.depth - sup < self.gap_floor:
            return Alternative.INTERFACE_TOUCHES_BOUNDARY
        if self.state_norm(state, strength) > self.settings.norm_cap:
            return Alternative.UNBOUNDED
        return None

    def _sign_and_sigma(self, jac: np.ndarray) -> tuple[int, float]:
        """(determinant sign, smallest singular value) of a Jacobian.

        One LU factorization gives both: the sign of det(P L U), the signs
        of U's diagonal flipped once per row swap, and sigma_min by
        `_smallest_singular`.  The sign is 0 when sigma_min < SIGN_FLOOR
        sigma_max; where the factors cannot settle that (a zero pivot, or
        sigma_min < SIGN_FLOOR |J|_F, which bounds sigma_max) scipy's
        svdvals decides, and gives the recorded value.
        """
        lu, piv, zero_pivot = dgetrf(jac)
        flips = (np.count_nonzero(piv != np.arange(piv.size))
                 + np.count_nonzero(np.diagonal(lu) < 0.0))
        sign = -1 if flips % 2 else 1
        if not zero_pivot:
            sigma = _smallest_singular(lu, piv)
            # the Frobenius norm on einsum: a BLAS-1 dot over the whole
            # Jacobian would wake numpy's OpenBLAS pool (README, "Threads")
            if sigma >= SIGN_FLOOR * np.sqrt(np.einsum("ij,ij->", jac, jac)):
                return sign, sigma
        singulars = svdvals(jac, check_finite=False)
        if zero_pivot or singulars[-1] < SIGN_FLOOR * singulars[0]:
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
        bordered[:n, n] = self.system.strength_derivative(prep, strength)
        bordered[n, :] = row
        return bordered

    def _pin_row(self) -> np.ndarray:
        """The unit row of the strength in the augmented vector."""
        return np.r_[np.zeros(self.system.n_unknowns), 1.0]

    def _evaluate(self, vec: np.ndarray, constraint):
        """Prepare the state of an augmented vector; residual and constraint.

        Returns (state, strength, prep, residual vector, constraint value,
        bordered residual norm).  A non-finite vector or bordered residual
        norm raises NonFiniteEntry.
        """
        if not np.all(np.isfinite(vec)):
            raise NonFiniteEntry("corrector produced a non-finite state")
        n = self.system.n_unknowns
        state = WaveState.from_vector(vec[:n], self.system.grid.n_modes)
        strength = float(vec[n])
        prep = self.system.prepare(state)
        res = self.system.residual_prepared(prep, strength)
        with np.errstate(over="ignore"):  # finite entries may square to inf
            gap = constraint(vec)
            norm = float(np.hypot(np.linalg.norm(res), gap))
        if not np.isfinite(norm):
            raise NonFiniteEntry("bordered residual norm is not finite")
        return state, strength, prep, res, gap, norm

    def _difference_product(self, vec: np.ndarray, bordered_res: np.ndarray,
                            v: np.ndarray, constraint) -> np.ndarray:
        """Bordered Jacobian times v by a forward difference at vec."""
        eps = (np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(vec))
               / np.linalg.norm(v))
        evaluated = self._evaluate(vec + eps * v, constraint)
        return (np.r_[evaluated[3], evaluated[4]] - bordered_res) / eps

    def _krylov_step(self, vec: np.ndarray, bordered_res: np.ndarray,
                     chord, constraint, forcing: float
                     ) -> np.ndarray | None:
        """Newton-Krylov step, right-preconditioned by the chord's factors C.

        GMRES on v -> the difference product at C^-1 v, to the relative
        residual `forcing`, gives y, and the step is C^-1 y; None when it
        misses within KRYLOV_VECTORS or a difference evaluation raises.
        """
        def precondition(v):
            return lu_solve(chord, v, check_finite=False)

        try:
            solved = gmres(
                lambda v: self._difference_product(
                    vec, bordered_res, precondition(v), constraint),
                -bordered_res, KRYLOV_VECTORS, forcing, 0.0, self._work)
        except VortexWaveError:
            return None
        return None if solved is None else precondition(solved)

    def _forcing(self, norm: float, last_norm: float, flat: bool) -> float:
        """Relative forcing of a Newton-Krylov step at bordered residual
        norm `norm`, the last iterate's being `last_norm`.

        On a flat chord min(FORCING_MAX, FORCING_GAMMA (norm /
        last_norm)^2), on an exact one KRYLOV_FORCING; either raised to the
        floor FORCING_FLOOR newton_tol / norm, so no step is solved further
        than the tolerance can use.  The floor is below FORCING_FLOOR < 1,
        since an iterate that takes a step has not converged.
        """
        eta = (min(FORCING_MAX, FORCING_GAMMA * (norm / last_norm) ** 2)
               if flat else KRYLOV_FORCING)
        return max(eta, FORCING_FLOOR * self.settings.newton_tol / norm)

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
        constraint's gradient and `constraint(vec)` its value.  Converged
        once the residual and the constraint are both within newton_tol,
        after at most newton_max updates; NewtonFailure otherwise.  Each
        step is halved, at most MAX_HALVINGS times, until the bordered
        residual norm drops; a trial whose strip degenerates or whose
        interface meets a vortex counts as a rejected trial.

        The chord is the LU factors of a bordered Jacobian.  An exact
        chord, the analytic Jacobian `chord_jac` of a branch step's base
        point, is kept.  Without one the chord is the system's
        `flat_jacobian` at the start, refactored at the iterate before
        every later Newton-Krylov step, since it does not follow the
        iterate as the crest grows.  The first iteration solves with the
        chord.  A later one whose layer operators are not factored takes a
        Newton-Krylov step (`_krylov_step`, Knoll & Keyes 2004) to the
        forcing of `_forcing`; its products are residual-only evaluations,
        which factor no layer operator, and exact-Jacobian products, so the
        chord changes how many Krylov vectors a step needs, not the step.
        An iteration without a usable step (GMRES missed, a difference
        evaluation raised, or the operators are factored) builds the
        analytic Jacobian, solves with its bordered factors and keeps them
        as the new, exact, chord.  Returns (state, strength, iterations,
        prep, residual norm).
        """
        tol = self.settings.newton_tol
        newton_max = self.settings.newton_max
        state, strength, prep, res, gap, norm = self._evaluate(
            current, constraint)
        chord = None
        flat = False  # whether the chord is a flat-strip Jacobian's
        if chord_jac is not None:
            chord = self._factor_bordered(prep, strength, chord_jac, row)
        last_norm = norm
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
                if flat:  # a flat chord follows the iterate
                    chord = self._factor_bordered(
                        prep, strength,
                        self.system.flat_jacobian(prep, strength), row,
                    )
                step = self._krylov_step(
                    current, bordered_res, chord, constraint,
                    self._forcing(norm, last_norm, flat))
            if step is None:
                if chord is None or iteration > 0:
                    # no chord yet: the fixed-strength solve's first is flat
                    flat = chord is None
                    jacobian = (self.system.flat_jacobian if flat
                                else self.system.jacobian_prepared)
                    chord = self._factor_bordered(
                        prep, strength, jacobian(prep, strength), row)
                step = lu_solve(chord, -bordered_res, check_finite=False)
            if not np.all(np.isfinite(step)):
                raise NonFiniteEntry("Newton step has non-finite entries")
            last_norm = norm
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
        """Damped Newton at fixed strength from `guess`, on a flat chord
        (`_damped_newton`); returns the converged state."""
        n = self.system.n_unknowns
        state, _, iterations, prep, norm = self._damped_newton(
            np.r_[guess.to_vector(), strength], self._pin_row(),
            lambda vec: vec[n] - strength,
        )
        return state, iterations, norm, prep

    def _arclength_correct(self, base: np.ndarray, tang: np.ndarray,
                           ds: float, chord_jac: np.ndarray):
        """Correct the predicted point back onto the branch at fixed
        arclength."""
        return self._damped_newton(
            base + ds * tang, self.weights * tang,
            lambda vec: self.weighted_dot(vec - base, tang) - ds, chord_jac,
        )

    # -- tangents -------------------------------------------------------------------

    def tangent(self, prep: PreparedState, strength: float, jac: np.ndarray,
                previous: np.ndarray | None = None) -> np.ndarray:
        """Unit tangent of the branch at a solved point, from the caller's
        Jacobian `jac` there.

        The bordered row orients it: row . raw = 1 makes the strength
        component, or the weighted dot with `previous`, positive.
        """
        row = self._pin_row() if previous is None else self.weights * previous
        raw = lu_solve(self._factor_bordered(prep, strength, jac, row),
                       self._pin_row(), check_finite=False)
        if not np.all(np.isfinite(raw)):
            raise SingularBorderedSystem("tangent system is numerically singular")
        return raw / np.sqrt(self.weighted_dot(raw, raw))

    def _flat_start(self) -> WaveState:
        """The flat state, which solves the system at zero strength;
        ValidationError, a configuration error, outside a guard."""
        origin = self.system.origin()
        violated = self.check_guards(origin, 0.0)
        if violated is not None:
            raise ValidationError(f"flat state violates a guard: "
                                  f"{violated.value}")
        return origin

    def solve_at(self, strength: float) -> Branch:
        """One fixed-strength solve seeded by the first-order origin predictor.

        The Branch of its one point, or of no point and the Alternative
        that the solution violates (`check_guards`), decided before its
        Jacobian is built.
        """
        origin = self._flat_start()
        tang = self.tangent(self.system.prepare(origin), 0.0,
                            self.system.flat_linearization())
        guess_vec = origin.to_vector() + (strength / tang[-1]) * tang[:-1]
        guess = WaveState.from_vector(guess_vec, self.system.grid.n_modes)
        state, iterations, norm, solved = self.newton_correct(guess, strength)
        termination = self.check_guards(state, strength)
        if termination is not None:
            return Branch(termination=termination)
        return Branch([self._point(
            state, strength, norm, iterations,
            self.system.jacobian_prepared(solved, strength))])

    # -- branch driver -----------------------------------------------------------------

    def continue_branch(self, on_point=None) -> Branch:
        """Predict, correct, check; returns the finished branch.

        The flat state must pass `check_guards` (`_flat_start`), and a
        later candidate that does not ends the branch before it is
        accepted, so a finished branch is always a valid prefix.  A step
        whose corrector raises one of STEP_FAILURES is retried at half the
        arclength step; below ds_min the branch ends at the vortex when a
        retry met one (VortexTooClose), else at a wall when a retry met one
        (DegenerateStrip), else as a Newton failure.  A STEP_FAILURES error
        in a converged point's Jacobian, diagnostics or tangent ends the
        branch at the last accepted point as a Newton failure, and
        propagates at the flat state.  Only accepted points count against
        max_steps.
        """
        settings = self.settings
        branch = Branch()

        state, strength, iterations, norm = self._flat_start(), 0.0, 0, 0.0
        prep = self.system.prepare(state)
        tang = None
        ds = settings.ds0
        while True:
            try:
                jac = self.system.jacobian_prepared(prep, strength)
                point = self._point(state, strength, norm, iterations, jac)
                tang = self.tangent(prep, strength, jac, previous=tang)
            except STEP_FAILURES:
                if not branch.points:
                    raise
                branch.termination = Alternative.NEWTON_FAILURE
                return branch
            branch.points.append(point)
            if on_point is not None:
                on_point(point)
            # the budget counts accepted points; halving ds bounds the retries
            if len(branch.points) > settings.max_steps:
                branch.termination = Alternative.MAX_STEPS_REACHED
                return branch
            base = np.r_[state.to_vector(), strength]
            del prep  # the system keeps its arrays, never its operators

            ending = Alternative.NEWTON_FAILURE
            while True:
                try:
                    state, strength, iterations, prep, norm = (
                        self._arclength_correct(base, tang, ds, jac)
                    )
                    break
                except STEP_FAILURES as exc:
                    if isinstance(exc, VortexTooClose):
                        ending = Alternative.VORTEX_NEAR_INTERFACE
                    elif (isinstance(exc, DegenerateStrip)
                          and ending is Alternative.NEWTON_FAILURE):
                        ending = Alternative.INTERFACE_TOUCHES_BOUNDARY
                    ds *= 0.5
                    if ds < settings.ds_min:
                        branch.termination = ending
                        return branch

            branch.termination = self.check_guards(state, strength)
            if branch.termination is not None:
                return branch
            if iterations <= FAST_ITERATIONS:
                ds = min(ds * GROWTH, settings.ds_max)
