"""Arclength driver: tangents, correctors, guards, classification, signs, symmetry."""

import dataclasses
import sys
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import lu_factor, svdvals

from vortexwave import continuation, layers
from vortexwave.continuation import (
    Alternative,
    ContinuationEngine,
    ContinuationSettings,
    classify_termination,
)
from vortexwave.errors import (
    LinearSolveFailure,
    NewtonFailure,
    NonFiniteEntry,
    ValidationError,
    VortexTooClose,
)
from vortexwave.layers import LayerOperators, flat_interior_dy_symbol
from vortexwave.spectral import EvenField
from vortexwave.system import PhysicalParameters, WaveState, WaveSystem
from vortexwave.validation import check_origin_tangent
from vortexwave.vortex import VortexPair, vortex_traces

PARAMS = PhysicalParameters()


def small_engine(n_modes=16, m_vertical=12, **settings):
    system = WaveSystem(PARAMS, n_modes, m_vertical)
    return ContinuationEngine(system, ContinuationSettings(**settings))


def origin_tangent_oracle(engine):
    """Block substitution through the flat linearization, normalized."""
    system = engine.system
    g = system.grid
    n = g.n_modes + 1
    tr = vortex_traces(PARAMS.pair, g.half_nodes, np.zeros(n),
                       PARAMS.half_period)
    trace_up = g._cos_inv @ tr.phi
    trace_low = -(g._cos_inv @ tr.phi)
    row = flat_interior_dy_symbol(g, PARAMS.depth, PARAMS.pair.lower[1])
    speed = system.pair_speed - float(row @ trace_low)
    raw = np.r_[np.zeros(n), trace_up, trace_low, speed, 1.0]
    return raw / np.sqrt(engine.weighted_dot(raw, raw))


class TestSettings:
    def test_step_ordering_enforced(self):
        with pytest.raises(ValueError, match="ds_min"):
            ContinuationSettings(ds0=1e-3, ds_min=1e-2)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="newton_tol"):
            ContinuationSettings(newton_tol=0.0)


class TestNewtonCorrect:
    def test_origin_needs_zero_iterations(self):
        engine = small_engine()
        state, iterations, norm, _ = engine.newton_correct(
            engine.system.origin(), 0.0
        )
        assert iterations == 0
        assert norm == 0.0
        assert np.all(state.to_vector() == 0.0)

    def test_small_strength_solve(self):
        engine = small_engine()
        strength = 1e-3
        state, iterations, norm, _ = engine.newton_correct(
            engine.system.origin(), strength
        )
        assert iterations <= 5
        assert norm <= engine.settings.newton_tol
        sup = np.abs(
            engine.system.grid.even_values_half(state.elevation)
        ).max()
        assert sup < 5.0 * strength**2

    def test_guarded_guess_rejected_before_iterating(self, monkeypatch):
        # solve_at's guess has the flat state's elevation, which the flat
        # start checks before the corrector evaluates anything
        system = WaveSystem(PARAMS, 16, 12)
        engine = ContinuationEngine(
            system, ContinuationSettings(vortex_guard=0.6)
        )

        def unexpected(*args):
            raise AssertionError("the corrector evaluated a state")

        monkeypatch.setattr(ContinuationEngine, "_evaluate", unexpected)
        with pytest.raises(ValidationError):
            engine.solve_at(1.0)

    @pytest.mark.parametrize("height", [0.7, -0.7],
                             ids=["above the phantom", "below the vortex"])
    def test_crossed_vortex_is_too_close(self, height):
        # a flat interface 0.2 past the phantom or the vortex clears the
        # 0.05 guard by distance, but a vortex is then in the wrong fluid
        engine = small_engine()
        coeffs = np.zeros(17)
        coeffs[0] = height
        zero = EvenField(np.zeros(17))
        state = WaveState(EvenField(coeffs), zero, zero, 0.0)
        with pytest.raises(VortexTooClose):
            engine.check_guards(state)
        with pytest.raises(VortexTooClose):
            engine.system.prepare(state)


class TestTangent:
    def test_origin_matches_block_substitution(self):
        engine = small_engine()
        prep = engine.system.prepare(engine.system.origin())
        tang = engine.tangent(prep, 0.0,
                              engine.system.jacobian_prepared(prep, 0.0))
        assert np.abs(tang - origin_tangent_oracle(engine)).max() < 1e-8

    @pytest.mark.parametrize("phantom_y", [0.6, 0.8])
    def test_origin_tangent_check_tests_the_drift_row_off_the_mirror(
            self, phantom_y):
        # at the default pair, phantom_y = -vortex_y, the pair's stream
        # function vanishes on y = 0: the flat traces are exactly 0, the
        # oracle is the pair speed alone and the check reads a gap of
        # exactly 0.  Off the mirror the traces are not 0, and the drift
        # row's interior_dy_row meets flat_interior_dy_symbol (measured
        # 5.2e-11 at phantom_y = 0.6 and 6.6e-11 at 0.8)
        assert check_origin_tangent(PARAMS) == (
            True, "max gap to block substitution 0.00e+00")
        params = dataclasses.replace(
            PARAMS, pair=VortexPair((0.0, -0.5), (0.0, phantom_y)))
        ok, detail = check_origin_tangent(params)
        gap = float(detail.split()[-1])
        assert ok and 0.0 < gap < 1e-8

    def test_elevation_component_vanishes_at_origin(self):
        engine = small_engine()
        prep = engine.system.prepare(engine.system.origin())
        tang = engine.tangent(prep, 0.0,
                              engine.system.jacobian_prepared(prep, 0.0))
        n = engine.system.grid.n_modes + 1
        assert np.abs(tang[:n]).max() < 1e-12
        assert tang[-1] > 0

    def test_unit_weighted_norm_and_idempotence(self):
        engine = small_engine()
        prep = engine.system.prepare(engine.system.origin())
        jac = engine.system.jacobian_prepared(prep, 0.0)
        tang = engine.tangent(prep, 0.0, jac)
        assert engine.weighted_dot(tang, tang) == pytest.approx(1.0)
        again = engine.tangent(prep, 0.0, jac, previous=tang)
        assert np.abs(again - tang).max() < 1e-12

    def test_consecutive_tangents_stay_aligned(self):
        engine = small_engine(max_steps=6)
        branch = engine.continue_branch()
        tang = None
        inner = []
        for point in branch.points:
            prep = engine.system.prepare(point.state)
            new = engine.tangent(
                prep, point.strength,
                engine.system.jacobian_prepared(prep, point.strength),
                previous=tang)
            if tang is not None:
                inner.append(engine.weighted_dot(new, tang))
            tang = new
        assert min(inner) > 0.9


class TestBranch:
    def test_starts_at_origin(self):
        engine = small_engine(max_steps=3)
        branch = engine.continue_branch()
        first = branch.points[0]
        assert first.strength == 0.0
        assert first.residual_norm == 0.0
        assert first.newton_iterations == 0
        assert first.elevation_sobolev == 0.0

    def test_growth_and_iteration_budget(self):
        engine = small_engine(max_steps=20)
        branch = engine.continue_branch()
        assert branch.termination is Alternative.MAX_STEPS_REACHED
        assert len(branch.points) == 21
        strengths = [p.strength for p in branch.points]
        assert np.all(np.diff(strengths) > 0)
        sups = [np.abs(engine.system.grid.even_values_half(
            p.state.elevation)).max() for p in branch.points]
        assert all(a < b for a, b in zip(sups[1:], sups[2:]))
        assert max(p.newton_iterations for p in branch.points) <= 6

    def test_quadratic_elevation_growth(self):
        engine = small_engine(max_steps=12)
        branch = engine.continue_branch()
        ratios = []
        for point in branch.points[1:]:
            if point.strength > 1.5e-3:
                break
            sup = np.abs(engine.system.grid.even_values_half(
                point.state.elevation)).max()
            ratios.append(sup / point.strength**2)
        assert len(ratios) >= 2
        assert max(ratios) / min(ratios) < 1.15

    def test_traces_follow_the_vortex_to_first_order(self):
        engine = small_engine(max_steps=8)
        branch = engine.continue_branch()
        g = engine.system.grid
        n = g.n_modes + 1
        tr = vortex_traces(PARAMS.pair, g.half_nodes, np.zeros(n),
                           PARAMS.half_period)
        for point in branch.points[1:5]:
            linear = -point.strength * tr.phi
            got = g.even_values_half(point.state.trace_lower)
            assert np.abs(got - linear).max() < 5.0 * point.strength**2

    def test_speed_ratio_approaches_tangent_limit(self):
        engine = small_engine()
        prep = engine.system.prepare(engine.system.origin())
        tang = engine.tangent(prep, 0.0,
                              engine.system.jacobian_prepared(prep, 0.0))
        limit = tang[-2] / tang[-1]
        strength = 1e-4
        guess = WaveState.from_vector(
            strength / tang[-1] * tang[:-1], engine.system.grid.n_modes
        )
        state, _, _, _ = engine.newton_correct(guess, strength)
        assert abs(state.speed / strength - limit) < 1e-4 * abs(limit)

    def test_minus_branch_mirrors_plus_branch(self):
        # the continuum towards negative strength is the mirror image
        # (elevation, -traces, -speed, -strength) of the computed one:
        # every mirrored point is already a converged solution
        engine = small_engine(max_steps=6)
        system = engine.system
        n = system.grid.n_modes + 1
        flips = np.r_[np.ones(n), -np.ones(2 * n + 1)]
        plus = engine.continue_branch()
        assert len(plus.points) == 7
        for p in plus.points:
            mirror = WaveState.from_vector(flips * p.state.to_vector(),
                                           system.grid.n_modes)
            state, iterations, norm, _ = engine.newton_correct(mirror,
                                                               -p.strength)
            assert iterations == 0
            assert norm == p.residual_norm
            assert np.abs(state.elevation.coeffs
                          - p.state.elevation.coeffs).max() < 1e-10
            assert np.abs(state.trace_lower.coeffs
                          + p.state.trace_lower.coeffs).max() < 1e-10
            assert abs(state.speed + p.state.speed) < 1e-10

    def test_rerun_is_bitwise_identical(self):
        engine = small_engine(max_steps=5)
        first = engine.continue_branch()
        second = engine.continue_branch()
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a.state.to_vector(), b.state.to_vector())
            assert a.strength == b.strength

    def test_incremental_callback_sees_every_point(self):
        engine = small_engine(max_steps=4)
        seen = []
        branch = engine.continue_branch(on_point=seen.append)
        assert len(seen) == len(branch.points)
        assert seen[0].strength == 0.0


class TestFailedTrialSolves:
    @pytest.mark.parametrize("error", [LinearSolveFailure, NonFiniteEntry])
    def test_failed_trial_solve_halves_the_step(self, monkeypatch, error):
        clean = small_engine(max_steps=4).continue_branch()
        real_solve = LayerOperators.solve
        calls = []

        def failing_once(ops, trace, guess=None):
            calls.append(trace)
            # solves 1-2 are the origin; 3 is the first step's predictor
            if len(calls) == 3:
                raise error("injected trial-point failure")
            return real_solve(ops, trace, guess)

        monkeypatch.setattr(LayerOperators, "solve", failing_once)
        branch = small_engine(max_steps=4).continue_branch()
        assert branch.termination is Alternative.MAX_STEPS_REACHED
        # only accepted points count against the budget
        assert len(branch.points) == len(clean.points)
        # the first step is retried at half the arclength
        assert branch.points[1].strength == pytest.approx(
            0.5 * clean.points[1].strength, rel=1e-3
        )

    def test_non_finite_newton_step_halves_the_step(self, monkeypatch):
        clean = small_engine(max_steps=4).continue_branch()
        real_lu_solve = continuation.lu_solve
        real_correct = ContinuationEngine._arclength_correct
        solves = []  # per corrector run, its lu_solve calls so far

        def correcting(engine, *args):
            solves.append(0)
            return real_correct(engine, *args)

        def nan_once(*args, **kwargs):
            step = real_lu_solve(*args, **kwargs)
            if solves == [0]:  # the first corrector's chord iteration
                solves[0] = 1
                step = np.full_like(step, np.nan)
            return step

        monkeypatch.setattr(ContinuationEngine, "_arclength_correct",
                            correcting)
        monkeypatch.setattr(continuation, "lu_solve", nan_once)
        branch = small_engine(max_steps=4).continue_branch()
        # one corrector run per accepted step, and one retry
        assert solves[0] == 1 and len(solves) == len(clean.points)
        assert branch.termination is Alternative.MAX_STEPS_REACHED
        # only accepted points count against the budget
        assert len(branch.points) == len(clean.points)
        assert branch.points[1].strength == pytest.approx(
            0.5 * clean.points[1].strength, rel=1e-3
        )


class TestWorkCounts:
    def test_factorizations_per_accepted_step(self, lu_counter):
        # 32x16 is above KRYLOV_MIN_UNKNOWNS, so predictor, damping-trial and
        # difference-product residuals factor nothing, corrector iterations
        # after the first take Newton-Krylov steps, and each point's
        # Jacobian solves its layers' adjoint blocks by GMRES: 0 per point
        engine = small_engine(n_modes=32, m_vertical=16, max_steps=6)
        branch = engine.continue_branch()
        assert len(branch.points) == 7
        assert [p.newton_iterations for p in branch.points] == [0, 1, 1, 2, 2, 2, 2]
        assert lu_counter.factorizations == 0

    def test_factored_operators_keep_the_analytic_jacobian(self, lu_counter):
        # 16x12 trace solves factor their operators, so every corrector
        # iteration after the first rebuilds the analytic Jacobian, which
        # factors nothing new; the counts are those of the chord-only
        # corrector
        engine = small_engine(max_steps=6)
        branch = engine.continue_branch()
        assert [p.newton_iterations for p in branch.points] == [0, 1, 1, 2, 2, 2, 2]
        assert lu_counter.factorizations == 34

    @staticmethod
    def _vectors(monkeypatch):
        """Counts the layers' Krylov vectors and Richardson steps: "panel"
        the vectors of the adjoint blocks' panels and "trace" those of the
        trace solves, one call each of the apply that `_stationary` hands
        to `gmres`, and "panel steps" and "trace steps" the
        `_richardson_step` calls of their loops, applied or not; the step
        that each apply takes counts as its vector only."""
        counts = {"panel": 0, "trace": 0, "panel steps": 0, "trace steps": 0}
        solving = []  # the `transposed` of each running `_stationary`
        in_gmres = []  # nonempty while an apply runs
        real_stationary = LayerOperators._stationary
        real_step = LayerOperators._richardson_step
        real_gmres = layers.gmres

        def stationary(ops, iterate, defect, size, transposed=False):
            solving.append(transposed)
            try:
                return real_stationary(ops, iterate, defect, size,
                                       transposed)
            finally:
                solving.pop()

        def step(ops, defect, transposed=False):
            if not in_gmres:
                counts["panel steps" if transposed else "trace steps"] += 1
            return real_step(ops, defect, transposed)

        def gmres(apply, rhs, *args):
            def counted(v):
                counts["panel" if solving[-1] else "trace"] += 1
                in_gmres.append(v)
                try:
                    return apply(v)
                finally:
                    in_gmres.pop()

            return real_gmres(counted, rhs, *args)

        monkeypatch.setattr(LayerOperators, "_stationary", stationary)
        monkeypatch.setattr(LayerOperators, "_richardson_step", step)
        monkeypatch.setattr(layers, "gmres", gmres)
        return counts

    def test_branch_blocks_start_from_the_last_point(self, monkeypatch):
        # the 12-step default 64x32 branch: each Jacobian after the first
        # two starts its adjoint blocks from the last one's Z - Z0 scaled
        # by the elevation, and each trace solve from the last state
        # prepared; flat-preconditioned Richardson steps finish every
        # solve, 123 panel steps and 373 trace steps, with no GMRES
        # (GMRES alone built 102 panel-vectors and 347 trace vectors)
        counts = self._vectors(monkeypatch)
        branch = small_engine(n_modes=64, m_vertical=32,
                              max_steps=12).continue_branch()
        assert len(branch.points) == 13
        assert counts["panel"] <= 110
        assert counts["trace"] <= 350
        assert counts["panel steps"] <= 126
        assert counts["trace steps"] <= 380

    def test_fixed_strength_blocks_start_flat(self, monkeypatch):
        # solve_at builds one exact Jacobian, its system's first, which
        # starts both blocks from the flat blocks and keeps no Z - Z0: 65
        # panel steps at strength 3 and no GMRES (48 panel-vectors by
        # GMRES alone); its trace solves take 248 steps and no GMRES (141
        # steps and 97 vectors when a step stalled on its defect, 208
        # vectors by GMRES alone)
        counts = self._vectors(monkeypatch)
        engine = small_engine(n_modes=64, m_vertical=32)
        point = engine.solve_at(3.0)
        assert point.newton_iterations == 5
        assert counts["panel"] == counts["trace"] == 0
        assert counts["panel steps"] <= 67
        assert counts["trace steps"] <= 252
        assert engine.system._deviations == [None, None]

    def test_fixed_strength_solve_hands_off_nothing(self, monkeypatch):
        # at strength 3, 64x32, every trace solve's corrections halve
        # until the solve converges, so none reaches GMRES (11 of them did
        # when a step was judged by its defect), and the five flat chords
        # take their layer products in closed form: the only flat blocks
        # formed are the two that start the exact Jacobian's adjoint blocks
        handed, formed = [], []
        real_gmres = layers.gmres
        real_flat = LayerOperators.flat_adjoint_block

        def gmres(*args):
            handed.append(args[1].shape)
            return real_gmres(*args)

        def flat_adjoint_block(ops):
            formed.append(sys._getframe(1).f_code.co_name)
            return real_flat(ops)

        monkeypatch.setattr(layers, "gmres", gmres)
        monkeypatch.setattr(LayerOperators, "flat_adjoint_block",
                            flat_adjoint_block)
        point = small_engine(n_modes=64, m_vertical=32).solve_at(3.0)
        assert point.newton_iterations == 5
        assert handed == []
        assert formed == ["_adjoint_block"] * 2


class TestNewtonKrylov:
    def test_difference_product_matches_bordered_jacobian(self):
        rng = np.random.default_rng(5)
        engine = small_engine(n_modes=32, m_vertical=16)
        system = engine.system
        n = system.grid.n_modes + 1
        decay = np.exp(-0.4 * np.arange(n))
        eta = 0.1 * rng.standard_normal(n) * decay
        eta[0] = 0.0
        vec = np.r_[eta, 0.05 * rng.standard_normal(2 * n) * np.r_[decay, decay],
                    0.1, 0.3]
        row = rng.standard_normal(vec.size)

        def constraint(x):
            return float(row @ x)

        # a fresh system's trace solves start from zero
        cold = small_engine(n_modes=32, m_vertical=16)
        _, strength, prep, res, gap, _ = engine._evaluate(vec, constraint)
        assert np.abs(system.grid.even_values_half(
            prep.state.elevation)).max() > 0.05  # wavy
        v = rng.standard_normal(vec.size) * np.r_[decay, decay, decay, 1, 1]
        jac = system.jacobian_prepared(prep, strength)
        want = engine._bordered(prep, strength, jac, row) @ v
        # the warm system's trace solves start from the base point's values
        assert all(kept is layer.values
                   for kept, layer in zip(system._values, prep.layers))
        for product_engine in (cold, engine):
            got = product_engine._difference_product(vec, np.r_[res, gap], v,
                                                     constraint)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_fixed_strength_solve_factors_little(self, lu_counter):
        # the origin tangent comes from the closed-form flat linearization;
        # the first iteration solves with the flat-strip Jacobian at the
        # flat guess, each later one refactors that chord at its iterate
        # before its Newton-Krylov step, and the solution's Jacobian is the
        # only exact one: it solves adjoint blocks by GMRES, the flat ones
        # solve none, and none factors anything
        point = small_engine(n_modes=32, m_vertical=16).solve_at(3.0)
        assert point.newton_iterations == 5
        assert lu_counter.factorizations == 0

    @staticmethod
    def _count_solve(monkeypatch, engine, strength):
        """(point, exact Jacobians, flat Jacobians, (forcing, vectors) of
        each Newton-Krylov step, vectors None on a miss) of a solve_at."""
        jacobians, flat, steps = [], [], []
        real_jacobian = WaveSystem.jacobian_prepared
        real_flat = WaveSystem.flat_jacobian
        real_gmres = continuation.gmres

        def counting(system, prep, strength):
            jacobians.append(strength)
            return real_jacobian(system, prep, strength)

        def counting_flat(system, prep, strength):
            flat.append(strength)
            return real_flat(system, prep, strength)

        def counting_vectors(apply, rhs, max_vectors, forcing, *args):
            products = []

            def product(v):
                products.append(v)
                return apply(v)

            step = real_gmres(product, rhs, max_vectors, forcing, *args)
            steps.append((forcing, None if step is None else len(products)))
            return step

        monkeypatch.setattr(WaveSystem, "jacobian_prepared", counting)
        monkeypatch.setattr(WaveSystem, "flat_jacobian", counting_flat)
        monkeypatch.setattr(continuation, "gmres", counting_vectors)
        return engine.solve_at(strength), jacobians, flat, steps

    def test_fixed_strength_solve_builds_one_jacobian(self, monkeypatch):
        # at 64x32 the flat guess's chord is the flat-strip Jacobian, exact
        # there; each Newton-Krylov step refactors it at its iterate and,
        # solved only as far as its residual reduction asks, takes 2, 2, 2
        # and 3 vectors, so the solution's Jacobian is the only exact one
        point, jacobians, flat, steps = self._count_solve(
            monkeypatch, small_engine(n_modes=64, m_vertical=32), 3.0)
        assert point.newton_iterations == 5
        assert jacobians == [3.0]
        assert flat == [3.0] * 5
        assert len(steps) == 4
        assert all(v is not None and v <= 3 for _, v in steps)

    @pytest.mark.parametrize("newton_tol", [0.5, 0.2, 1e-12])
    def test_forcing_stays_below_one(self, monkeypatch, newton_tol):
        # the guess's bordered residual is 0.79 and the first iterate's
        # 0.21: at 0.5 one chord step converges, at 0.2 one Newton-Krylov
        # step runs at the floor 0.1 * newton_tol / |F| = 0.097, and at
        # 1e-12 the floor binds on the last step; every forcing stays below
        # one
        engine = small_engine(n_modes=32, m_vertical=16,
                              newton_tol=newton_tol)
        try:
            point, _, _, steps = self._count_solve(monkeypatch, engine, 3.0)
        except NewtonFailure:
            point = None
        if point is not None:
            assert point.residual_norm <= newton_tol
        assert all(0.0 < forcing < 1.0 for forcing, _ in steps)
        if newton_tol == 0.2:
            assert len(steps) == 1

    def test_branch_steps_keep_their_chord(self, monkeypatch):
        # a branch step's chord is its base point's exact Jacobian, which
        # every Newton-Krylov step of the 12-step 64x32 branch keeps, so no
        # flat-strip Jacobian is built
        flat = []
        real_flat = WaveSystem.flat_jacobian

        def counting_flat(system, prep, strength):
            flat.append(strength)
            return real_flat(system, prep, strength)

        monkeypatch.setattr(WaveSystem, "flat_jacobian", counting_flat)
        branch = small_engine(n_modes=64, m_vertical=32,
                              max_steps=12).continue_branch()
        assert len(branch.points) == 13
        assert flat == []

    def test_a_step_keeps_only_the_layer_values_of_its_base(self,
                                                             monkeypatch):
        # the operators of an accepted point hold the Jacobian's adjoint
        # blocks; from the next step's first prepare on none is alive: the
        # system keeps arrays to start its solves, never operators
        accepted = []  # weak references to the operators of each point
        real_tangent = ContinuationEngine.tangent
        real_prepare = WaveSystem.prepare

        def recording(engine, prep, *args, **kwargs):
            accepted.append([weakref.ref(layer.ops) for layer in prep.layers])
            return real_tangent(engine, prep, *args, **kwargs)

        def checking(system, state):
            assert all(ref() is None for refs in accepted for ref in refs)
            return real_prepare(system, state)

        monkeypatch.setattr(ContinuationEngine, "tangent", recording)
        monkeypatch.setattr(WaveSystem, "prepare", checking)
        branch = small_engine(n_modes=32, m_vertical=16,
                              max_steps=3).continue_branch()
        assert len(accepted) == len(branch.points) == 4

    @pytest.mark.parametrize("strength, iterations",
                             [(1.0, 4), (3.0, 5), (5.0, 6)])
    def test_fixed_strength_solve_matches_the_analytic_corrector(
            self, monkeypatch, strength, iterations):
        krylov = small_engine(n_modes=32, m_vertical=16).solve_at(strength)
        monkeypatch.setattr(ContinuationEngine, "_krylov_step",
                            lambda *args: None)
        analytic = small_engine(n_modes=32, m_vertical=16).solve_at(strength)
        assert krylov.newton_iterations == analytic.newton_iterations == (
            iterations)
        assert np.abs(krylov.state.to_vector()
                      - analytic.state.to_vector()).max() <= 1e-9

    def test_branch_matches_the_analytic_corrector(self, monkeypatch):
        krylov = small_engine(n_modes=32, m_vertical=16,
                              max_steps=20).continue_branch()
        # a Newton-Krylov step that always misses hands every iteration to
        # the analytic Jacobian
        monkeypatch.setattr(ContinuationEngine, "_krylov_step",
                            lambda *args: None)
        analytic = small_engine(n_modes=32, m_vertical=16,
                                max_steps=20).continue_branch()
        assert len(krylov.points) == len(analytic.points) == 21
        assert ([p.newton_iterations for p in krylov.points]
                == [p.newton_iterations for p in analytic.points])
        for a, b in zip(krylov.points, analytic.points):
            assert abs(a.strength - b.strength) <= 1e-9
            assert np.abs(a.state.to_vector()
                          - b.state.to_vector()).max() <= 1e-9

    @pytest.mark.parametrize("run", ["branch", "solve"])
    def test_a_failed_difference_product_builds_the_analytic_jacobian(
            self, monkeypatch, run):
        # a layer solve that fails inside the first difference product
        # ends that Newton-Krylov step as a miss: its iteration builds the
        # analytic Jacobian at once and solves with it, and the run keeps
        # the clean run's iterations and, to 1e-9, its states
        def points():
            engine = small_engine(n_modes=32, m_vertical=16, max_steps=6)
            if run == "branch":
                return engine.continue_branch().points
            return [engine.solve_at(3.0)]

        events = []
        real_product = ContinuationEngine._difference_product
        real_jacobian = WaveSystem.jacobian_prepared

        def product(engine, *args):
            events.append("product")
            if events.count("product") == 1:
                raise LinearSolveFailure("layer solve failed")
            return real_product(engine, *args)

        def jacobian(system, prep, strength):
            events.append("jacobian")
            return real_jacobian(system, prep, strength)

        monkeypatch.setattr(WaveSystem, "jacobian_prepared", jacobian)
        clean = points()
        clean_jacobians = events.count("jacobian")
        events.clear()
        monkeypatch.setattr(ContinuationEngine, "_difference_product",
                            product)
        failed = points()
        assert events[events.index("product") + 1] == "jacobian"
        assert events.count("jacobian") > clean_jacobians
        assert ([p.newton_iterations for p in failed]
                == [p.newton_iterations for p in clean])
        for a, b in zip(failed, clean):
            assert abs(a.strength - b.strength) <= 1e-9
            assert np.abs(a.state.to_vector()
                          - b.state.to_vector()).max() <= 1e-9


class TestKeptStarts:
    """Where a system's solves start changes no result."""

    def test_history_leaves_residual_and_jacobian(self):
        # after solves at strengths 1 and 3, the system starts its trace
        # solves and adjoint blocks from what they left; a fresh one
        # starts from zero and from the flat blocks
        engine = small_engine(n_modes=64, m_vertical=32)
        engine.solve_at(1.0)
        point = engine.solve_at(3.0)
        results = []
        for system in (engine.system, WaveSystem(PARAMS, 64, 32)):
            prep = system.prepare(point.state)
            results.append((system.residual_prepared(prep, 3.0),
                            system.jacobian_prepared(prep, 3.0)))
        (res, jac), (fresh_res, fresh_jac) = results
        assert np.abs(res - fresh_res).max() <= 1e-12
        assert np.linalg.norm(jac - fresh_jac) <= (
            1e-12 * np.linalg.norm(fresh_jac))

    def test_rerun_on_one_system_is_bitwise_identical(self):
        # 32x16 runs GMRES.  The rerun's flat state has zero traces, so
        # its solves ignore the last run's layer values and leave zeros,
        # which no guess uses; its elevation of zero scales the kept
        # Z - Z0 to nothing, so its blocks and the next point's start flat
        engine = small_engine(n_modes=32, m_vertical=16, max_steps=5)
        first = engine.continue_branch()
        second = engine.continue_branch()
        assert len(first.points) == len(second.points) == 6
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a.state.to_vector(), b.state.to_vector())
            assert a.smallest_singular == b.smallest_singular


class TestTermination:
    def test_tiny_norm_cap_reports_unbounded(self):
        engine = small_engine(norm_cap=1e-6, max_steps=10)
        branch = engine.continue_branch()
        assert branch.termination is Alternative.UNBOUNDED
        assert len(branch.points) == 1

    def test_huge_gap_floor_reports_boundary_contact(self):
        engine = small_engine(gap_floor=1.0 - 1e-8, max_steps=10)
        branch = engine.continue_branch()
        assert branch.termination is Alternative.INTERFACE_TOUCHES_BOUNDARY
        assert len(branch.points) >= 1

    def test_near_vortex_reports_vortex_alternative(self):
        params = PhysicalParameters(pair=VortexPair((0.0, -0.1), (0.0, 0.1)))
        system = WaveSystem(params, 16, 12)
        engine = ContinuationEngine(
            system, ContinuationSettings(max_steps=200)
        )
        branch = engine.continue_branch()
        assert branch.termination is Alternative.VORTEX_NEAR_INTERFACE
        assert all(p.vortex_distance >= engine.vortex_guard
                   for p in branch.points)

    def test_precedence_order(self):
        assert classify_termination(True, True, True) is (
            Alternative.VORTEX_NEAR_INTERFACE
        )
        assert classify_termination(False, True, True) is (
            Alternative.INTERFACE_TOUCHES_BOUNDARY
        )
        assert classify_termination(False, False, True) is (
            Alternative.NEWTON_FAILURE
        )
        assert classify_termination(False, False) is (
            Alternative.MAX_STEPS_REACHED
        )


class TestParity:
    def test_branch_prefix_signs_are_constant(self):
        engine = small_engine(max_steps=8)
        branch = engine.continue_branch()
        assert len({p.det_sign for p in branch.points}) == 1
        assert branch.points[0].det_sign == (
            -1 if (engine.system.grid.n_modes + 1) % 2 else 1
        )

    def test_flat_closed_form_sign(self):
        engine = small_engine()
        system = engine.system
        multipliers = (PARAMS.buoyancy
                       - PARAMS.surface_tension * system.grid.wavenumbers**2)
        expected = int(np.sign(np.prod(np.sign(multipliers))))
        sign, _ = engine._sign_and_sigma(system.flat_linearization())
        assert sign == expected


class TestPointDiagnostics:
    """The sign and sigma_min from one LU, against numpy's slogdet and SVD."""

    @staticmethod
    def check(matrix):
        sign, sigma = small_engine()._sign_and_sigma(matrix)
        singulars = np.linalg.svd(matrix, compute_uv=False)
        assert type(sign) is int  # summary.json must serialize it
        assert abs(sigma - singulars[-1]) <= 1e-12 * singulars[0]
        return sign

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed):
        matrix = np.random.default_rng(seed).standard_normal((40, 40))
        assert self.check(matrix) == int(np.linalg.slogdet(matrix)[0])

    def test_odd_row_swaps(self):
        # a diagonally dominant matrix (positive determinant, no pivoting)
        # with its first two rows exchanged: partial pivoting swaps them back
        rng = np.random.default_rng(1)
        dominant = rng.standard_normal((30, 30)) + 40.0 * np.eye(30)
        swapped = dominant[[1, 0] + list(range(2, 30))]
        pivots = lu_factor(swapped)[1]
        assert np.count_nonzero(pivots != np.arange(30)) == 1
        assert self.check(dominant) == 1
        assert self.check(swapped) == -1

    def test_wavy_jacobian(self):
        rng = np.random.default_rng(3)
        system = WaveSystem(PARAMS, 16, 12)
        n = system.grid.n_modes + 1
        decay = np.exp(-0.4 * np.arange(n))
        eta = 0.1 * rng.standard_normal(n) * decay
        eta[0] = 0.0
        vec = np.r_[eta, 0.05 * rng.standard_normal(2 * n)
                    * np.r_[decay, decay], 0.1]
        prep = system.prepare(WaveState.from_vector(vec, n - 1))
        assert np.abs(prep.elevation_half).max() > 0.05  # wavy
        jac = system.jacobian_prepared(prep, 0.3)
        sign = self.check(jac)
        assert sign == int(np.linalg.slogdet(jac)[0]) != 0

    def test_exactly_singular_matrix_has_sign_zero(self):
        matrix = np.random.default_rng(2).standard_normal((40, 40))
        matrix[:, 7] = matrix[:, 3]
        assert self.check(matrix) == 0


@pytest.fixture(scope="module")
def jacobians_64x32():
    """Jacobians of the default 64x32 system: at the flat state, at the
    last point of the 12-step default branch and at the strength-3
    solution."""
    system = WaveSystem(PARAMS, 64, 32)
    engine = ContinuationEngine(system, ContinuationSettings(max_steps=12))
    points = {"branch": engine.continue_branch().points[-1],
              "strength-3": engine.solve_at(3.0)}
    jacobians = {name: system.jacobian_prepared(
        system.prepare(point.state), point.strength)
        for name, point in points.items()}
    jacobians["flat"] = system.jacobian_prepared(
        system.prepare(system.origin()), 0.0)
    return jacobians


@pytest.fixture
def svd_calls(monkeypatch):
    """The svdvals calls of the point diagnostics, counted."""
    calls = []
    real = continuation.svdvals

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "svdvals", counting)
    return calls


class TestSmallestSingularValue:
    """sigma_min by Lanczos on the LU factors, against scipy's svdvals."""

    @pytest.mark.parametrize("name", ["flat", "branch", "strength-3"])
    def test_matches_svdvals_on_64x32_jacobians(self, name, jacobians_64x32,
                                                 svd_calls):
        jac = jacobians_64x32[name]
        want = svdvals(jac)[-1]
        sign, sigma = small_engine()._sign_and_sigma(jac)
        assert svd_calls == []  # the factors settled the sign
        assert abs(sigma - want) <= 1e-12 * want
        assert sign == int(np.linalg.slogdet(jac)[0])

    def test_two_close_smallest_singular_values(self, svd_calls):
        # sigma_n and sigma_n-1 1e-6 apart: the Lanczos estimate must not
        # stop at a mixture of their singular vectors
        rng = np.random.default_rng(5)
        n = 80
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        singulars = np.r_[np.geomspace(50.0, 1.0, n - 2), 0.5 + 1e-6, 0.5]
        matrix = (u * singulars) @ v.T
        want = svdvals(matrix)[-1]
        assert abs(want - 0.5) <= 1e-14
        _, sigma = small_engine()._sign_and_sigma(matrix)
        assert svd_calls == []
        assert abs(sigma - want) <= 1e-12 * want

    def test_zero_pivot_takes_svdvals_silently(self, svd_calls, capsys):
        # an exactly zero column gives the LU factors a zero pivot, for
        # which scipy's lu_factor would warn
        matrix = np.random.default_rng(2).standard_normal((40, 40))
        matrix[:, 7] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, sigma = small_engine()._sign_and_sigma(matrix)
        assert sign == 0
        assert len(svd_calls) == 1
        assert sigma == svdvals(matrix)[-1]
        assert capsys.readouterr() == ("", "")

    def test_branch_calls_no_svd(self, svd_calls):
        # 16x8: 52 unknowns, where the sign and sigma_min of every point
        # come from its LU factors
        branch = small_engine(n_modes=16, m_vertical=8,
                              max_steps=3).continue_branch()
        assert len(branch.points) == 4
        assert svd_calls == []


class TestMirrorSymmetry:
    def test_mirror_maps_residual_jacobian_and_sign(self):
        # (elevation, traces, speed, strength) -> (elevation, -traces,
        # -speed, -strength) maps solutions onto solutions, so the branch
        # towards negative strength is the mirror of the computed one: the
        # residual flips the sign of every block but the dynamic one, and
        # the Jacobian is R J D with R and D those sign flips
        rng = np.random.default_rng(7)
        engine = small_engine(n_modes=32, m_vertical=16)
        system = engine.system
        n = system.grid.n_modes + 1
        decay = np.exp(-0.4 * np.arange(n))
        eta = 0.1 * rng.standard_normal(n) * decay
        eta[0] = 0.0
        vec = np.r_[eta, 0.05 * rng.standard_normal(2 * n) * np.r_[decay, decay],
                    0.1]
        flips = np.r_[np.ones(n), -np.ones(2 * n + 1)]
        state = WaveState.from_vector(vec, system.grid.n_modes)
        mirror = WaveState.from_vector(flips * vec, system.grid.n_modes)
        strength = 0.3
        assert np.abs(system.grid.even_values_half(eta)).max() > 0.05  # wavy

        prep = system.prepare(state)
        prep_mirror = system.prepare(mirror)
        res = system.residual_prepared(prep, strength)
        res_mirror = system.residual_prepared(prep_mirror, -strength)
        assert np.array_equal(res_mirror, flips * res)

        jac = system.jacobian_prepared(prep, strength)
        jac_mirror = system.jacobian_prepared(prep_mirror, -strength)
        assert np.array_equal(jac_mirror, flips[:, None] * jac * flips)

        sign, sigma = engine._sign_and_sigma(jac)
        sign_mirror, sigma_mirror = engine._sign_and_sigma(jac_mirror)
        assert sign_mirror == sign != 0
        assert sigma_mirror == pytest.approx(sigma, rel=1e-12)
