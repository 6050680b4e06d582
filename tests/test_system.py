"""Residual blocks, analytic Jacobian, strength derivative, flat closed form."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwave import layers
from vortexwave.errors import DegenerateStrip, VortexTooClose
from vortexwave.layers import (
    KRYLOV_MIN_UNKNOWNS,
    flat_dno_symbol,
    flat_interior_dy_symbol,
)
from vortexwave.spectral import EvenField
from vortexwave.system import PhysicalParameters, WaveState, WaveSystem
from vortexwave.vortex import VortexPair, vortex_traces

from layer_referee import adjoint_columns

PARAMS = PhysicalParameters()


def decayed_state(rng, n_modes, eta_scale=0.02, trace_scale=0.05, speed=0.05):
    n = n_modes + 1
    decay = np.exp(-0.4 * np.arange(n))
    eta = eta_scale * rng.standard_normal(n) * decay
    eta[0] = 0.0
    return WaveState(
        EvenField(eta),
        EvenField(trace_scale * rng.standard_normal(n) * decay),
        EvenField(trace_scale * rng.standard_normal(n) * decay),
        speed,
    )


def mode_state(n_modes, which, k, amplitude):
    coeffs = {name: np.zeros(n_modes + 1) for name in ("eta", "up", "low")}
    coeffs[which][k] = amplitude
    return WaveState(
        EvenField(coeffs["eta"]), EvenField(coeffs["up"]),
        EvenField(coeffs["low"]), 0.0,
    )


def blocks(vec, n_modes):
    """(dynamic, kinematic upper, kinematic lower, drift) of a residual
    vector, which keeps `WaveState.to_vector`'s block order."""
    split = WaveState.from_vector(vec, n_modes)
    return split.elevation, split.trace_upper, split.trace_lower, split.speed


class TestParameters:
    def test_defaults_are_stably_stratified(self):
        assert PARAMS.buoyancy == pytest.approx(-0.1)
        assert PARAMS.buoyancy < 0

    def test_density_ordering_enforced(self):
        with pytest.raises(ValueError, match="upper density"):
            PhysicalParameters(rho_lower=1.0, rho_upper=1.2)

    def test_vortex_outside_lower_layer_rejected(self):
        with pytest.raises(ValueError, match="lower layer"):
            PhysicalParameters(pair=VortexPair((0.0, -1.5), (0.0, 0.5)))

    def test_nonpositive_tension_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParameters(surface_tension=0.0)


class TestStateVector:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        state = decayed_state(rng, 8)
        back = WaveState.from_vector(state.to_vector(), 8)
        assert np.array_equal(back.to_vector(), state.to_vector())

    def test_zero_state(self):
        z = WaveState.zero(6)
        assert np.all(z.to_vector() == 0.0)
        assert z.to_vector().size == 3 * 7 + 1

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="band"):
            WaveState.from_vector(np.zeros(10), 8)


class TestResidual:
    def test_origin_is_trivial_solution(self):
        system = WaveSystem(PARAMS, 16, 12)
        res = system.residual(system.origin(), 0.0)
        assert np.all(res == 0.0)

    def test_speed_only_state_leaves_drift(self):
        system = WaveSystem(PARAMS, 16, 12)
        state = WaveState.from_vector(
            np.r_[np.zeros(3 * 17), 0.3], 16
        )
        dynamic, upper, _, drift = blocks(system.residual(state, 0.0), 16)
        assert drift == pytest.approx(0.3, abs=1e-14)
        assert np.all(dynamic.coeffs == 0.0)
        assert np.all(upper.coeffs == 0.0)

    def test_flat_lower_trace_matches_hand_assembly(self):
        system = WaveSystem(PARAMS, 64, 32)
        amplitude = 0.3
        state = mode_state(64, "low", 1, amplitude)
        dynamic = blocks(system.residual(state, 0.0), 64)[0]
        g = system.grid
        kappa = g.wavenumbers[1]
        profile = amplitude * np.cos(kappa * g.half_nodes)
        normal = flat_dno_symbol(g, PARAMS.depth)[1] * profile
        tangential = -amplitude * kappa * np.sin(kappa * g.half_nodes)
        oracle = -0.5 * PARAMS.rho_lower * (normal**2 + tangential**2)
        got = g.even_values_half(dynamic)
        assert np.abs(got - oracle).max() < 1e-9

    def test_flat_two_layer_hand_assembly(self):
        system = WaveSystem(PARAMS, 32, 24)
        g = system.grid
        n = 33
        up = np.zeros(n)
        low = np.zeros(n)
        up[2], low[3] = 0.2, -0.15
        state = WaveState(EvenField(np.zeros(n)), EvenField(up),
                          EvenField(low), 0.4)
        dynamic = blocks(system.residual(state, 0.0), 32)[0]
        sym = flat_dno_symbol(g, PARAMS.depth)
        x = g.half_nodes
        gu = sym[2] * up[2] * np.cos(g.wavenumbers[2] * x)
        bu = -up[2] * g.wavenumbers[2] * np.sin(g.wavenumbers[2] * x)
        gl = sym[3] * low[3] * np.cos(g.wavenumbers[3] * x)
        bl = -low[3] * g.wavenumbers[3] * np.sin(g.wavenumbers[3] * x)
        oracle = (
            state.speed * (PARAMS.rho_upper * gu - PARAMS.rho_lower * gl)
            + 0.5 * PARAMS.rho_upper * (gu**2 + bu**2)
            - 0.5 * PARAMS.rho_lower * (gl**2 + bl**2)
        )
        got = g.even_values_half(dynamic)
        assert np.abs(got - oracle).max() < 1e-10

    def test_drift_block_closed_form(self):
        system = WaveSystem(PARAMS, 16, 32)
        amplitude = 0.7
        state = WaveState.from_vector(
            np.r_[np.zeros(17), np.zeros(17),
                  amplitude * (np.arange(17) == 2), 0.1], 16
        )
        drift = blocks(system.residual(state, 0.02), 16)[3]
        sym = flat_interior_dy_symbol(system.grid, PARAMS.depth,
                                      PARAMS.pair.lower[1])
        expected = 0.1 + amplitude * sym[2] - system.pair_speed * 0.02
        assert drift == pytest.approx(expected, abs=1e-9)

    def test_kinematic_block_matches_direct_assembly(self):
        rng = np.random.default_rng(3)
        system = WaveSystem(PARAMS, 16, 12)
        state = decayed_state(rng, 16, speed=0.2)
        strength = 0.04
        upper = blocks(system.residual(state, strength), 16)[1]
        g = system.grid
        e = g.even_values_half(state.elevation)
        tr = vortex_traces(PARAMS.pair, g.half_nodes, e, PARAMS.half_period)
        direct = (g.even_values_half(state.trace_upper)
                  - strength * tr.phi + state.speed * e)
        got = g.even_values_half(upper)
        assert np.abs(got - direct).max() < 1e-13

    def test_kinematic_block_agrees_with_full_grid_assembly(self):
        rng = np.random.default_rng(4)
        system = WaveSystem(PARAMS, 16, 12)
        state = decayed_state(rng, 16, speed=0.1)
        strength = 0.03
        lower = blocks(system.residual(state, strength), 16)[2]
        g = system.grid
        x = g.nodes
        e = g.evaluate_even(state.elevation, x)
        tr = vortex_traces(PARAMS.pair, x, e, PARAMS.half_period)
        full = (g.evaluate_even(state.trace_lower, x)
                + strength * tr.phi + state.speed * e)
        mirrored = full[(-np.arange(x.size)) % x.size]
        assert (0.5 * np.linalg.norm(full - mirrored)
                <= 1e-10 * np.linalg.norm(full))
        refolded = g._cos_inv @ (0.5 * (full + mirrored))[: g.n_modes + 1]
        assert np.abs(refolded - lower.coeffs).max() < 1e-12

    def test_rerun_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        system = WaveSystem(PARAMS, 16, 12)
        state = decayed_state(rng, 16)
        first = system.residual(state, 0.02)
        second = system.residual(state, 0.02)
        assert np.array_equal(first, second)

    def test_degenerate_strip_propagates(self):
        system = WaveSystem(PARAMS, 16, 12)
        state = mode_state(16, "eta", 0, 0.999 * PARAMS.depth)
        with pytest.raises(DegenerateStrip):
            system.residual(state, 0.0)

    def test_interface_above_the_upper_wall_is_degenerate(self):
        # one half-grid node 0.5 above the upper wall, none near it: the
        # upper layer's thickness is negative there
        system = WaveSystem(PARAMS, 16, 12)
        values = np.zeros(17)
        values[8] = 1.5 * PARAMS.depth
        state = WaveState(EvenField(system.grid._cos_inv @ values),
                          EvenField(np.zeros(17)), EvenField(np.zeros(17)),
                          0.0)
        with pytest.raises(DegenerateStrip):
            system.prepare(state)

    def test_vortex_guard_propagates(self):
        # a flat interface through the lower vortex meets the kernel's
        # singularity floor
        system = WaveSystem(PARAMS, 16, 12)
        state = mode_state(16, "eta", 0, PARAMS.pair.lower[1])
        with pytest.raises(VortexTooClose):
            system.residual(state, 0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), speed=st.floats(-0.2, 0.2))
    def test_speed_enters_kinematics_linearly(self, seed, speed):
        rng = np.random.default_rng(seed)
        system = WaveSystem(PARAMS, 8, 8)
        base = decayed_state(rng, 8, speed=0.0)
        moved = WaveState(base.elevation, base.trace_upper,
                          base.trace_lower, speed)
        r0 = blocks(system.residual(base, 0.0), 8)[2]
        r1 = blocks(system.residual(moved, 0.0), 8)[2]
        shift = r1.coeffs - r0.coeffs
        assert np.abs(shift - speed * base.elevation.coeffs).max() < 1e-13


class TestFactorizationCounts:
    """Layer operators are factored only below the Krylov crossover."""

    @pytest.mark.parametrize("n_modes, m_vertical, on_residual", [
        (32, 16, 0),  # 561 unknowns per layer: GMRES solves
        (16, 12, 2),  # 221 unknowns: below the crossover, LU solves
    ])
    def test_residual_factors_only_below_the_crossover(
            self, lu_counter, n_modes, m_vertical, on_residual):
        unknowns = (n_modes + 1) * (m_vertical + 1)
        assert (unknowns >= KRYLOV_MIN_UNKNOWNS) == (on_residual == 0)
        system = WaveSystem(PARAMS, n_modes, m_vertical)
        prep = system.prepare(decayed_state(np.random.default_rng(3), n_modes))
        system.residual_prepared(prep, 0.02)
        assert lu_counter.factorizations == on_residual
        # the Jacobian factors nothing: GMRES above the crossover, the trace
        # solves' factors below it
        system.jacobian_prepared(prep, 0.02)
        assert lu_counter.factorizations == on_residual

    def test_jacobian_solves_the_vortex_adjoint_once(self, lu_counter,
                                                     monkeypatch):
        # the Dirichlet-to-Neumann matrix, the shape derivatives and the
        # drift row of each layer read one adjoint block: N + 1 interface
        # columns, and on the lower layer the vortex column besides, solved
        # a panel of at most BLOCK_COLUMNS columns per transposed
        # `_stationary` call
        panels = {}  # layer operator: its panel widths
        real_stationary = layers.LayerOperators._stationary

        def counting(ops, iterate, defect, size, transposed=False):
            if transposed:
                panels.setdefault(ops, []).append(iterate.shape[1])
            return real_stationary(ops, iterate, defect, size, transposed)

        system = WaveSystem(PARAMS, 32, 16)
        prep = system.prepare(decayed_state(np.random.default_rng(3), 32))
        monkeypatch.setattr(layers.LayerOperators, "_stationary", counting)
        system.jacobian_prepared(prep, 0.02)
        assert list(panels) == [prep.lower.ops, prep.upper.ops]
        assert [sum(widths) for widths in panels.values()] == [34, 33]
        assert max(max(widths) for widths in panels.values()) <= (
            layers.BLOCK_COLUMNS)
        assert lu_counter.factorizations == 0
        assert lu_counter.transposed_solves == []

    def test_work_buffers_hold_one_panel(self):
        # the Krylov basis and the scratch of the applies are sized by a
        # panel of the adjoint block, not by the block of N + 2 columns
        system = WaveSystem(PARAMS, 64, 32)
        prep = system.prepare(decayed_state(np.random.default_rng(5), 64))
        system.jacobian_prepared(prep, 0.02)
        assert not (prep.lower.ops.factored or prep.upper.ops.factored)
        panel = 65 * layers.BLOCK_COLUMNS * 33
        assert max(buffer.size for buffer in system._work._buffers.values()
                   ) <= panel


class TestJacobian:
    def test_origin_matches_closed_form(self):
        system = WaveSystem(PARAMS, 32, 48)
        analytic = system.jacobian_prepared(system.prepare(system.origin()),
                                            0.0)
        flat = system.flat_linearization()
        assert np.abs(analytic - flat).max() < 1e-10

    def test_eta_block_multiplier_value(self):
        system = WaveSystem(PARAMS, 16, 12)
        flat = system.flat_linearization()
        assert flat[2, 2] == pytest.approx(-0.5)

    def test_origin_is_invertible(self):
        system = WaveSystem(PARAMS, 16, 12)
        singulars = np.linalg.svd(system.flat_linearization(),
                                  compute_uv=False)
        assert singulars[-1] > 1e-6

    def test_fd_referee_on_random_states(self):
        rng = np.random.default_rng(11)
        system = WaveSystem(PARAMS, 16, 12)
        for _ in range(2):
            state = decayed_state(rng, 16, speed=0.1 * rng.standard_normal())
            strength = 0.05 * rng.standard_normal()
            analytic = system.jacobian_prepared(system.prepare(state),
                                                strength)
            fd = system.jacobian_fd(state, strength)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-7

    def test_fd_referee_at_reference_amplitudes(self):
        rng = np.random.default_rng(12)
        system = WaveSystem(PARAMS, 16, 12)
        state = decayed_state(rng, 16, eta_scale=0.05, speed=0.1)
        peak = np.abs(system.grid.even_values_half(state.elevation)).max()
        scaled = WaveState(
            EvenField(state.elevation.coeffs * (0.05 * PARAMS.depth / peak)),
            state.trace_upper, state.trace_lower, state.speed,
        )
        analytic = system.jacobian_prepared(system.prepare(scaled), 0.05)
        fd = system.jacobian_fd(scaled, 0.05)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-7

    def test_one_adjoint_block_is_alive_at_a_time(self, monkeypatch):
        # the assembly drops each layer's block before it solves the next
        # layer's, and keeps neither: at each solve, and after the
        # Jacobian, no earlier block is alive
        system = WaveSystem(PARAMS, 32, 16)
        prep = system.prepare(decayed_state(np.random.default_rng(7), 32))
        blocks, alive = [], []
        real = layers.LayerOperators.adjoint_block

        def tracked(ops, kept=None):
            alive.append(sum(block() is not None for block in blocks))
            z = real(ops, kept)
            blocks.append(weakref.ref(z))
            return z

        monkeypatch.setattr(layers.LayerOperators, "adjoint_block", tracked)
        for _ in range(2):
            system.jacobian_prepared(prep, 0.3)
            alive.append(sum(block() is not None for block in blocks))
        assert alive == [0, 0, 0] * 2


class TestFlatJacobian:
    """The analytic Jacobian read through each layer's flat-strip block."""

    @pytest.mark.parametrize("raised", [False, True])
    def test_exact_on_strips_of_constant_thickness(self, raised):
        # with h constant the flat strip at the mean thickness is the layer
        # operator itself: at the origin, and at a constant elevation with
        # nonzero traces and speed, where the shape terms do not vanish
        system = WaveSystem(PARAMS, 32, 16)
        n = system.grid.n_modes + 1
        state = system.origin()
        if raised:
            wavy = decayed_state(np.random.default_rng(4), 32, speed=0.1)
            eta = np.zeros(n)
            eta[0] = 0.1
            state = WaveState(EvenField(eta), wavy.trace_upper,
                              wavy.trace_lower, wavy.speed)
        prep = system.prepare(state)
        flat = system.flat_jacobian(prep, 0.3)
        exact = system.jacobian_prepared(prep, 0.3)
        blocks = {
            "elevation": (slice(None, n), slice(None, n)),
            "upper layer": (slice(None, n), slice(n, 2 * n)),
            "lower layer": (slice(None, n), slice(2 * n, 3 * n)),
            "probe row": (-1, slice(None)),
        }
        for name, block in blocks.items():
            scale = np.abs(exact[block]).max()
            assert scale > 0.0, name
            assert np.abs(flat[block] - exact[block]).max() <= 1e-12 * scale, (
                name)
        # the shape terms, small against gravity and tension in the
        # elevation columns, on their own
        for layer in prep.layers if raised else ():
            ops = layer.ops
            want = ops.shape_batch(layer.values, ops.adjoint_block())
            got = ops.shape_batch(layer.values, None)
            for exact_part, flat_part in zip(want, got):
                if exact_part is not None:
                    scale = np.abs(exact_part).max()
                    assert scale > 1e-3
                    assert np.abs(flat_part - exact_part).max() <= (
                        1e-12 * scale)

    def test_leaves_the_exact_jacobian_as_it_was(self, monkeypatch):
        # the flat chord solves no adjoint block: the exact Jacobian of a
        # prepared state equals, bit for bit, that of a fresh system
        system = WaveSystem(PARAMS, 32, 16)
        state = decayed_state(np.random.default_rng(7), 32, eta_scale=0.05)
        prep = system.prepare(state)
        solved = []
        with monkeypatch.context() as patch:
            patch.setattr(layers.LayerOperators, "adjoint_block",
                          lambda *args: solved.append(args))
            flat = system.flat_jacobian(prep, 0.3)
        assert solved == []
        exact = system.jacobian_prepared(prep, 0.3)
        fresh = WaveSystem(PARAMS, 32, 16)
        assert np.array_equal(
            exact, fresh.jacobian_prepared(fresh.prepare(state), 0.3))
        assert not np.allclose(flat, exact)  # a wavy state

    def test_closed_form_block_matches_the_flat_solve(self):
        # each column of [E^T | e] is rank one in (x, tau), so the flat
        # block is the cosine synthesis times per-mode tau profiles; the
        # referee is the transposed flat-strip solve of the columns, a
        # panel at a time, on the unprobed upper and the probed lower strip
        system = WaveSystem(PARAMS, 32, 16)
        state = decayed_state(np.random.default_rng(7), 32, eta_scale=0.05)
        prep = system.prepare(state)
        assert np.abs(prep.elevation_half).max() > 0.02  # wavy
        for layer, columns in ((prep.upper, 33), (prep.lower, 34)):
            ops = layer.ops
            rhs = adjoint_columns(ops)
            want = np.empty_like(rhs)
            for panel in layers._panels(rhs.shape[1]):
                want[:, panel] = ops._flat_solve(
                    np.ascontiguousarray(rhs[:, panel]), transposed=True)
            got = ops.flat_adjoint_block()
            assert got.shape == want.shape == (33, columns, 17)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_flat_block_allocates_little_besides_itself(self):
        # the mode products of a panel live in the work buffers, so a
        # repeated call allocates the block and a few (x, tau) profiles
        system = WaveSystem(PARAMS, 64, 32)
        prep = system.prepare(decayed_state(np.random.default_rng(5), 64))
        ops = prep.lower.ops
        block = ops.flat_adjoint_block()
        tracemalloc.start()
        try:
            ops.flat_adjoint_block()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * block.nbytes

    def test_work_buffers_hold_one_panel(self):
        # the flat blocks of N + 1 and N + 2 columns run a panel at a time
        system = WaveSystem(PARAMS, 64, 32)
        prep = system.prepare(decayed_state(np.random.default_rng(5), 64))
        system.flat_jacobian(prep, 0.02)
        panel = 65 * layers.BLOCK_COLUMNS * 33
        assert max(buffer.size for buffer in system._work._buffers.values()
                   ) <= panel


class TestStrengthDerivative:
    def test_matches_central_difference(self):
        rng = np.random.default_rng(21)
        system = WaveSystem(PARAMS, 16, 12)
        state = decayed_state(rng, 16, speed=0.15)
        prep = system.prepare(state)
        analytic = system.strength_derivative(prep, 0.03)
        fd = system.strength_derivative_fd(state, 0.03)
        assert np.abs(analytic - fd).max() < 1e-9

    def test_origin_blocks(self):
        system = WaveSystem(PARAMS, 16, 12)
        prep = system.prepare(system.origin())
        dynamic, _, lower, drift = blocks(
            system.strength_derivative(prep, 0.0), 16)
        assert np.all(dynamic.coeffs == 0.0)
        assert drift == pytest.approx(-system.pair_speed)
        g = system.grid
        tr = vortex_traces(PARAMS.pair, g.half_nodes,
                           np.zeros(g.n_modes + 1), PARAMS.half_period)
        got = g.even_values_half(lower)
        assert np.abs(got - tr.phi).max() < 1e-13


class TestDiagnostics:
    def test_band_limited_state_keeps_dynamic_resolved(self):
        rng = np.random.default_rng(32)
        n_modes = 32
        system = WaveSystem(PARAMS, n_modes, 16)
        state = decayed_state(rng, n_modes, eta_scale=0.002,
                              trace_scale=0.005)
        cut = n_modes // 2
        limited = WaveState(
            EvenField(np.where(np.arange(n_modes + 1) <= cut,
                               state.elevation.coeffs, 0.0)),
            EvenField(np.where(np.arange(n_modes + 1) <= cut,
                               state.trace_upper.coeffs, 0.0)),
            EvenField(np.where(np.arange(n_modes + 1) <= cut,
                               state.trace_lower.coeffs, 0.0)),
            0.1,
        )
        coeffs = blocks(system.residual(limited, 0.02), n_modes)[0].coeffs
        total = np.sum(coeffs**2)
        top = np.sum(coeffs[2 * (n_modes + 1) // 3:] ** 2)
        assert top < 1e-8 * total
