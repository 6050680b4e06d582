"""Mapped harmonic solves, interface extraction, interior evaluation, shape derivatives."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwave import layers
from vortexwave.errors import DegenerateStrip, PointOutsideLayer
from vortexwave.layers import (
    KRYLOV_FLOOR,
    KRYLOV_MAX,
    KRYLOV_MIN_UNKNOWNS,
    KRYLOV_TOL,
    LayerOperators,
    chebyshev_diff_matrix,
    chebyshev_gauss_lobatto,
    flat_dno_symbol,
    _blas_product,
    flat_interior_dy_symbol,
    gmres,
)
from vortexwave.continuation import ContinuationEngine, ContinuationSettings
from vortexwave.spectral import CollocationGrid, EvenField
from vortexwave.system import PhysicalParameters, WaveState, WaveSystem

from layer_referee import (
    assembled_operator,
    explicit_shape_batch,
    flat_solve_dense,
    forward_lu_products,
    shape_derivative,
)

GRID = CollocationGrid(np.pi, 64)
NX = GRID.n_modes + 1
FLAT = EvenField(np.zeros(NX))
DEPTH = 1.0


def mode(k, amplitude=1.0, n=NX):
    c = np.zeros(n)
    c[k] = amplitude
    return EvenField(c)


def wavy(n=NX):
    c = np.zeros(n)
    c[0], c[1], c[3] = 0.02, 0.06, -0.04
    return EvenField(c)


def strip(grid, eta, m, probe=None):
    """Layer operator of the strip between the wall y = -DEPTH and eta."""
    return LayerOperators(grid, DEPTH, eta, m, probe=probe)


def on_side(eta, side):
    """Interface of the strip for one layer: the upper layer over eta is the
    lower strip under -eta, its points (x, y) at (x, -y)."""
    return eta if side == "lower" else EvenField(-eta.coeffs)


def dno(grid, eta, trace, m):
    """Coefficients of the outward interface derivative of one trace solve."""
    ops = strip(grid, eta, m)
    return grid._cos_inv @ ops.dno_values_half(ops.solve(trace))


class TestChebyshevPieces:
    def test_lobatto_endpoints(self):
        t = chebyshev_gauss_lobatto(8)
        assert t[0] == 1.0 and t[-1] == -1.0
        assert np.all(np.diff(t) < 0)

    def test_diff_matrix_on_cubic(self):
        t = chebyshev_gauss_lobatto(12)
        d = chebyshev_diff_matrix(12)
        assert np.allclose(d @ t**3, 3 * t**2, atol=1e-11)

    def test_diff_matrix_kills_constants(self):
        d = chebyshev_diff_matrix(10)
        assert np.max(np.abs(d @ np.ones(11))) < 1e-12


class TestFlatSolves:
    def test_constant_trace_is_linear_extension(self):
        # (y + d)/d matches both Dirichlet boundaries
        ops = strip(GRID, FLAT, 32)
        sol = ops.solve(mode(0))
        for x, y in [(0.3, -0.9), (1.1, -0.5), (-2.0, -0.1)]:
            assert ops.eval_interior(sol, (x, y)) == pytest.approx(
                (y + DEPTH) / DEPTH, abs=1e-10
            )

    def test_zero_trace_gives_zero_solution(self):
        sol = strip(GRID, wavy(), 16).solve(mode(3, 0.0))
        assert np.max(np.abs(sol)) == 0.0

    def test_cosine_trace_matches_sinh_profile(self):
        k, kap = 3, 3.0
        ops = strip(GRID, FLAT, 32)
        sol = ops.solve(mode(k))
        for x, y in [(0.4, -0.35), (0.0, -0.7), (1.5, -0.2)]:
            exact = np.cos(kap * x) * np.sinh(kap * (y + DEPTH)) / np.sinh(kap)
            assert ops.eval_interior(sol, (x, y)) == pytest.approx(exact, abs=1e-10)

    def test_upper_layer_mirrors_lower(self):
        k, kap = 2, 2.0
        system = WaveSystem(PhysicalParameters(depth=DEPTH), GRID.n_modes, 32)
        prep = system.prepare(WaveState(FLAT, mode(k), FLAT, 0.0))
        ops = prep.upper.ops
        for x, y in [(0.4, 0.35), (0.0, 0.7)]:
            exact = np.cos(kap * x) * np.sinh(kap * (DEPTH - y)) / np.sinh(kap)
            got = ops.eval_interior(prep.upper.values, (x, -y))
            assert got == pytest.approx(exact, abs=1e-10)

    def test_interface_trace_reproduced(self):
        sol = strip(GRID, wavy(), 24).solve(mode(5, 0.8))
        got = sol[:, 0]
        want = GRID.even_values_half(mode(5, 0.8))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_wall_values_vanish(self):
        sol = strip(GRID, on_side(wavy(), "upper"), 24).solve(mode(2))
        assert np.max(np.abs(sol[:, -1])) < 1e-12


class TestFlatDno:
    def test_multipliers_both_layers(self):
        # criterion floor: k <= N/4 at relative 1e-10, k = 0 gives 1/d
        for side in ("lower", "upper"):
            mat = strip(GRID, on_side(FLAT, side), 32).dno_matrix()
            sym = flat_dno_symbol(GRID, DEPTH)
            for k in range(17):
                assert mat[k, k] == pytest.approx(sym[k], rel=1e-10)

    def test_constant_trace_multiplier(self):
        g = dno(GRID, FLAT, mode(0), 32)
        assert g[0] == pytest.approx(1.0 / DEPTH, rel=1e-11)

    def test_symbol_matches_brute_coth(self):
        sym = flat_dno_symbol(GRID, DEPTH)
        k = GRID.wavenumbers[5]
        assert sym[5] == pytest.approx(k / np.tanh(k * DEPTH), rel=1e-14)

    def test_self_adjoint_in_l2(self):
        rng = np.random.default_rng(11)
        ops = strip(GRID, FLAT, 32)
        mat = ops.dno_matrix()
        w = GRID.sobolev_weights(0)
        f = rng.standard_normal(NX) * np.exp(-0.3 * np.arange(NX))
        g = rng.standard_normal(NX) * np.exp(-0.3 * np.arange(NX))
        lhs = np.sum(w * (mat @ f) * g)
        rhs = np.sum(w * f * (mat @ g))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("n_modes, m_vertical", [(64, 32), (128, 48)])
    def test_flat_matrix_is_diagonal(self, n_modes, m_vertical):
        # the flat strip decouples the cosine modes, so every off-diagonal
        # entry is solve roundoff; it must not grow with the resolution
        grid = CollocationGrid(np.pi, n_modes)
        flat = EvenField(np.zeros(n_modes + 1))
        for side in ("lower", "upper"):
            mat = strip(grid, on_side(flat, side), m_vertical).dno_matrix()
            off = mat - np.diag(np.diag(mat))
            assert np.max(np.abs(off)) < 1e-11

    def test_dno_field_equals_matrix_action(self):
        ops = strip(GRID, wavy(), 24)
        tr = mode(4, 0.6)
        sol = ops.solve(tr)
        via_values = GRID._cos_inv @ ops.dno_values_half(sol)
        via_matrix = ops.dno_matrix() @ tr.coeffs
        assert np.max(np.abs(via_values - via_matrix)) < 1e-9


def peaked(value_at_crest, n=NX):
    """Interface with one crest at x = 0, where it takes the given value."""
    c = np.zeros(n)
    c[1], c[2], c[3] = 0.2, 0.1, 0.03
    return EvenField(c * (value_at_crest / c.sum()))


class TestTraceSolvePaths:
    """Krylov trace solves against the LU path of the same operator."""

    @pytest.mark.parametrize("crest, side, krylov_converges", [
        (0.0, "lower", True),     # flat
        (0.33, "lower", True),    # wavy: sup 0.33
        (0.33, "upper", True),
        (-0.9, "lower", False),   # thin: min thickness 0.1
    ])
    def test_krylov_agrees_with_lu(self, crest, side, krylov_converges):
        m = 32
        assert NX * (m + 1) >= KRYLOV_MIN_UNKNOWNS
        ops = strip(GRID, on_side(peaked(crest), side), m)
        trace = EvenField(0.5 ** np.arange(NX))
        rhs = np.zeros(NX * (m + 1))
        rhs[:: m + 1] = GRID.even_values_half(trace)
        krylov = gmres(ops._apply, ops._flat_solve, rhs, KRYLOV_MAX,
                       KRYLOV_TOL, KRYLOV_FLOOR)
        assert (krylov is not None) == krylov_converges
        got = ops.solve(trace).ravel()
        want = ops._solve_rhs(rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("crest", [0.0, 0.33, -0.9])  # flat, crest, thin
    def test_flat_solve_matches_the_dense_block_inverse(self, crest, side):
        if side == "upper":
            crest = -crest  # thin means a crest towards the upper wall
        ops = strip(GRID, on_side(peaked(crest), side), 32)
        rhs = np.random.default_rng(4).standard_normal(NX * 33)
        got = ops._flat_solve(rhs)
        want = flat_solve_dense(ops, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("crest, side, vectors", [
        (0.0, "lower", 2),      # flat
        (0.33, "upper", 26),    # 0.33 crest over a 0.67 layer
        (-0.7, "lower", 63),    # min thickness 0.3
        (-0.9, "lower", None),  # min thickness 0.1: no convergence
    ])
    def test_krylov_vector_counts(self, crest, side, vectors):
        # counted with twice the solve's cap, so that the thin-layer miss
        # is not a matter of the cap
        ops = strip(GRID, on_side(peaked(crest), side), 32)
        rhs = np.zeros(NX * 33)
        rhs[::33] = GRID.even_values_half(EvenField(0.5 ** np.arange(NX)))
        applied = []

        def precondition(v):
            applied.append(v)
            return ops._flat_solve(v)

        out = gmres(ops._apply, precondition, rhs, 2 * KRYLOV_MAX,
                    KRYLOV_TOL, KRYLOV_FLOOR)
        if vectors is None:
            assert out is None
        else:  # one preconditioner call per vector, one for the solution
            assert len(applied) == vectors + 1


def worst_relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def strength_3():
    """(system, state) of the fixed-strength solve at strength 3, 32x16."""
    system = WaveSystem(PhysicalParameters(), 32, 16)
    engine = ContinuationEngine(system, ContinuationSettings())
    return system, engine.solve_at(3.0).state


class TestAdjointBlock:
    """The Jacobian's layer products from the adjoint block against the
    forward LU solves of the same operator."""

    POINT = (0.0, -0.5)  # the vortex, and the phantom in its reflected strip

    def layer(self, state, side, strength_3):
        """(operator, solution) of one layer with its probe: flat, under a
        0.33 crest, thin (min thickness 0.1, where GMRES misses, probed
        halfway down the thinnest column), or at the 32x16 strength-3
        solution."""
        if state == "strength-3":
            system, wave = strength_3
            prep = system.prepare(wave)
            layer = prep.lower if side == "lower" else prep.upper
            # the prepared upper layer has no probe: the same strip with one
            ops = strip(system.grid, layer.ops.eta, system.m_vertical,
                        self.POINT)
            return ops, layer.values
        if state == "thin":  # a crest towards either wall thins its strip
            ops = strip(GRID, peaked(-0.9), 32, (0.0, -0.95))
        else:
            crest = 0.0 if state == "flat" else 0.33
            ops = strip(GRID, on_side(peaked(crest), side), 32, self.POINT)
        return ops, ops.solve(EvenField(0.5 ** np.arange(NX)))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "strength-3"])
    def test_matches_the_forward_lu_referee(self, state, side, strength_3):
        ops, sol = self.layer(state, side, strength_3)
        nx = ops.grid.n_modes + 1
        assert nx * (ops.m_vertical + 1) >= KRYLOV_MIN_UNKNOWNS
        shape_dno, shape_dy = ops.shape_batch(sol)
        got = (ops.dno_matrix(), shape_dno, shape_dy, ops.interior_dy_row())
        assert not ops.factored  # GMRES solved the block
        want = forward_lu_products(ops, sol)
        for g, w in zip(got, want):
            assert worst_relative(g, w) <= 1e-12

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "thin", "strength-3"])
    def test_shape_batch_matches_the_explicit_rhs(self, state, side,
                                                  strength_3):
        # the contraction through the factors of R against -Z^T R with R
        # formed, on the same adjoint block
        ops, sol = self.layer(state, side, strength_3)
        got = ops.shape_batch(sol)
        assert ops.factored == (state == "thin")  # the LU path, or GMRES
        for g, w in zip(got, explicit_shape_batch(ops, sol)):
            assert worst_relative(g, w) <= 1e-13

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["crest", "thin", "strength-3"])
    def test_panels_match_the_whole_block(self, state, side, strength_3,
                                          monkeypatch):
        # GMRES on near-equal panels of at most 5 columns against one
        # panel of the whole block; the probe column, the block's last,
        # ends the last panel
        blocks = []
        for columns in (5, 1000):
            monkeypatch.setattr(layers, "BLOCK_COLUMNS", columns)
            ops, _ = self.layer(state, side, strength_3)
            blocks.append(ops._adjoint_block)
            assert ops.factored == (state == "thin")  # the LU path, or GMRES
        assert worst_relative(blocks[0], blocks[1]) <= 1e-13

    def test_thin_layer_falls_back_to_lu(self):
        # min thickness 0.1, probed halfway down the thinnest column
        ops = strip(GRID, peaked(-0.9), 32, (0.0, -0.95))
        assert not ops.factored
        got = ops.dno_matrix()
        assert ops.factored  # GMRES missed, so the block took the LU path
        sol = ops.solve(EvenField(0.5 ** np.arange(NX)))
        shape_dno, shape_dy = ops.shape_batch(sol)
        got = (got, shape_dno, shape_dy, ops.interior_dy_row())
        want = forward_lu_products(ops, sol)
        for g, w in zip(got, want):
            assert worst_relative(g, w) <= 1e-12

    @pytest.mark.parametrize("order", [
        ("dno_matrix", "interior_dy_row", "shape_batch"),
        ("shape_batch", "dno_matrix", "interior_dy_row"),
    ])
    def test_one_block_solve_whatever_the_call_order(self, order, lu_counter):
        # the Dirichlet-to-Neumann matrix, the drift row and the shape
        # derivatives of a probed 32x16 lower layer read one transposed
        # block solve of N + 1 interface columns and the probe column
        grid = CollocationGrid(np.pi, 32)
        ops = strip(grid, peaked(0.33, n=33), 16, (0.0, -0.5))
        sol = ops.solve(EvenField(0.5 ** np.arange(33)))
        solve = ops._solve
        solves = []

        def counting(rhs, transposed=False):
            solves.append((rhs.shape, transposed))
            return solve(rhs, transposed)

        ops._solve = counting
        calls = {"dno_matrix": ops.dno_matrix,
                 "interior_dy_row": ops.interior_dy_row,
                 "shape_batch": lambda: ops.shape_batch(sol)}
        for name in order:
            calls[name]()
        assert solves == [((33, 34, 17), True)]
        assert lu_counter.factorizations == 0

    def test_block_columns_match_single_solves(self):
        ops = strip(GRID, peaked(0.33), 32)
        ops.dno_matrix()  # leaves another solve's values in the kept buffers
        d_tau0 = ops._d_tau[0]
        rhs = np.zeros((NX, 3, 33))  # (x node, column, tau node)
        rhs[3, 0] = d_tau0
        rhs[40, 2] = d_tau0  # column 1 stays zero
        block = gmres(ops._apply_transpose, ops._flat_solve_transpose, rhs,
                      KRYLOV_MAX, KRYLOV_TOL, KRYLOV_FLOOR, ops._work).copy()
        assert np.all(block[:, 1] == 0.0)
        for c in (0, 2):
            single = gmres(ops._apply_transpose, ops._flat_solve_transpose,
                           rhs[:, c].ravel(), KRYLOV_MAX, KRYLOV_TOL,
                           KRYLOV_FLOOR)
            assert worst_relative(block[:, c].ravel(), single) <= 1e-12

    def test_one_column_block_runs_as_the_vector(self):
        ops = strip(GRID, peaked(0.33), 32)
        vector = np.random.default_rng(11).standard_normal(NX * 33)
        solves = [gmres(ops._apply_transpose, ops._flat_solve_transpose,
                        rhs, KRYLOV_MAX, KRYLOV_TOL, KRYLOV_FLOOR).copy()
                  for rhs in (vector, vector.reshape(NX, 1, 33))]
        assert solves[1].shape == (NX, 1, 33)
        assert np.array_equal(solves[0], solves[1].ravel())


class TestWarmStart:
    """Trace solves started from the solution at a nearby state."""

    NEARBY = 1e-6  # relative move of the interface and the trace

    def strip_and_trace(self, state, side, strength_3, scale=1.0):
        """(operator, trace) of one strip, its interface and trace times
        `scale`: flat, under a 0.33 crest, thin (min thickness 0.1, where
        GMRES misses and the solve takes the LU path) or at the 32x16
        strength-3 solution."""
        if state == "strength-3":
            system, wave = strength_3
            grid, m, eta = system.grid, system.m_vertical, wave.elevation
            trace = wave.trace_lower if side == "lower" else wave.trace_upper
        else:
            grid, m = GRID, 32
            crest = {"flat": 0.0, "crest": 0.33, "thin": -0.9}[state]
            # thin means a crest towards the strip's own wall
            eta = peaked(-crest if side == "upper" and state == "thin"
                         else crest)
            trace = EvenField(0.5 ** np.arange(NX))
        ops = strip(grid, on_side(EvenField(scale * eta.coeffs), side), m)
        return ops, EvenField(scale * trace.coeffs)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "thin", "strength-3"])
    def test_agrees_with_the_cold_solve_and_lu(self, state, side, strength_3,
                                               monkeypatch):
        near, near_trace = self.strip_and_trace(state, side, strength_3,
                                                1.0 + self.NEARBY)
        guess = near.solve(near_trace)
        ops, trace = self.strip_and_trace(state, side, strength_3)
        vectors = []
        real_gmres = layers.gmres

        def counting(apply, precondition, rhs, max_vectors, tol, *args):
            calls = []

            def counted(v):
                calls.append(v)
                return apply(v)

            solved = real_gmres(counted, precondition, rhs, max_vectors, tol,
                                *args)
            vectors.append(len(calls))
            return solved

        monkeypatch.setattr(layers, "gmres", counting)
        cold = ops.solve(trace)
        warm = ops.solve(trace, guess)
        assert ops.factored == (state == "thin")
        if state == "thin":  # both took the LU path: one miss, no warm GMRES
            assert len(vectors) == 1
            assert np.array_equal(warm, cold)
        else:  # the warm start needs fewer vectors
            assert vectors[1] < vectors[0]
        rhs = np.zeros(cold.size)
        rhs[::ops.m_vertical + 1] = ops.grid.even_values_half(trace)
        referee = ops._solve_rhs(rhs).reshape(cold.shape)
        assert worst_relative(warm, referee) <= 1e-12
        assert worst_relative(warm, cold) <= 1e-12

    @pytest.mark.parametrize("factor", [-1.0, 2.0, np.nan])
    def test_a_guess_no_better_than_zero_is_ignored(self, factor):
        # the residual of -u and of 2u is at least the right-hand side's,
        # and a non-finite guess has none
        ops = strip(GRID, peaked(0.33), 32)
        trace = EvenField(0.5 ** np.arange(NX))
        cold = ops.solve(trace)
        assert np.array_equal(ops.solve(trace, factor * cold), cold)

    def test_a_zero_trace_ignores_its_guess(self):
        ops = strip(GRID, peaked(0.33), 32)
        guess = ops.solve(EvenField(0.5 ** np.arange(NX)))
        assert np.all(ops.solve(FLAT, guess) == 0.0)


def as_block(v):
    """Nodal columns (nx mt, k) of the 33 x 17 grid as an (nx, k, mt) block."""
    return np.ascontiguousarray(v.reshape(33, 17, -1).transpose(0, 2, 1))


def as_columns(block):
    """An (nx, k, mt) block of the 33 x 17 grid as nodal columns (nx mt, k)."""
    return block.transpose(0, 2, 1).reshape(33 * 17, -1)


class TestTransposes:
    """Referees of the matrix-free transposes behind the adjoint block."""

    GRID32 = CollocationGrid(np.pi, 32)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("crest", [0.33, -0.9])  # crest, thin
    def test_applies_match_the_assembled_operator(self, crest, side):
        if side == "upper":
            crest = -crest  # thin means a crest towards the upper wall
        ops = strip(self.GRID32, on_side(peaked(crest, n=33), side), 16)
        mat = assembled_operator(ops)
        v = np.random.default_rng(8).standard_normal((33 * 17, 4))
        assert worst_relative(as_columns(ops._apply(as_block(v))),
                              mat @ v) <= 1e-13
        # a trace solve applies the operator to one vector (n,)
        got = ops._apply(v[:, 0])
        assert got.shape == (33 * 17,)
        assert worst_relative(got, mat @ v[:, 0]) <= 1e-13
        assert worst_relative(as_columns(ops._apply_transpose(as_block(v))),
                              mat.T @ v) <= 1e-13

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("crest", [0.0, 0.33, -0.9])  # flat, crest, thin
    def test_transposed_preconditioner_matches_the_dense_block_inverse(
            self, crest, side):
        if side == "upper":
            crest = -crest  # thin means a crest towards the upper wall
        ops = strip(self.GRID32, on_side(peaked(crest, n=33), side), 16)
        dense = flat_solve_dense(ops, np.eye(33 * 17))
        v = np.random.default_rng(9).standard_normal((33 * 17, 3))
        got = as_columns(ops._flat_solve_transpose(as_block(v)))
        assert worst_relative(got, dense.T @ v) <= 1e-12

    @pytest.mark.parametrize("a_order", ["C", "F"])
    @pytest.mark.parametrize("b_order", ["C", "F"])
    def test_blas_product_matches_matmul(self, a_order, b_order):
        rng = np.random.default_rng(10)
        a = np.asarray(rng.standard_normal((7, 5)), order=a_order)
        b = np.asarray(rng.standard_normal((5, 6)), order=b_order)
        got = _blas_product(a, b)
        assert got.flags.c_contiguous
        assert worst_relative(got, a @ b) <= 1e-15

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_blas_product_writes_into_out(self, accumulate):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 5))
        b = np.asarray(rng.standard_normal((5, 6)), order="F")
        out = rng.standard_normal((7, 6))
        want = a @ b + (out if accumulate else 0.0)
        assert _blas_product(a, b, out=out, accumulate=accumulate) is out
        assert worst_relative(out, want) <= 1e-15

    def test_block_applies_run_on_kept_buffers(self):
        # a Krylov vector of the adjoint block allocates no block: after one
        # warm-up, the transposed preconditioner and apply of a 34-column
        # block trace less than half a block of memory
        ops = strip(self.GRID32, peaked(0.33, n=33), 16)
        v = np.random.default_rng(13).standard_normal((33, 34, 17))
        want = ops._apply_transpose(ops._flat_solve_transpose(v)).copy()
        tracemalloc.start()
        try:
            got = ops._apply_transpose(ops._flat_solve_transpose(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * v.nbytes
        assert np.array_equal(got, want)

    def test_block_solve_keeps_its_basis(self, monkeypatch):
        # the Krylov basis, the finished sum and the Gram-Schmidt scratch of
        # a block GMRES are kept views of the operator's work buffers: after
        # one warm-up, a 34-column block (the lower layer's adjoint block)
        # allocates less than half a block per Krylov vector of any panel
        ops = strip(self.GRID32, peaked(0.33, n=33), 16)
        rhs = np.zeros((33, 34, 17))
        rhs[np.arange(33), np.arange(33)] = ops._d_tau[0]
        row_x, t_rows, h = ops._point_rows((0.0, -0.5))
        rhs[:, 33] = np.outer(row_x, (2.0 / h) * t_rows[1])
        panels = []  # per GMRES call, the widths of its preconditioner calls
        real_gmres = layers.gmres
        precondition = ops._flat_solve_transpose

        def calling(*args):
            panels.append([])
            return real_gmres(*args)

        def counting(v):
            panels[-1].append(v.shape[1])
            return precondition(v)

        monkeypatch.setattr(layers, "gmres", calling)
        ops._flat_solve_transpose = counting
        want = ops._solve(rhs, transposed=True)
        panels.clear()
        tracemalloc.start()
        try:
            got = ops._solve(rhs, transposed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(panels) == -(-34 // layers.BLOCK_COLUMNS) > 1
        assert not ops.factored
        # columns finish at different vectors, in every panel
        assert len(set(sum(panels, []))) > 2
        for widths in panels:
            assert len(set(widths)) > 1
            built = len(widths) - 1  # one more call preconditions the solution
            assert built > 10
            assert peak < 0.5 * rhs.nbytes * built
        assert np.array_equal(got, want)


class TestCurvedGeometry:
    def test_spectral_convergence_of_dno(self):
        # eta = 0.1 cos(pi x / L): doubling both resolutions moves nothing
        tr_k = 2
        outs = {}
        for n, m in [(48, 24), (96, 48)]:
            grid = CollocationGrid(np.pi, n)
            c = np.zeros(n + 1)
            c[1] = 0.1
            g = dno(grid, EvenField(c), mode(tr_k, 1.0, n + 1), m)
            outs[n] = g[:30]
        assert np.max(np.abs(outs[48] - outs[96])) < 1e-8

    def test_harmonic_at_interior_points(self):
        ops = strip(GRID, wavy(), 32)
        sol = ops.solve(mode(2, 0.5))
        h = 1e-4
        for p in [(0.3, -0.5), (-1.0, -0.4), (2.0, -0.75)]:
            x, y = p
            lap = (
                ops.eval_interior(sol, (x + h, y))
                + ops.eval_interior(sol, (x - h, y))
                + ops.eval_interior(sol, (x, y + h))
                + ops.eval_interior(sol, (x, y - h))
                - 4.0 * ops.eval_interior(sol, p)
            ) / h**2
            assert abs(lap) < 1e-5

    def test_interior_derivatives_match_bivariate_fd(self):
        ops = strip(GRID, on_side(wavy(), "upper"), 32)
        sol = ops.solve(mode(3, 0.7))
        p = (0.6, -0.45)
        h = 1e-5
        fd_y = (ops.eval_interior(sol, (p[0], p[1] + h))
                - ops.eval_interior(sol, (p[0], p[1] - h))) / (2 * h)
        assert ops.eval_interior_dy(sol, p) == pytest.approx(fd_y, abs=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(
        a1=st.floats(-0.08, 0.08),
        a2=st.floats(-0.05, 0.05),
        k=st.integers(0, 6),
    )
    def test_trace_always_reproduced(self, a1, a2, k):
        grid = CollocationGrid(np.pi, 16)
        c = np.zeros(17)
        c[1], c[2] = a1, a2
        sol = strip(grid, EvenField(c), 12).solve(
            mode(k, 1.0, 17))
        want = grid.even_values_half(mode(k, 1.0, 17))
        assert np.max(np.abs(sol[:, 0] - want)) < 1e-10


class TestInteriorFunctionals:
    def test_flat_interior_dy_oracle(self):
        k, kap, y0 = 4, 4.0, -0.5
        ops = strip(GRID, FLAT, 32)
        sol = ops.solve(mode(k))
        exact = kap * np.cosh(kap * (y0 + DEPTH)) / np.sinh(kap * DEPTH)
        assert ops.eval_interior_dy(sol, (0.0, y0)) == pytest.approx(exact, rel=1e-10)

    def test_constant_trace_dy_is_inverse_depth(self):
        ops = strip(GRID, FLAT, 32)
        sol = ops.solve(mode(0))
        assert ops.eval_interior_dy(sol, (0.9, -0.3)) == pytest.approx(
            1.0 / DEPTH, rel=1e-10
        )

    def test_row_functional_matches_direct_eval(self):
        p = (0.0, -0.5)
        ops = strip(GRID, wavy(), 32, p)
        row = ops.interior_dy_row()
        for k in (0, 3, 11):
            sol = ops.solve(mode(k, 0.9))
            direct = ops.eval_interior_dy(sol, p)
            assert row[k] * 0.9 == pytest.approx(direct, abs=1e-12)

    def test_row_matches_flat_symbol_when_resolved(self):
        # vertical truncation of high-mode boundary layers dies out by M = 48
        ops = strip(GRID, FLAT, 48, (0.0, -0.5))
        row = ops.interior_dy_row()
        sym = flat_interior_dy_symbol(GRID, DEPTH, -0.5)
        assert np.max(np.abs(row - sym)) < 1e-9

    def test_flat_symbol_rejects_outside_point(self):
        with pytest.raises(PointOutsideLayer):
            flat_interior_dy_symbol(GRID, DEPTH, 0.2)


class TestShapeDerivatives:
    def test_zero_direction_zero_output(self):
        fld, val = shape_derivative(
            GRID, wavy(), mode(2), mode(3, 0.0), DEPTH, 24,
            point=(0.0, -0.5),
        )
        assert np.max(np.abs(fld.coeffs)) == 0.0
        assert val == 0.0

    def test_linearity_in_direction(self):
        f1, v1 = shape_derivative(
            GRID, wavy(), mode(2), mode(1, 1.0), DEPTH, 24,
            point=(0.0, -0.5),
        )
        f2, v2 = shape_derivative(
            GRID, wavy(), mode(2), mode(1, 2.0), DEPTH, 24,
            point=(0.0, -0.5),
        )
        assert np.max(np.abs(f2.coeffs - 2 * f1.coeffs)) < 1e-6 * np.max(
            np.abs(f1.coeffs)
        )
        assert v2 == pytest.approx(2 * v1, rel=1e-6)

    def test_batch_is_small_step_limit_of_literal(self):
        # literal FD converges O(step^2) onto the operator-differentiated value
        grid = CollocationGrid(np.pi, 32)
        eta = wavy(33)
        trace = mode(4, 1.0, 33)
        p = (0.0, -0.5)
        ops = strip(grid, eta, 24, p)
        sol = ops.solve(trace)
        dno_dirs, int_dirs = ops.shape_batch(sol)
        k = 7
        ref = grid._cos_inv @ dno_dirs[:, k]
        errs, int_errs = [], []
        for step in (2e-3, 1e-3):
            fld, val = shape_derivative(
                grid, eta, trace, mode(k, 1.0, 33), DEPTH, 24,
                point=p, step=step,
            )
            errs.append(np.max(np.abs(fld.coeffs - ref)))
            int_errs.append(abs(val - int_dirs[k]))
        assert 3.0 < errs[0] / errs[1] < 5.0  # Richardson ratio for halving
        assert 3.0 < int_errs[0] / int_errs[1] < 5.0
        fld, val = shape_derivative(
            grid, eta, trace, mode(k, 1.0, 33), DEPTH, 24,
            point=p, step=1e-4,
        )
        assert np.max(np.abs(fld.coeffs - ref)) < 1e-5
        assert val == pytest.approx(int_dirs[k], abs=1e-6)

    def test_batch_upper_layer_against_literal(self):
        grid = CollocationGrid(np.pi, 24)
        c = np.zeros(25)
        c[2] = -0.05
        eta = on_side(EvenField(c), "upper")
        trace = mode(3, 1.0, 25)
        ops = strip(grid, eta, 20)
        dno_dirs, _ = ops.shape_batch(ops.solve(trace))
        for k in (0, 2, 5):
            fld, _ = shape_derivative(
                grid, eta, trace, mode(k, 1.0, 25), DEPTH, 20, step=1e-4,
            )
            got = grid._cos_inv @ dno_dirs[:, k]
            assert np.max(np.abs(got - fld.coeffs)) < 1e-5

    def test_flat_zero_trace_has_zero_shape_derivative(self):
        # the solve map is linear in the trace, so at trace = 0 it is flat
        ops = strip(GRID, FLAT, 24, (0.0, -0.5))
        sol = ops.solve(mode(0, 0.0))
        dno_dirs, int_dirs = ops.shape_batch(sol)
        assert np.max(np.abs(dno_dirs)) == 0.0
        assert np.max(np.abs(int_dirs)) == 0.0


class TestGuards:
    def test_degenerate_strip_raises(self):
        c = np.zeros(NX)
        c[0] = -0.99 * DEPTH
        with pytest.raises(DegenerateStrip):
            strip(GRID, EvenField(c), 8)

    def test_gap_floor_is_two_percent_of_depth(self):
        c = np.zeros(NX)
        c[0] = -0.985 * DEPTH
        with pytest.raises(DegenerateStrip):
            strip(GRID, EvenField(c), 8)
        c[0] = -0.97 * DEPTH
        strip(GRID, EvenField(c), 8)

    def test_point_outside_layer_raises(self):
        ops = strip(GRID, FLAT, 16)
        sol = ops.solve(mode(1))
        for bad in [(0.0, 0.5), (0.0, -1.5), (0.0, 0.0), (0.0, -1.0)]:
            with pytest.raises(PointOutsideLayer):
                ops.eval_interior(sol, bad)
            with pytest.raises(PointOutsideLayer):  # as the probe
                strip(GRID, FLAT, 16, bad).eval_interior_dy(sol)

    def test_rejects_coarse_vertical(self):
        with pytest.raises(ValueError):
            strip(GRID, FLAT, 4)

    def test_interface_below_the_wall_is_degenerate(self):
        # one half-grid node 0.5 below the wall, none near it: the thickness
        # is negative there, though its magnitude clears the floor
        grid = CollocationGrid(np.pi, 16)
        values = np.zeros(17)
        values[8] = -1.5 * DEPTH
        with pytest.raises(DegenerateStrip):
            strip(grid, EvenField(grid._cos_inv @ values), 8)
