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
    adjoint_columns,
    assembled_operator,
    eval_interior,
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


def panelled(ops, rhs):
    """A^-T rhs for an (nx, k, mt) block rhs, by GMRES from zero on
    A^T M^-T v = v + delta^T M^-T v, v plus the second output of the
    transposed Richardson step on v: one `gmres` per panel of columns, then
    M^-T of its result, into a fresh block."""
    def preconditioned(v):
        out = ops._richardson_step(v, transposed=True)[1]
        out += v
        return out

    out = np.zeros(rhs.shape)
    for panel in layers._panels(rhs.shape[1]):
        solved = layers.gmres(preconditioned, rhs[:, panel],
                              KRYLOV_MAX, KRYLOV_TOL, KRYLOV_FLOOR, ops._work)
        out[:, panel] = ops._flat_solve(solved, transposed=True)
    return out


def from_zero(ops, rhs):
    """A^-T rhs for an (nx, k, mt) block rhs from the zero start by
    `_stationary`, one call per panel of columns, into a fresh block."""
    out = np.zeros(rhs.shape)
    for panel in layers._panels(rhs.shape[1]):
        solved = np.zeros(rhs[:, panel].shape)
        ops._stationary(solved, -rhs[:, panel],
                        layers._column_norms(rhs[:, panel]), transposed=True)
        out[:, panel] = solved
    return out


def counting_work(monkeypatch):
    """The work of each `_stationary` call, in call order: its Richardson
    steps, applied or not, plus the Krylov vectors of its GMRES, one call
    each of the apply that `_stationary` hands to `gmres`.  That apply
    takes a Richardson step of its own, which counts as the vector only."""
    work = []
    in_gmres = []  # nonempty while an apply runs
    real_stationary = LayerOperators._stationary
    real_step = LayerOperators._richardson_step
    real_gmres = layers.gmres

    def stationary(ops, *args, **kwargs):
        work.append(0)
        return real_stationary(ops, *args, **kwargs)

    def step(ops, *args, **kwargs):
        work[-1] += not in_gmres
        return real_step(ops, *args, **kwargs)

    def gmres(apply, rhs, *args):
        def counted(v):
            work[-1] += 1
            in_gmres.append(v)
            try:
                return apply(v)
            finally:
                in_gmres.pop()

        return real_gmres(counted, rhs, *args)

    monkeypatch.setattr(LayerOperators, "_stationary", stationary)
    monkeypatch.setattr(LayerOperators, "_richardson_step", step)
    monkeypatch.setattr(layers, "gmres", gmres)
    return work


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
            assert eval_interior(ops, sol, (x, y)) == pytest.approx(
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
            assert eval_interior(ops, sol, (x, y)) == pytest.approx(exact, abs=1e-10)

    def test_upper_layer_mirrors_lower(self):
        k, kap = 2, 2.0
        system = WaveSystem(PhysicalParameters(depth=DEPTH), GRID.n_modes, 32)
        prep = system.prepare(WaveState(FLAT, mode(k), FLAT, 0.0))
        ops = prep.upper.ops
        for x, y in [(0.4, 0.35), (0.0, 0.7)]:
            exact = np.cos(kap * x) * np.sinh(kap * (DEPTH - y)) / np.sinh(kap)
            got = eval_interior(ops, prep.upper.values, (x, -y))
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
            ops = strip(GRID, on_side(FLAT, side), 32)
            mat = ops.dno_matrix(ops.adjoint_block())
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
        mat = ops.dno_matrix(ops.adjoint_block())
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
            ops = strip(grid, on_side(flat, side), m_vertical)
            mat = ops.dno_matrix(ops.adjoint_block())
            off = mat - np.diag(np.diag(mat))
            assert np.max(np.abs(off)) < 1e-11

    def test_dno_field_equals_matrix_action(self):
        ops = strip(GRID, wavy(), 24)
        tr = mode(4, 0.6)
        sol = ops.solve(tr)
        via_values = GRID._cos_inv @ ops.dno_values_half(sol)
        via_matrix = ops.dno_matrix(ops.adjoint_block()) @ tr.coeffs
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
        krylov = gmres(lambda v: ops._apply(ops._flat_solve(v)), rhs,
                       KRYLOV_MAX, KRYLOV_TOL, KRYLOV_FLOOR, ops._work)
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

        def apply(v):  # right-preconditioned by the flat strip
            applied.append(v)
            return ops._apply(ops._flat_solve(v))

        out = gmres(apply, rhs, 2 * KRYLOV_MAX, KRYLOV_TOL, KRYLOV_FLOOR,
                    ops._work)
        if vectors is None:
            assert out is None
        else:  # one apply per vector
            assert len(applied) == vectors


def worst_relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(scope="module")
def strength_3():
    """(system, state) of the fixed-strength solve at strength 3, 32x16."""
    system = WaveSystem(PhysicalParameters(), 32, 16)
    engine = ContinuationEngine(system, ContinuationSettings())
    return system, engine.solve_at(3.0).points[0].state


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
        z = ops.adjoint_block()
        shape_dno, shape_dy = ops.shape_batch(sol, z)
        got = (ops.dno_matrix(z), shape_dno, shape_dy, ops.interior_dy_row(z))
        assert not ops.factored  # GMRES solved the block
        want = forward_lu_products(ops, sol)
        for g, w in zip(got, want):
            assert worst_relative(g, w) <= 1e-12

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "strength-3"])
    def test_started_block_matches_the_lu_block(self, state, side,
                                                 strength_3):
        # GMRES starts from the flat block, which is the block itself on a
        # flat strip: there it builds no vector
        ops, _ = self.layer(state, side, strength_3)
        got = ops.adjoint_block()
        assert not ops.factored
        want = ops._solve_rhs(adjoint_columns(ops), transposed=True)
        assert worst_relative(got, want) <= 1e-12
        if state == "flat":
            assert np.array_equal(got, ops.flat_adjoint_block())

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "strength-3"])
    def test_start_residual_in_closed_form(self, state, side, strength_3):
        # M^T Z0 = [E^T | e] for the flat block Z0, so its residual is
        # -delta^T Z0, and the columns of [E^T | e] have closed-form norms;
        # a transposed Richardson step on [E^T | e] takes M^-T of it, Z0,
        # and delta^T of that
        ops, _ = self.layer(state, side, strength_3)
        start = ops.flat_adjoint_block()
        rhs = adjoint_columns(ops)
        size = layers._column_norms(rhs)
        assert np.max(np.abs(ops._adjoint_column_norms - size)
                      / size) <= 1e-12
        flat, delta_flat = ops._richardson_step(rhs, transposed=True)
        assert worst_relative(flat, start) <= 1e-12
        got = -delta_flat
        want = rhs - ops._apply(flat, transposed=True)
        assert np.max(layers._column_norms(got - want) / size) <= 1e-12

    def test_flat_block_runs_no_gmres_and_no_flat_solve(self, monkeypatch):
        # on a flat strip delta = 0: the start is the block
        ops, _ = self.layer("flat", "lower", None)

        def unexpected(*args, **kwargs):
            raise AssertionError("a solve ran on the flat strip")

        monkeypatch.setattr(layers, "gmres", unexpected)
        ops._flat_solve = unexpected
        block = ops.adjoint_block()
        assert not ops.factored
        assert np.array_equal(block, ops.flat_adjoint_block())

    def test_started_block_saves_a_vector_per_column(self, monkeypatch):
        # the last state of the 12-step default 64x32 branch, sup eta
        # 1.2e-3: each panel of both blocks takes at most 4 steps and
        # Krylov vectors from the flat block (GMRES alone built 3), and
        # exactly one step more from zero, whose first step lands on the
        # flat block
        system = WaveSystem(PhysicalParameters(), 64, 32)
        wave = ContinuationEngine(system, ContinuationSettings()).solve_at(
            0.0366).points[0].state
        sup = np.max(np.abs(system.grid.even_values_half(wave.elevation)))
        assert 1.1e-3 < sup < 1.3e-3
        prep = system.prepare(wave)
        work = counting_work(monkeypatch)
        for layer in prep.layers:
            layer.ops.adjoint_block()
        started = list(work)
        work.clear()
        for layer in prep.layers:
            from_zero(layer.ops, adjoint_columns(layer.ops))
        assert len(started) == 6 and max(started) <= 4
        assert work == [count + 1 for count in started]

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "thin", "strength-3"])
    def test_shape_batch_matches_the_explicit_rhs(self, state, side,
                                                  strength_3):
        # the contraction through the factors of R against -Z^T R with R
        # formed, on the same adjoint block
        ops, sol = self.layer(state, side, strength_3)
        z = ops.adjoint_block()
        got = ops.shape_batch(sol, z)
        assert ops.factored == (state == "thin")  # the LU step, or GMRES
        for g, w in zip(got, explicit_shape_batch(ops, sol, z)):
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
            blocks.append(ops.adjoint_block())
            assert ops.factored == (state == "thin")  # the LU step, or GMRES
        assert worst_relative(blocks[0], blocks[1]) <= 1e-13

    def test_thin_layer_falls_back_to_lu(self):
        # min thickness 0.1, probed halfway down the thinnest column
        ops = strip(GRID, peaked(-0.9), 32, (0.0, -0.95))
        assert not ops.factored
        z = ops.adjoint_block()
        assert ops.factored  # GMRES missed, so the LU step finished the block
        sol = ops.solve(EvenField(0.5 ** np.arange(NX)))
        shape_dno, shape_dy = ops.shape_batch(sol, z)
        got = (ops.dno_matrix(z), shape_dno, shape_dy, ops.interior_dy_row(z))
        want = forward_lu_products(ops, sol)
        for g, w in zip(got, want):
            assert worst_relative(g, w) <= 1e-12

    def test_a_missed_panel_keeps_the_panels_before_it(self, lu_counter,
                                                       monkeypatch):
        # 48x12, min thickness 0.35: of the panels of 16, 17 and 17
        # columns, GMRES solves the first and misses on the second, which
        # the LU step finishes from where GMRES started; the third starts
        # from its flat block and takes the LU step alone.  So the operator
        # factors once, the transposed LU solves cover the 34 columns from
        # the missed panel on, each once, and Z - Z0 is kept for every panel
        grid = CollocationGrid(np.pi, 48)
        ops = strip(grid, peaked(-0.65, n=49), 12, (0.0, -0.95))
        kept = np.zeros((49, 50, 13), np.float32)
        missed = []
        real_gmres = layers.gmres

        def gmres(*args):
            solved = real_gmres(*args)
            missed.append(solved is None)
            return solved

        monkeypatch.setattr(layers, "gmres", gmres)
        got = ops.adjoint_block(kept)
        assert missed == [False, True]
        assert lu_counter.factorizations == 1
        assert [p.stop - p.start for p in layers._panels(50)] == [16, 17, 17]
        assert sum(lu_counter.transposed_columns) == 34
        own = got - ops.flat_adjoint_block()
        assert np.linalg.norm(kept - own) <= 1e-7 * np.linalg.norm(own)
        want = ops._solve_rhs(adjoint_columns(ops), transposed=True)
        assert worst_relative(got, want) <= 1e-12

    @pytest.mark.parametrize("order", [
        ("dno_matrix", "interior_dy_row", "shape_batch"),
        ("shape_batch", "dno_matrix", "interior_dy_row"),
    ])
    def test_one_block_solve_whatever_the_call_order(self, order, lu_counter,
                                                     monkeypatch):
        # the Dirichlet-to-Neumann matrix, the drift row and the shape
        # derivatives of a probed 32x16 lower layer read one transposed
        # block of N + 1 interface columns and the probe column, solved
        # once before them: one `_stationary` solve for each of its two
        # panels of 17 columns, each started from the flat block, so that
        # every residual is smaller than its right-hand side; the products
        # solve nothing, in either order
        grid = CollocationGrid(np.pi, 32)
        ops = strip(grid, peaked(0.33, n=33), 16, (0.0, -0.5))
        sol = ops.solve(EvenField(0.5 ** np.arange(33)))
        sizes = np.linalg.norm(adjoint_columns(ops), axis=(0, 2))
        panels = []
        real_stationary = ops._stationary

        def counting(iterate, defect, size, transposed=False):
            panels.append((defect.shape, transposed,
                           layers._column_norms(defect)))
            return real_stationary(iterate, defect, size, transposed)

        monkeypatch.setattr(ops, "_stationary", counting)
        z = ops.adjoint_block()
        calls = {"dno_matrix": lambda: ops.dno_matrix(z),
                 "interior_dy_row": lambda: ops.interior_dy_row(z),
                 "shape_batch": lambda: ops.shape_batch(sol, z)}
        for name in order:
            calls[name]()
        assert [panel[:2] for panel in panels] == [((33, 17, 17), True)] * 2
        left = np.concatenate([panel[2] for panel in panels])
        assert np.all(left < sizes)
        assert lu_counter.factorizations == 0

    @staticmethod
    def transposed_solve(ops, rhs, tol=KRYLOV_TOL):
        """A^-T rhs by GMRES on A^T M^-T, a vector or a block, as a fresh
        array."""
        solved = gmres(
            lambda v: ops._apply(ops._flat_solve(v, transposed=True),
                                 transposed=True),
            rhs, KRYLOV_MAX, tol, KRYLOV_FLOOR, ops._work)
        return ops._flat_solve(solved, transposed=True).copy()

    def test_block_columns_match_single_solves(self):
        # every column joins every Arnoldi step until the last one stops;
        # a zero column and one whose tol admits the estimate 1 take no
        # rotation and raise no floating-point exception
        ops = strip(GRID, peaked(0.33), 32)
        ops.adjoint_block()  # leaves another solve's values in the buffers
        d_tau0 = ops._d_tau[0]
        rhs = np.zeros((NX, 4, 33))  # (x node, column, tau node)
        rhs[3, 0] = d_tau0
        rhs[40, 2] = d_tau0  # column 1 stays zero
        rhs[20, 3] = d_tau0  # column 3 counts as converged: its tol is 1
        tol = np.array([KRYLOV_TOL] * 3 + [1.0])
        with np.errstate(all="raise"):
            block = self.transposed_solve(ops, rhs, tol)
        assert np.all(block[:, 1] == 0.0)
        assert np.all(block[:, 3] == 0.0)
        for c in (0, 2):
            single = self.transposed_solve(ops, rhs[:, c].ravel())
            assert worst_relative(block[:, c].ravel(), single) <= 1e-12

    def test_one_column_block_runs_as_the_vector(self):
        ops = strip(GRID, peaked(0.33), 32)
        vector = np.random.default_rng(11).standard_normal(NX * 33)
        solves = [self.transposed_solve(ops, rhs)
                  for rhs in (vector, vector.reshape(NX, 1, 33))]
        assert solves[1].shape == (NX, 1, 33)
        assert np.array_equal(solves[0], solves[1].ravel())


class TestGmres:
    @pytest.mark.parametrize("shape", [(40,), (8, 3, 5)],
                             ids=["vector", "block"])
    def test_a_non_finite_estimate_misses(self, shape):
        # a diagonal apply with distinct entries needs more than one
        # vector, and its second call returns nan: every running column's
        # estimate turns non-finite, and the solve misses
        rng = np.random.default_rng(2)
        weights = 1.0 + rng.random(shape)
        calls = []

        def apply(v):
            calls.append(1)
            return weights * v if len(calls) == 1 else np.full(shape, np.nan)

        assert gmres(apply, rng.standard_normal(shape), KRYLOV_MAX,
                     KRYLOV_TOL, KRYLOV_FLOOR, layers.WorkBuffers()) is None
        assert len(calls) == 2


@pytest.fixture(scope="module")
def consecutive_points():
    """(system, last point, point): the second and third points of the
    default 64x32 branch, the first two whose elevations are not flat."""
    system = WaveSystem(PhysicalParameters(), 64, 32)
    points = ContinuationEngine(system, ContinuationSettings(
        max_steps=2)).continue_branch().points
    return system, points[1], points[2]


class TestPredictedStart:
    """An adjoint block started from the last point's Z - Z0, scaled by the
    elevation (`LayerOperators.adjoint_block`), against the same block
    started from its flat block."""

    @staticmethod
    def predicted(points):
        """(upper, lower) Z - Z0 of the last point's blocks, times
        lambda = <eta, eta_last> / <eta_last, eta_last>."""
        system, last, point = points
        system.jacobian_prepared(system.prepare(last.state), last.strength)
        eta, eta_last = point.state.elevation.coeffs, last.state.elevation.coeffs
        scale = float(eta @ eta_last) / float(eta_last @ eta_last)
        return [deviation * scale for deviation in system._deviations]

    @staticmethod
    def solved(points, side, start=None):
        """(block, steps and Krylov vectors its panels took, operator) of
        one layer at the point, started from Z0 plus `start` when one is
        given."""
        system, _, point = points
        ops = system.prepare(point.state).layers[side].ops
        with pytest.MonkeyPatch.context() as patch:
            work = counting_work(patch)
            return ops.adjoint_block(start), sum(work), ops

    @pytest.mark.parametrize("side", [0, 1], ids=["upper", "lower"])
    def test_matches_the_flat_start(self, consecutive_points, side):
        start = self.predicted(consecutive_points)[side]
        assert start.dtype == np.float32
        got, work, ops = self.solved(consecutive_points, side, start)
        want, flat_work, _ = self.solved(consecutive_points, side)
        assert not ops.factored
        assert (np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want))
        assert work < flat_work
        # the start array now holds this block's own Z - Z0
        own = got - ops.flat_adjoint_block()
        assert (np.linalg.norm(start - own)
                <= 1e-7 * np.linalg.norm(own))

    @pytest.mark.parametrize("wrong", ["tenfold", "random"])
    @pytest.mark.parametrize("side", [0, 1], ids=["upper", "lower"])
    def test_a_wrong_start_costs_vectors_only(self, consecutive_points,
                                               side, wrong):
        right = self.predicted(consecutive_points)[side]
        if wrong == "tenfold":
            start = 10.0 * right
        else:
            start = np.random.default_rng(3).standard_normal(
                right.shape).astype(np.float32)
            start *= np.linalg.norm(right) / np.linalg.norm(start)
        got, work, ops = self.solved(consecutive_points, side, start)
        want, _, _ = self.solved(consecutive_points, side)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        _, right_work, _ = self.solved(consecutive_points, side, right)
        assert work > right_work

    @pytest.mark.parametrize("start", ["none", "zero"])
    def test_lu_step_keeps_the_deviation(self, start):
        # the state of test_thin_layer_falls_back_to_lu, where GMRES misses
        # on the first panel: the LU step finishes that panel and solves
        # the later ones from their flat blocks, and each writes its
        # Z - Z0 into the start array; a block given none keeps nothing
        # and is the same block
        kept = np.zeros((NX, NX + 1, 33), np.float32)
        blocks = []
        for given in (None, kept) if start == "none" else (kept,):
            ops = strip(GRID, peaked(-0.9), 32, (0.0, -0.95))
            blocks.append(ops.adjoint_block(given))
            assert ops.factored
        assert np.array_equal(blocks[0], blocks[-1])
        own = blocks[-1] - ops.flat_adjoint_block()
        assert np.linalg.norm(kept - own) <= 1e-7 * np.linalg.norm(own)

    def test_a_block_that_solves_directly_starts_from_its_prediction(self):
        # below KRYLOV_MIN_UNKNOWNS every panel takes the LU step alone, from
        # Z0 plus the prediction like any other block, and writes its own
        # Z - Z0 over the prediction; so a system there keeps both sides'
        grid = CollocationGrid(np.pi, 16)
        ops = strip(grid, peaked(0.33, n=17), 8, (0.0, -0.5))
        assert 17 * 9 < KRYLOV_MIN_UNKNOWNS
        want = ops._solve_rhs(adjoint_columns(ops), transposed=True)
        start = (0.5 * (want - ops.flat_adjoint_block())).astype(np.float32)
        assert np.abs(start).max() > 0.0
        got = ops.adjoint_block(start)
        assert ops.factored
        assert worst_relative(got, want) <= 1e-12
        own = got - ops.flat_adjoint_block()
        assert np.linalg.norm(start - own) <= 1e-7 * np.linalg.norm(own)

        system = WaveSystem(PhysicalParameters(), 16, 8)
        flat = EvenField(np.zeros(17))
        state = WaveState(peaked(0.1, n=17), flat, flat, 0.0)
        for _ in range(2):
            system.jacobian_prepared(system.prepare(state), 0.5)
        assert all(isinstance(kept, np.ndarray)
                   for kept in system._deviations)


@pytest.fixture(scope="module")
def strength_3_64x32():
    """(system, state) of the fixed-strength solve at strength 3, 64x32."""
    system = WaveSystem(PhysicalParameters(), 64, 32)
    engine = ContinuationEngine(system, ContinuationSettings())
    return system, engine.solve_at(3.0).points[0].state


class TestFlatProducts:
    """The flat chord's layer products, taken in closed form, against the
    same products read from an explicit `flat_adjoint_block`."""

    @staticmethod
    def products(ops, values, z):
        shape_dno, shape_dy = ops.shape_batch(values, z)
        return (ops.dno_matrix(z), shape_dno, shape_dy, ops.interior_dy_row(z))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["crest", "strength-3"])
    def test_closed_forms_match_the_explicit_block(self, state, side,
                                                   strength_3_64x32,
                                                   monkeypatch):
        # both strips probed at the vortex, or the phantom in the
        # reflected upper strip, so the probe column is covered on either
        if state == "strength-3":
            system, wave = strength_3_64x32
            prep = system.prepare(wave)
            layer = prep.lower if side == "lower" else prep.upper
            ops = strip(system.grid, layer.ops.eta, system.m_vertical,
                        TestAdjointBlock.POINT)
            values = layer.values
        else:
            ops = strip(GRID, on_side(peaked(0.33), side), 32,
                        TestAdjointBlock.POINT)
            values = ops.solve(EvenField(0.5 ** np.arange(NX)))
        formed = []  # no block is formed
        with monkeypatch.context() as patch:
            for name in ("adjoint_block", "flat_adjoint_block"):
                patch.setattr(ops, name, lambda *args, name=name:
                              formed.append(name))
            closed = self.products(ops, values, None)
        assert formed == []
        # the explicit flat block in the place of Z
        explicit = self.products(ops, values, ops.flat_adjoint_block())
        for got, want in zip(closed, explicit):
            assert np.abs(got).max() > 0.0
            assert worst_relative(got, want) <= 1e-12


class TestWarmStart:
    """Trace solves started from the solution at a nearby state."""

    NEARBY = 1e-6  # relative move of the interface and the trace

    def strip_and_trace(self, state, side, strength_3, scale=1.0):
        """(operator, trace) of one strip, its interface and trace times
        `scale`: flat, under a 0.33 crest, thin (min thickness 0.1, where
        GMRES misses and the LU step finishes the solve) or at the 32x16
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
        work = counting_work(monkeypatch)
        cold = ops.solve(trace)
        warm = ops.solve(trace, guess)
        assert ops.factored == (state == "thin")
        if state == "thin":  # GMRES missed; the warm solve is the LU step
            assert len(work) == 2 and work[1] == 0
            assert np.array_equal(warm, cold)
        elif state == "flat":  # A = M: one step solves either exactly
            assert work == [1, 1]
        else:  # the warm start needs fewer steps and vectors
            assert work[1] < work[0]
        rhs = np.zeros(cold.size)
        rhs[::ops.m_vertical + 1] = ops.grid.even_values_half(trace)
        referee = ops._solve_rhs(rhs).reshape(cold.shape)
        assert worst_relative(warm, referee) <= 1e-12
        assert worst_relative(warm, cold) <= 1e-12

    @pytest.mark.parametrize("factor", [-1.0, 0.0, np.nan])
    def test_a_guess_no_better_than_zero_is_ignored(self, factor):
        # the residual of -u is twice the right-hand side's and that of
        # zero equals it, and a non-finite guess has none
        ops = strip(GRID, peaked(0.33), 32)
        trace = EvenField(0.5 ** np.arange(NX))
        cold = ops.solve(trace)
        assert np.array_equal(ops.solve(trace, factor * cold), cold)

    def test_the_guess_is_left_as_it_was(self):
        # GMRES writes its solution over its start, which is a copy
        ops = strip(GRID, peaked(0.33), 32)
        trace = EvenField(0.5 ** np.arange(NX))
        guess = strip(GRID, peaked(0.33 * (1.0 + self.NEARBY)), 32).solve(
            trace)
        kept = guess.copy()
        ops.solve(trace, guess)
        assert np.array_equal(guess, kept)

    def test_a_zero_trace_ignores_its_guess(self):
        ops = strip(GRID, peaked(0.33), 32)
        guess = ops.solve(EvenField(0.5 ** np.arange(NX)))
        assert np.all(ops.solve(FLAT, guess) == 0.0)


class TestStationary:
    """The Richardson steps x <- x - M^-1 d that start every Krylov-path
    layer solve (`LayerOperators._stationary`), GMRES taking over where
    they stall."""

    def test_one_step_solves_a_flat_strip(self, monkeypatch):
        # delta = A - M vanishes on a flat strip: the first step from zero
        # is M^-1 b, or M^-T b, and leaves no defect
        ops = strip(GRID, FLAT, 32)
        trace = EvenField(0.5 ** np.arange(NX))
        rhs = np.zeros(NX * 33)
        rhs[::33] = GRID.even_values_half(trace)
        block = np.random.default_rng(6).standard_normal((NX, 5, 33))
        work = counting_work(monkeypatch)
        got = ops.solve(trace).ravel()
        assert np.array_equal(got, ops._flat_solve(rhs))
        got = from_zero(ops, block)
        assert np.array_equal(got, ops._flat_solve(block, transposed=True))
        assert work == [1, 1]
        assert not ops.factored

    @pytest.mark.parametrize("state, applied", [
        ("thin", 0), ("deep", 1), ("trough", 2), ("crest", 4)])
    def test_a_stalled_step_is_not_applied(self, state, applied,
                                           monkeypatch):
        # from zero, on strips whose steps stall on their correction:
        # thin, min thickness 0.1, where the first step grows the defect
        # 270-fold and the second the correction, so the first is undone;
        # deep, min thickness 0.2, whose second correction fails to halve
        # the first without growing, so the first step stays, with the
        # defect it left; GMRES misses on both and hands over to LU.
        # trough, a -0.5 crest, whose third step fails to halve the
        # correction; crest, a 0.55 crest, whose fifth does; GMRES takes
        # over in both and converges
        trace = EvenField(0.5 ** np.arange(NX))
        crest = {"thin": -0.9, "deep": -0.8, "trough": -0.5,
                 "crest": 0.55}[state]
        ops = strip(GRID, peaked(crest), 32)
        nx, mt = ops.grid.n_modes + 1, ops.m_vertical + 1
        rhs = np.zeros(nx * mt)
        rhs[::mt] = ops.grid.even_values_half(trace)
        size = layers._column_norms(ops._block(rhs))
        solved = np.zeros(rhs.size)
        defect = ops._apply(solved) - rhs
        steps, handed = [], []
        real_step, real_gmres = ops._richardson_step, layers.gmres

        def step(defect, transposed=False):
            u, moved = real_step(defect, transposed)
            if not handed:  # GMRES's apply takes a step of its own
                steps.append((solved.copy(), np.linalg.norm(u),
                              np.linalg.norm(moved)))
            return u, moved

        def gmres(apply, defect, *args):
            handed.append((solved.copy(), defect.copy()))
            return real_gmres(apply, defect, *args)

        ops._richardson_step = step
        monkeypatch.setattr(layers, "gmres", gmres)
        ops._stationary(solved, defect, size)
        # GMRES missed on the two thinnest strips, and the LU step finished
        assert ops.factored == (state in ("thin", "deep"))
        # the last step's correction did not halve the one before, its
        # defect stayed above the floor, and GMRES started from the
        # iterate before it, or, where the second correction grew, from
        # the start, on that iterate's defect (A x carries roundoff of
        # about 1e-10 |b|)
        assert len(steps) == max(applied, 1) + 1 and len(handed) == 1
        before, moved, now = steps[-1]
        last = steps[-2][1]
        assert moved > layers.KRYLOV_STALL * last
        assert now > KRYLOV_FLOOR * size
        assert moved > last or applied > 0
        start, handed_defect = handed[0]
        assert np.array_equal(start, before if applied else np.zeros(
            rhs.size))
        if state == "thin":  # restored from the defect kept before step 1
            assert np.array_equal(handed_defect, defect)
        assert (np.linalg.norm(handed_defect - (ops._apply(start) - rhs))
                <= 1e-6 * np.linalg.norm(handed_defect))
        got = ops.solve(trace).ravel()
        want = ops._solve_rhs(rhs)
        for x in (solved, got):
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_steps_leave_the_true_residual_small(self, side, strength_3,
                                                 monkeypatch):
        # a warm trace solve at the 32x16 strength-3 solution, which the
        # steps finish: the defect they update, -delta u per step, does not
        # drift from b - A x.  The unpreconditioned b - A x of even the LU
        # solution is 1e-12 |b| or more, the roundoff of A x itself, whose
        # interior rows are large; M^-1 (b - A x) is free of it
        warm = TestWarmStart()
        near, near_trace = warm.strip_and_trace("strength-3", side,
                                                strength_3, 1.0 + warm.NEARBY)
        guess = near.solve(near_trace)
        ops, trace = warm.strip_and_trace("strength-3", side, strength_3)
        handed = []
        monkeypatch.setattr(layers, "gmres", lambda *args: handed.append(1))
        got = ops.solve(trace, guess).ravel()
        assert handed == [] and not ops.factored
        rhs = np.zeros(got.size)
        rhs[::ops.m_vertical + 1] = ops.grid.even_values_half(trace)
        left = ops._flat_solve(rhs - ops._apply(got))
        assert np.linalg.norm(left) <= 1e-13 * np.linalg.norm(
            ops._flat_solve(rhs))
        lu = ops._solve_rhs(rhs)
        assert (np.linalg.norm(rhs - ops._apply(got))
                <= 2.0 * np.linalg.norm(rhs - ops._apply(lu)))


class TestManufacturedSolution:
    """u = cos(kx) sinh(k(y + d)) is harmonic and zero on the wall y = -d,
    so on a strip under any interface eta the trace solve of its interface
    values has the interface derivative u_y - eta' u_x in closed form.
    Here eta = a exp(-(x/w)^2), k = 4 and M = 16: a 0.4 bump of width 0.4,
    whose solve GMRES finishes, and a -0.5 dip of width 0.3, whose GMRES
    misses, so that the LU step finishes it."""

    K, M = 4, 16

    def errors(self, amplitude, width, n):
        """(max relative error of the interface derivative, max relative
        gap to the same solve on a pre-factored operator, whether the
        solve factored) at n modes."""
        grid = CollocationGrid(np.pi, n)
        x = grid.half_nodes
        eta = amplitude * np.exp(-(x / width) ** 2)
        slope = -2.0 * x / width**2 * eta
        k, depth = self.K, DEPTH
        trace = EvenField(grid._cos_inv @ (np.cos(k * x)
                                           * np.sinh(k * (eta + depth))))
        want = k * (np.cos(k * x) * np.cosh(k * (eta + depth))
                    + slope * np.sin(k * x) * np.sinh(k * (eta + depth)))
        ops = strip(grid, EvenField(grid._cos_inv @ eta), self.M)
        assert (n + 1) * (self.M + 1) >= KRYLOV_MIN_UNKNOWNS
        got = ops.dno_values_half(ops.solve(trace))
        direct = strip(grid, ops.eta, self.M)
        direct._factors  # pre-factored: its solve is the LU step alone
        lu = direct.dno_values_half(direct.solve(trace))
        scale = np.max(np.abs(want))
        return (np.max(np.abs(got - want)) / scale,
                np.max(np.abs(got - lu)) / scale, ops.factored)

    @pytest.mark.parametrize("amplitude, width, missed", [
        (0.4, 0.4, False),  # 4.2e-5 at N = 32, 8.3e-12 at N = 64
        (-0.5, 0.3, True),  # 1.5e-4, 1.1e-9 (1.5e-13 at N = 128)
    ])
    def test_wavy_strip_converges_on_either_path(self, amplitude, width,
                                                 missed):
        coarse, fine = (self.errors(amplitude, width, n) for n in (32, 64))
        assert fine[0] <= 1e-3 * coarse[0]
        for _, gap, factored in (coarse, fine):
            assert factored == missed
            assert gap <= 1e-12


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
        assert worst_relative(
            as_columns(ops._apply(as_block(v), transposed=True)),
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
        got = as_columns(ops._flat_solve(as_block(v), transposed=True))
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
        want = ops._apply(ops._flat_solve(v, transposed=True),
                          transposed=True).copy()
        tracemalloc.start()
        try:
            got = ops._apply(ops._flat_solve(v, transposed=True),
                             transposed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * v.nbytes
        assert np.array_equal(got, want)

    def test_block_solve_keeps_its_basis(self, monkeypatch):
        # the Krylov basis, the combined solution, the Gram-Schmidt scratch
        # and the Hessenberg, rotation and coefficient arrays of a block
        # GMRES are kept views of the operator's work buffers: after one
        # warm-up, a 34-column block (the lower layer's adjoint block)
        # allocates less than half a block per Krylov vector of any panel,
        # and less than two blocks in all (1.87 measured: the result and a
        # panel's worth of temporaries;
        # 4.87 with fresh Hessenberg and rotation arrays per call)
        ops = strip(self.GRID32, peaked(0.33, n=33), 16)
        rhs = np.zeros((33, 34, 17))
        rhs[np.arange(33), np.arange(33)] = ops._d_tau[0]
        row_x, t_rows, h = ops._point_rows((0.0, -0.5))
        rhs[:, 33] = np.outer(row_x, (2.0 / h) * t_rows[1])
        panels = []  # per GMRES call, the widths of its preconditioner calls
        real_gmres = layers.gmres
        precondition = ops._flat_solve

        def calling(*args):
            panels.append([])
            return real_gmres(*args)

        def counting(v, transposed=False):
            panels[-1].append(v.shape[1])
            return precondition(v, transposed)

        monkeypatch.setattr(layers, "gmres", calling)
        ops._flat_solve = counting
        want = panelled(ops, rhs)
        panels.clear()
        tracemalloc.start()
        try:
            got = panelled(ops, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(panels) == -(-34 // layers.BLOCK_COLUMNS) > 1
        assert not ops.factored
        for widths in panels:
            built = len(widths) - 1  # one more call preconditions the solution
            assert built > 10
            assert peak < 0.5 * rhs.nbytes * built
        assert peak < 2 * rhs.nbytes
        assert np.array_equal(got, want)


    def test_solves_ignore_what_the_buffers_held(self):
        # gmres zeroes none of its kept Hessenberg and g entries, since it
        # writes each before reading it: solves after every buffer is filled
        # with nan repeat their results bit for bit
        ops = strip(self.GRID32, peaked(0.33, n=33), 16)
        rng = np.random.default_rng(14)
        block = rng.standard_normal((33, 34, 17))
        trace = EvenField(0.1 * rng.standard_normal(33) * np.exp(
            -0.3 * np.arange(33)))
        want = panelled(ops, block), ops.solve(trace)
        for buffer in ops._work._buffers.values():
            buffer.fill(np.nan)
        got = panelled(ops, block), ops.solve(trace)
        assert not ops.factored
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestDeviation:
    """delta = A - M, the part of the operator that the preconditioner's
    flat strip M leaves out, which a Richardson step applies to its
    correction; GMRES runs on A M^-1 = I + delta M^-1."""

    GRID32 = CollocationGrid(np.pi, 32)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("state", ["flat", "crest", "strength-3"])
    def test_matches_the_assembled_operators(self, state, side, strength_3):
        # M is the operator of the flat strip at the mean thickness
        eta = (strength_3[1].elevation if state == "strength-3"
               else peaked(0.0 if state == "flat" else 0.33, n=33))
        ops = strip(self.GRID32, on_side(eta, side), 16)
        mean = np.zeros(33)
        mean[0] = ops.eta.coeffs[0]
        full = assembled_operator(ops)
        delta = full - assembled_operator(strip(self.GRID32, EvenField(mean),
                                                16))
        v = np.random.default_rng(15).standard_normal((33 * 17, 3))
        for transposed, op in ((False, delta), (True, delta.T)):
            u, delta_u = ops._richardson_step(as_block(v), transposed)
            u, got = as_columns(u), as_columns(delta_u)
            scale = np.max(np.abs(full)) * np.max(np.abs(u))
            assert np.max(np.abs(got - op @ u)) <= 1e-13 * scale
            if state == "flat":  # the flat strip is M itself
                assert not got.any()


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
                eval_interior(ops, sol, (x + h, y))
                + eval_interior(ops, sol, (x - h, y))
                + eval_interior(ops, sol, (x, y + h))
                + eval_interior(ops, sol, (x, y - h))
                - 4.0 * eval_interior(ops, sol, p)
            ) / h**2
            assert abs(lap) < 1e-5

    def test_interior_derivatives_match_bivariate_fd(self):
        p = (0.6, -0.45)
        ops = strip(GRID, on_side(wavy(), "upper"), 32, p)
        sol = ops.solve(mode(3, 0.7))
        h = 1e-5
        fd_y = (eval_interior(ops, sol, (p[0], p[1] + h))
                - eval_interior(ops, sol, (p[0], p[1] - h))) / (2 * h)
        assert ops.eval_interior_dy(sol) == pytest.approx(fd_y, abs=1e-6)

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
        ops = strip(GRID, FLAT, 32, (0.0, y0))
        sol = ops.solve(mode(k))
        exact = kap * np.cosh(kap * (y0 + DEPTH)) / np.sinh(kap * DEPTH)
        assert ops.eval_interior_dy(sol) == pytest.approx(exact, rel=1e-10)

    def test_constant_trace_dy_is_inverse_depth(self):
        ops = strip(GRID, FLAT, 32, (0.9, -0.3))
        sol = ops.solve(mode(0))
        assert ops.eval_interior_dy(sol) == pytest.approx(
            1.0 / DEPTH, rel=1e-10
        )

    def test_row_functional_matches_direct_eval(self):
        p = (0.0, -0.5)
        ops = strip(GRID, wavy(), 32, p)
        row = ops.interior_dy_row(ops.adjoint_block())
        for k in (0, 3, 11):
            sol = ops.solve(mode(k, 0.9))
            direct = ops.eval_interior_dy(sol)
            assert row[k] * 0.9 == pytest.approx(direct, abs=1e-12)

    def test_row_matches_flat_symbol_when_resolved(self):
        # vertical truncation of high-mode boundary layers dies out by M = 48
        ops = strip(GRID, FLAT, 48, (0.0, -0.5))
        row = ops.interior_dy_row(ops.adjoint_block())
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
        dno_dirs, int_dirs = ops.shape_batch(sol, ops.adjoint_block())
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
        dno_dirs, _ = ops.shape_batch(ops.solve(trace), ops.adjoint_block())
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
        dno_dirs, int_dirs = ops.shape_batch(sol, ops.adjoint_block())
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
                eval_interior(ops, sol, bad)
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
