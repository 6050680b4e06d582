"""Transforms, parity handling, calculus, and norms on the collocation grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwave.errors import ParityViolation
from vortexwave.spectral import CollocationGrid, EvenField, OddField


def grid(L=np.pi, N=16):
    return CollocationGrid(L, N)


class TestGridGeometry:
    def test_node_count_and_spacing(self):
        g = grid(N=8)
        assert g.nodes.shape == (16,)
        dx = np.diff(g.nodes)
        assert np.allclose(dx, g.half_period / 8, atol=1e-14)

    def test_half_grid_ends_at_zero(self):
        g = grid(N=10)
        assert g.half_nodes[-1] == 0.0
        assert g.half_nodes[0] == pytest.approx(-g.half_period, abs=1e-14)

    def test_nodes_mirror_bitwise(self):
        g = grid(N=12)
        x = g.nodes
        assert np.array_equal(x[13:], -x[11:0:-1])

    def test_rejects_odd_or_tiny_mode_count(self):
        with pytest.raises(ValueError):
            CollocationGrid(np.pi, 7)
        with pytest.raises(ValueError):
            CollocationGrid(np.pi, 2)
        with pytest.raises(ValueError):
            CollocationGrid(-1.0, 8)


class TestTransforms:
    def test_double_angle_identity(self):
        # cos^2(pi x / L) = 1/2 + cos(2 pi x / L)/2, frozen expected coefficients
        g = grid(L=2.7, N=16)
        f = g.to_even(np.cos(np.pi * g.nodes / g.half_period) ** 2)
        expected = np.zeros(17)
        expected[0] = 0.5
        expected[2] = 0.5
        assert np.allclose(f.coeffs, expected, atol=1e-13)

    def test_roundtrip_even(self):
        g = grid(N=24)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(25) * np.exp(-0.3 * np.arange(25))
        back = g.to_even(g.even_values(EvenField(a)))
        assert np.linalg.norm(back.coeffs - a) <= 1e-12 * np.linalg.norm(a)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_property(self, half_n, seed):
        n = 2 * half_n
        g = CollocationGrid(1.5, n)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n + 1)
        f = EvenField(a)
        back = g.to_even(g.even_values(f))
        assert np.linalg.norm(back.coeffs - a) <= 1e-12 * max(np.linalg.norm(a), 1e-30)

    def test_parity_check_trips_on_odd_data(self):
        g = grid()
        with pytest.raises(ParityViolation):
            g.to_even(np.sin(np.pi * g.nodes / g.half_period))

    def test_even_values_are_exactly_symmetric(self):
        g = grid(N=20)
        rng = np.random.default_rng(5)
        v = g.even_values(EvenField(rng.standard_normal(21)))
        assert np.array_equal(v, v[(-np.arange(40)) % 40])

    def test_evaluate_matches_nodal_values(self):
        g = grid(N=12)
        a = np.zeros(13)
        a[3] = 1.2
        a[0] = -0.4
        f = EvenField(a)
        assert np.allclose(g.evaluate_even(f, g.nodes), g.even_values(f), atol=1e-13)

    def test_interpolation_converges_spectrally(self):
        # error drop of at least 1e3 when doubling N on an analytic function
        L = np.pi
        target = lambda x: np.exp(np.cos(np.pi * x / L))
        xs = np.linspace(-L, L, 257)
        errs = []
        for n in (8, 16):
            g = CollocationGrid(L, n)
            f = g.to_even(target(g.nodes))
            errs.append(np.max(np.abs(g.evaluate_even(f, xs) - target(xs))))
        assert errs[1] < 1e-3 * errs[0]


class TestCalculus:
    def test_ddx_matches_termwise_oracle(self):
        # d/dx [cos(x) + cos(2x)] = -(sin(x) + 2 sin(2x)) at L = pi
        g = grid(L=np.pi, N=16)
        a = np.zeros(17)
        a[1] = 1.0
        a[2] = 1.0
        d = g.ddx(EvenField(a))
        oracle = -(np.sin(g.nodes) + 2.0 * np.sin(2.0 * g.nodes))
        assert np.allclose(g.evaluate_odd(d, g.nodes), oracle, atol=1e-13)

    def test_ddx_flips_parity_both_ways(self):
        g = grid(N=8)
        e = EvenField(np.arange(9, dtype=float))
        o = g.ddx(e)
        assert isinstance(o, OddField)
        assert isinstance(g.ddx(o), EvenField)

    def test_second_derivative_is_exact_multiplier(self):
        g = grid(L=1.3, N=10)
        a = np.random.default_rng(0).standard_normal(11)
        twice = g.ddx(g.ddx(EvenField(a)))
        assert np.allclose(twice.coeffs, -(g.wavenumbers**2) * a, rtol=1e-14, atol=1e-14)

    def test_dealias_zeroes_top_third(self):
        g = grid(N=12)
        f = g.dealias(EvenField(np.ones(13)))
        keep = (2 * 12) // 3
        assert np.all(f.coeffs[: keep + 1] == 1.0)
        assert np.all(f.coeffs[keep + 1 :] == 0.0)


class TestNorms:
    def test_constant_l2_norm(self):
        # |1|_{L^2(-L,L)} = sqrt(2 L)
        g = grid(L=2.0, N=8)
        one = EvenField(np.r_[1.0, np.zeros(8)])
        assert g.sobolev_norm(one, 0.0) == pytest.approx(np.sqrt(4.0), rel=1e-14)

    def test_cosine_h1_norm(self):
        # |cos(pi x/L)|_{H^1}^2 = L (1 + (pi/L)^2); equals 2 pi at L = pi
        g = grid(L=np.pi, N=8)
        c = np.zeros(9)
        c[1] = 1.0
        assert g.sobolev_norm(EvenField(c), 1.0) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)

    def test_weights_match_norm(self):
        g = grid(L=1.1, N=10)
        rng = np.random.default_rng(9)
        a = rng.standard_normal(11)
        w = g.sobolev_weights(3.0)
        assert g.sobolev_norm(EvenField(a), 3.0) == pytest.approx(np.sqrt(np.dot(w, a * a)))


class TestFieldTypes:
    def test_odd_rejects_nonzero_mean_slot(self):
        with pytest.raises(ValueError):
            OddField(np.ones(5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EvenField(np.array([1.0, np.nan, 0.0]))

    def test_coeffs_frozen(self):
        f = EvenField(np.zeros(5))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0
