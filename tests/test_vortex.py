"""Kernel values, derivatives, periodization, and interface traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexwave.errors import SingularEvaluation, VortexTooClose
from vortexwave.spectral import CollocationGrid
from vortexwave.vortex import (
    VortexPair,
    gamma,
    gamma_grad,
    gamma_hess,
    min_vortex_distance,
    pair_induced_speed,
    vortex_traces,
)

PAIR = VortexPair(lower=(0.0, -0.5), upper=(0.0, 0.5))


class TestPeriodizedKernel:
    L = np.pi

    def test_periodicity(self):
        x, y = 0.4, 0.8
        base = gamma(x, y, self.L)
        for m in (-2, 1, 3):
            shifted = gamma(x + 2 * self.L * m, y, self.L)
            assert shifted == pytest.approx(base, abs=1e-13)

    def test_same_singularity_strength(self):
        # difference from the free-space kernel log(r^2)/(4 pi) tends to a
        # constant at the origin
        radii = np.logspace(-6, -2, 9)
        diffs = [
            gamma(r / np.sqrt(2), r / np.sqrt(2), self.L)
            - np.log(r * r) / (4.0 * np.pi)
            for r in radii
        ]
        assert np.max(diffs) - np.min(diffs) < 1e-4

    def test_far_field_vertical_derivative(self):
        # d/dy -> 1/(4L) far above the vortex row
        for L in (np.pi, 2.2):
            _, gy = gamma_grad(0.3, 10 * L, L)
            assert gy == pytest.approx(1.0 / (4.0 * L), abs=1e-10)

    def test_gradient_on_axis(self):
        # on x = 0: d/dx = 0 and d/dy = (a / 4 pi) coth(a y / 2), a = pi/L
        y = 0.37
        for L in (np.pi, 2.2):
            a = np.pi / L
            gx, gy = gamma_grad(0.0, y, L)
            assert gx == pytest.approx(0.0, abs=1e-15)
            assert gy == pytest.approx(a / (4.0 * np.pi * np.tanh(a * y / 2)),
                                       rel=1e-14)

    @pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_gradient_keeps_its_digits_near_the_vortex(self, r):
        # the denominator is (a r)^2 / 2 here, a small difference of two
        # terms near 1 unless it is formed without cancellation
        for L in (np.pi, 2.2):
            a = np.pi / L
            _, gy = gamma_grad(0.0, r, L)
            assert gy == pytest.approx(a / (4.0 * np.pi * np.tanh(a * r / 2)),
                                       rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        p = (1.1, -0.4)
        h = 1e-6
        gx, gy = gamma_grad(*p, self.L)
        fx = (gamma(p[0] + h, p[1], self.L)
              - gamma(p[0] - h, p[1], self.L)) / (2 * h)
        fy = (gamma(p[0], p[1] + h, self.L)
              - gamma(p[0], p[1] - h, self.L)) / (2 * h)
        assert gx == pytest.approx(fx, rel=1e-8)
        assert gy == pytest.approx(fy, rel=1e-8)

    def test_singular_evaluation_raises(self):
        with pytest.raises(SingularEvaluation):
            gamma(0.0, 1e-13, self.L)
        with pytest.raises(SingularEvaluation):
            gamma(2 * self.L, 1e-13, self.L)  # a periodic image of the vortex


class TestSecondDerivatives:
    def test_hessian_matches_fd_of_gradient(self):
        p = (0.6, -0.9)
        h = 1e-6
        gxx, gxy, gyy = gamma_hess(*p)
        gxp = gamma_grad(p[0] + h, p[1])
        gxm = gamma_grad(p[0] - h, p[1])
        gyp = gamma_grad(p[0], p[1] + h)
        gym = gamma_grad(p[0], p[1] - h)
        assert gxx == pytest.approx((gxp[0] - gxm[0]) / (2 * h), rel=1e-6)
        assert gxy == pytest.approx((gyp[0] - gym[0]) / (2 * h), rel=1e-6)
        assert gyy == pytest.approx((gyp[1] - gym[1]) / (2 * h), rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-2.5, max_value=2.5),
        st.floats(min_value=0.3, max_value=2.5),
    )
    def test_harmonic_away_from_singularity(self, x, y):
        # 5-point finite-difference Laplacian vanishes
        h = 1e-4
        vals = [
            gamma(x + h, y), gamma(x - h, y),
            gamma(x, y + h), gamma(x, y - h),
            gamma(x, y),
        ]
        lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4 * vals[4]) / h**2
        assert abs(lap) < 1e-5

    def test_hessian_trace_free(self):
        gxx, _, gyy = gamma_hess(0.8, 0.3)
        assert gxx + gyy == pytest.approx(0.0, abs=1e-14)


class TestPairInducedSpeed:
    def test_frozen_value_default_pair(self):
        # Gamma_y at (0, -1), L = pi: -coth(1/2)/(4 pi)
        assert pair_induced_speed(PAIR) == pytest.approx(
            -1.0 / (4.0 * np.pi * np.tanh(0.5)), rel=1e-14)

    def test_mirror_pair_general_height(self):
        # -(a / 4 pi) coth(a h), a = pi/L; the free-space -1/(4 pi h) as h -> 0
        h = 0.37
        pair = VortexPair((0.0, -h), (0.0, h))
        for L in (np.pi, 2.2):
            a = np.pi / L
            assert pair_induced_speed(pair, L) == pytest.approx(
                -a / (4.0 * np.pi * np.tanh(a * h)), rel=1e-13)

    def test_antisymmetric_in_swap(self):
        pair = VortexPair((0.0, -0.3), (0.0, 0.6))
        swapped = VortexPair((0.0, -0.6), (0.0, 0.3))
        a = pair_induced_speed(pair, 2.0)
        b = pair_induced_speed(swapped, 2.0)
        assert a == pytest.approx(b, rel=1e-13)  # depends only on the separation

    def test_periodized_value(self):
        a = np.pi / np.pi
        gap = 1.0
        expected = (a / (4 * np.pi)) * np.sinh(-a * gap) / (np.cosh(a * gap) - 1.0)
        assert pair_induced_speed(PAIR, np.pi) == pytest.approx(expected, rel=1e-14)


class TestTraces:
    def flat(self):
        g = CollocationGrid(np.pi, 16)
        eta = np.zeros_like(g.nodes)
        return g, vortex_traces(PAIR, g.nodes, eta)

    def test_flat_interface_phi_y_at_center(self):
        # Gamma_y(0, 1/2) - Gamma_y(0, -1/2) = coth(1/4)/(2 pi) at L = pi
        g, tr = self.flat()
        j0 = np.argmin(np.abs(g.nodes))
        assert tr.phi_y[j0] == pytest.approx(
            1.0 / (2.0 * np.pi * np.tanh(0.25)), rel=1e-13)

    def test_upper_trace_is_negative_lower(self):
        # the upper layer's field, kernel at the phantom minus kernel at the
        # vortex, is exactly the negative of the lower layer's trace
        g, tr = self.flat()
        eta = np.zeros_like(g.nodes)
        upper = (gamma(g.nodes, eta - PAIR.upper[1])
                 - gamma(g.nodes, eta - PAIR.lower[1]))
        upper_y = (gamma_grad(g.nodes, eta - PAIR.upper[1])[1]
                   - gamma_grad(g.nodes, eta - PAIR.lower[1])[1])
        assert np.array_equal(upper, -tr.phi)
        assert np.array_equal(upper_y, -tr.phi_y)

    def test_trace_parity(self):
        g = CollocationGrid(np.pi, 32)
        eta = 0.1 * np.cos(np.pi * g.nodes / g.half_period)
        tr = vortex_traces(PAIR, g.nodes, eta)
        refl = (-np.arange(g.nodes.size)) % g.nodes.size
        for even in (tr.phi, tr.phi_y, tr.phi_yy):
            gap = np.max(np.abs(even - even[refl]))
            assert gap < 1e-12 * max(np.max(np.abs(even)), 1e-30)
        for odd in (tr.phi_x, tr.phi_xy):
            gap = np.max(np.abs(odd + odd[refl]))
            assert gap < 1e-12 * max(np.max(np.abs(odd)), 1e-30)

    def test_vortex_too_close_raises(self):
        g = CollocationGrid(np.pi, 8)
        eta = np.full_like(g.nodes, PAIR.upper[1])  # interface through the phantom
        with pytest.raises(VortexTooClose):
            vortex_traces(PAIR, g.nodes, eta)

    def test_min_distance(self):
        g = CollocationGrid(np.pi, 8)
        eta = np.zeros_like(g.nodes)
        assert min_vortex_distance(PAIR, g.nodes, eta) == pytest.approx(0.5, rel=1e-14)


class TestVortexPair:
    def test_rejects_off_axis(self):
        with pytest.raises(ValueError):
            VortexPair((0.1, -0.5), (0.0, 0.5))

    def test_rejects_inverted_order(self):
        with pytest.raises(ValueError):
            VortexPair((0.0, 0.5), (0.0, -0.5))
