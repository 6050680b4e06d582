"""Cosine/sine pseudo-spectral machinery on a symmetric periodic grid.

Everything in the solver lives on one period (-L, L] sampled at the 2N
equispaced nodes x_j = -L + j L/N.  Even fields are cosine series
a_k cos(k pi x / L), k = 0..N, and odd fields sine series b_k sin(k pi x
/ L); a coefficient array has length N + 1, indexed by mode number, with
slot 0 of an odd field zero.  The second half of the grid mirrors the
first exactly in floating point, and even fields are evaluated on the half
grid and unfolded, so their parity is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_coeffs(obj) -> np.ndarray:
    return obj.coeffs if isinstance(obj, (EvenField, OddField)) else np.asarray(obj, dtype=float)


@dataclass(frozen=True)
class EvenField:
    """Cosine-series coefficients a_k, k = 0..N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coefficient array must be 1-D with at least two entries")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class OddField:
    """Sine-series coefficients b_k, k = 1..N; slot 0 is identically zero."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coefficient array must be 1-D with at least two entries")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if c[0] != 0.0:
            raise ValueError("odd field has no k = 0 mode; coeffs[0] must be 0")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


class CollocationGrid:
    """2N-point periodic grid on (-L, L] with parity-aware transforms.

    N must be even and at least 4 so that the de-aliased band and the
    half-grid fold are well defined.
    """

    def __init__(self, half_period: float, n_modes: int):
        if not half_period > 0:
            raise ValueError("half_period must be positive")
        n_modes = int(n_modes)
        if n_modes < 4 or n_modes % 2:
            raise ValueError("n_modes must be even and >= 4")
        self.half_period = float(half_period)
        self.n_modes = n_modes

    # -- geometry ---------------------------------------------------------

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """k pi / L for k = 0..N."""
        k = np.arange(self.n_modes + 1)
        return k * (np.pi / self.half_period)

    @cached_property
    def half_nodes(self) -> np.ndarray:
        """Nodes x_0..x_N covering [-L, 0]; x_N is exactly 0."""
        n = self.n_modes
        x = (np.arange(n + 1) - n) * (self.half_period / n)
        x.flags.writeable = False
        return x

    @cached_property
    def nodes(self) -> np.ndarray:
        """All 2N nodes; the second half mirrors the first bitwise."""
        h = self.half_nodes
        x = np.concatenate([h, -h[-2:0:-1]])
        x.flags.writeable = False
        return x

    # -- transform matrices (half grid) ------------------------------------

    @cached_property
    def _angles(self) -> np.ndarray:
        n = self.n_modes
        jj = np.arange(n + 1) - n
        kk = np.arange(n + 1)
        return np.outer(jj, kk)  # integer products, angle = pi/N * this

    @cached_property
    def _cos_mat(self) -> np.ndarray:
        return np.cos((np.pi / self.n_modes) * self._angles)

    @cached_property
    def _sin_mat(self) -> np.ndarray:
        s = np.sin((np.pi / self.n_modes) * self._angles)
        s[self._angles % self.n_modes == 0] = 0.0  # analytically zero entries
        return s

    @cached_property
    def _cos_inv(self) -> np.ndarray:
        return np.linalg.inv(self._cos_mat)

    @cached_property
    def half_d1(self) -> np.ndarray:
        """Half-grid values of an even function -> values of its (odd) derivative."""
        return -self._sin_mat @ (self.wavenumbers[:, None] * self._cos_inv)

    @cached_property
    def half_d2(self) -> np.ndarray:
        """Half-grid values of an even function -> values of its second derivative."""
        return self._cos_mat @ (-(self.wavenumbers**2)[:, None] * self._cos_inv)

    @cached_property
    def half_d1_coeffs(self) -> np.ndarray:
        """Cosine coefficients -> half-grid values of the (odd) derivative."""
        return self.half_d1 @ self._cos_mat

    @cached_property
    def half_d2_coeffs(self) -> np.ndarray:
        """Cosine coefficients -> half-grid values of the second derivative."""
        return self.half_d2 @ self._cos_mat

    # -- values <-> coefficients -------------------------------------------

    def unfold_even(self, half: np.ndarray) -> np.ndarray:
        """Extend half-grid values of an even function to all 2N nodes."""
        return np.concatenate([half, half[-2:0:-1]])

    def even_values_half(self, field) -> np.ndarray:
        return self._cos_mat @ _as_coeffs(field)

    def even_values(self, field) -> np.ndarray:
        """Nodal values of a cosine series on the full grid (exactly even)."""
        return self.unfold_even(self.even_values_half(field))

    def evaluate_even(self, field, x) -> np.ndarray:
        """Evaluate a cosine series at arbitrary points."""
        x = np.asarray(x, dtype=float)
        return np.cos(np.multiply.outer(x, self.wavenumbers)) @ _as_coeffs(field)

    def evaluate_odd(self, field, x) -> np.ndarray:
        """Evaluate a sine series at arbitrary points."""
        x = np.asarray(x, dtype=float)
        return np.sin(np.multiply.outer(x, self.wavenumbers)) @ _as_coeffs(field)

    # -- calculus ----------------------------------------------------------

    def ddx(self, field):
        """Exact termwise derivative; flips parity."""
        if isinstance(field, EvenField):
            return OddField(-self.wavenumbers * field.coeffs)
        if isinstance(field, OddField):
            return EvenField(self.wavenumbers * field.coeffs)
        raise TypeError("ddx needs an EvenField or OddField")

    def dealias(self, field):
        """Zero modes above floor(2N/3) (classical two-thirds rule)."""
        keep = (2 * self.n_modes) // 3
        out = _as_coeffs(field).copy()
        out[keep + 1 :] = 0.0
        return type(field)(out)

    # -- norms ---------------------------------------------------------------

    @cached_property
    def _l2_weights(self) -> np.ndarray:
        w = np.full(self.n_modes + 1, self.half_period)
        w[0] = 2.0 * self.half_period
        return w

    def sobolev_weights(self, order: float) -> np.ndarray:
        """Diagonal weights so that norm(field)^2 = weights . coeffs^2."""
        return self._l2_weights * (1.0 + self.wavenumbers**2) ** order

    def sobolev_norm(self, field, order: float = 0.0) -> float:
        """Discrete H^s norm: sum_k (1 + (k pi/L)^2)^s |a_k|^2, L-weighted."""
        c = _as_coeffs(field)
        return float(np.sqrt(np.dot(self.sobolev_weights(order), c * c)))

