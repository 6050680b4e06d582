"""Point-vortex stream kernel and its interface traces.

The flow carries one vortex in the lower layer at z = (0, y0) and its
opposite-signed phantom in the upper layer at (0, y1).  Each layer's vortex
part of the stream function is the kernel centered at that layer's vortex
minus the kernel centered at the other one, so the upper trace is exactly
the negative of the lower trace; only the lower one is carried.

The kernel is the free-space kernel log(x^2 + y^2)/(4 pi) summed over the
2L-periodic lattice, in closed form log(cosh(pi y/L) - cos(pi x/L))/(4 pi).
It has the free-space singularity at the vortex, and interface traces built
from it are exactly periodic, so their cosine coefficients decay
spectrally; the bare free-space kernel's decay only like k^-2 (2.2e-7 at
N = 64), short of a 1e-10 corrector tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularEvaluation, VortexTooClose

#: hard singularity floor as a fraction of the layer depth scale
SINGULAR_RADIUS = 1e-12


@dataclass(frozen=True)
class VortexPair:
    """Vortex position z = (0, y) and phantom position (0, y1), x-aligned."""

    lower: tuple[float, float]
    upper: tuple[float, float]

    def __post_init__(self):
        zl = (float(self.lower[0]), float(self.lower[1]))
        zu = (float(self.upper[0]), float(self.upper[1]))
        if zl[0] != 0.0 or zu[0] != 0.0:
            raise ValueError("both vortices must sit on the symmetry axis x = 0")
        if not zl[1] < zu[1]:
            raise ValueError("lower vortex must lie strictly below the phantom")
        object.__setattr__(self, "lower", zl)
        object.__setattr__(self, "upper", zu)


def _scaled(dx, dy, half_period: float):
    """(a, a dx, a dy, cosh(a dy) - cos(a dx)) with a = pi / L.

    The denominator is summed as 2 (sinh^2(a dy / 2) + sin^2(a dx / 2)),
    free of cancellation near the vortex.  Raises SingularEvaluation within
    SINGULAR_RADIUS of the vortex or one of its periodic images.
    """
    a = np.pi / half_period
    ax = a * np.asarray(dx, dtype=float)
    ay = a * np.asarray(dy, dtype=float)
    den = 2.0 * (np.sinh(0.5 * ay) ** 2 + np.sin(0.5 * ax) ** 2)
    if np.any(den < 0.5 * (a * SINGULAR_RADIUS) ** 2):
        raise SingularEvaluation(
            f"evaluation within {SINGULAR_RADIUS:.1e} of the vortex"
        )
    return a, ax, ay, den


def gamma(dx, dy, half_period: float = np.pi):
    """Kernel value at displacement (dx, dy) from the vortex."""
    den = _scaled(dx, dy, half_period)[3]
    return np.log(den) / (4.0 * np.pi)


def gamma_grad(dx, dy, half_period: float = np.pi):
    """Kernel gradient (d/dx, d/dy) at displacement (dx, dy)."""
    a, ax, ay, den = _scaled(dx, dy, half_period)
    s = a / (4.0 * np.pi)
    return s * np.sin(ax) / den, s * np.sinh(ay) / den


def gamma_hess(dx, dy, half_period: float = np.pi):
    """Second derivatives (d_xx, d_xy, d_yy) of the kernel."""
    a, ax, ay, den = _scaled(dx, dy, half_period)
    s = a * a / (4.0 * np.pi)
    sx, shy = np.sin(ax), np.sinh(ay)
    gxx = s * (np.cos(ax) * den - sx * sx) / (den * den)
    gxy = -s * sx * shy / (den * den)
    return gxx, gxy, -gxx


def pair_induced_speed(pair: VortexPair, half_period: float = np.pi) -> float:
    """Horizontal drift the phantom induces at the lower vortex.

    This is the y-derivative of the kernel at the displacement z - z1 and
    sets the leading-order wave speed of the branch.
    """
    dy = pair.lower[1] - pair.upper[1]
    _, gy = gamma_grad(0.0, dy, half_period)
    return float(gy)


@dataclass(frozen=True)
class VortexTraces:
    """Vortex stream function and derivatives sampled along the interface.

    These are the lower layer's fields; the upper layer's are their exact
    negatives.  Second derivatives feed the elevation block of the analytic
    Jacobian.
    """

    phi: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    phi_xx: np.ndarray
    phi_xy: np.ndarray
    phi_yy: np.ndarray


def min_vortex_distance(pair: VortexPair, x, eta) -> float:
    """Smallest node-to-vortex Euclidean distance for either vortex,
    negated once the interface has crossed one (at the node nearest their
    axis x = 0 it does not pass between them), so that no guard admits it."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    d_low = np.hypot(x - pair.lower[0], eta - pair.lower[1])
    d_up = np.hypot(x - pair.upper[0], eta - pair.upper[1])
    distance = float(min(d_low.min(), d_up.min()))
    between = pair.lower[1] < eta[np.argmin(np.abs(x))] < pair.upper[1]
    return distance if between else -distance


def vortex_traces(pair: VortexPair, x, eta,
                  half_period: float = np.pi) -> VortexTraces:
    """Sample the lower layer's vortex stream function along y = eta(x)."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if min_vortex_distance(pair, x, eta) < SINGULAR_RADIUS:
        raise VortexTooClose(
            f"interface passes within {SINGULAR_RADIUS:.1e} of a vortex, "
            "or crosses one"
        )
    dxl, dyl = x - pair.lower[0], eta - pair.lower[1]
    dxu, dyu = x - pair.upper[0], eta - pair.upper[1]

    def diff(fn):
        low = fn(dxl, dyl, half_period)
        up = fn(dxu, dyu, half_period)
        if isinstance(low, tuple):
            return tuple(lo - hi for lo, hi in zip(low, up))
        return low - up

    phi = diff(gamma)
    gx, gy = diff(gamma_grad)
    gxx, gxy, gyy = diff(gamma_hess)
    return VortexTraces(phi=phi, phi_x=gx, phi_y=gy, phi_xx=gxx, phi_xy=gxy, phi_yy=gyy)
