"""Referees of the layer operators' shape derivatives and preconditioner.

`shape_derivative` re-solves the layer on two perturbed geometries; the
tests hold `LayerOperators.shape_batch` against it.  `flat_solve_dense`
applies the flat-strip preconditioner through dense per-mode inverses; the
tests hold `LayerOperators._flat_solve` against it.
"""

from __future__ import annotations

import numpy as np

from vortexwave.layers import SHAPE_STEP, LayerGeometry, LayerOperators
from vortexwave.spectral import CollocationGrid, EvenField


def shape_derivative(grid: CollocationGrid, eta: EvenField, trace: EvenField,
                     direction: EvenField, depth: float, m_vertical: int, point=None, step: float | None = None):
    """Literal central-difference shape derivative of the layer maps.

    Re-solves on the two perturbed geometries eta +/- h * direction with
    h = step * depth / max(1, |direction|_inf), step defaulting to
    SHAPE_STEP.  Returns the derivative of the Dirichlet-to-Neumann output
    as an EvenField and, when `point` is given, the derivative of the
    interior vertical derivative there.

    At the default step the output carries the central-difference noise
    floor of the two solves (solve roundoff / step, about 1e-4 of scale);
    `shape_batch` differentiates the operator entries instead and is the
    accurate path the system Jacobian uses.
    """
    if step is None:
        step = SHAPE_STEP
    sup = float(np.max(np.abs(grid.even_values_half(direction))))
    h = step * depth / max(1.0, sup)
    outs = []
    for s in (h, -h):
        shifted = EvenField(eta.coeffs + s * direction.coeffs)
        ops = LayerOperators(LayerGeometry(grid, depth, shifted), m_vertical)
        sol = ops.solve(trace)
        g = ops.dno_values_half(sol)
        val = ops.eval_interior_dy(sol, point) if point is not None else 0.0
        outs.append((g, val))
    dg = (outs[0][0] - outs[1][0]) / (2.0 * h)
    dval = (outs[0][1] - outs[1][1]) / (2.0 * h)
    field = EvenField(grid._cos_inv @ dg)
    return (field, float(dval)) if point is not None else (field, None)


def flat_solve_dense(ops, rhs: np.ndarray) -> np.ndarray:
    """The flat-strip preconditioner applied through dense per-mode inverses.

    On a flat strip of the mean thickness h the mapped operator is
    u_xx + u_tautau / h^2; mode k of the cosine transform gives the
    (M+1) x (M+1) block d^2/dtau^2 / h^2 - k^2 with identity rows at the
    interface and the wall, which is inverted here as it stands.
    """
    geom = ops.geometry
    grid = geom.grid
    h = geom.eta.coeffs[0] + geom.depth
    mt = ops.m_vertical + 1
    blocks = (ops._d_tau2 / (h * h)
              - grid.wavenumbers[:, None, None] ** 2 * np.eye(mt))
    blocks[:, [0, -1], :] = 0.0
    blocks[:, 0, 0] = blocks[:, -1, -1] = 1.0
    r = grid._cos_inv @ rhs.reshape(grid.n_modes + 1, -1)
    u = np.einsum("kij,kj->ki", np.linalg.inv(blocks), r)
    return (grid._cos_mat @ u).reshape(-1)
