"""Referees of the layer operators' solves, shape derivatives and preconditioner.

`eval_interior` and `eval_interior_dy` read a solution's value and
vertical derivative at any interior point through
`LayerOperators._point_rows`; the package reads the derivative at the
probe only.  `shape_derivative` re-solves the layer on two perturbed
geometries; the tests hold `LayerOperators.shape_batch` against it.
`forward_lu_products` computes the Jacobian's layer products through
forward LU solves and the explicit shape terms by complex step; the tests
hold the adjoint block and the closed-form shape derivatives against it.
`explicit_shape_batch` forms the shape derivatives' right-hand side R
(`shape_rhs`) and takes -Z^T R as it stands, the referee of the factored
contraction in `shape_batch`.  `assembled_operator` builds the operator
from Kronecker products and the unfolded coefficients, the referee of the
matrix-free applies.  `flat_solve_dense` applies the flat-strip
preconditioner through dense per-mode inverses; the tests hold
`LayerOperators._flat_solve`, plain and transposed, against it.
`adjoint_columns` forms the right-hand sides [E^T | e] of the adjoint
block, which the solver itself only adds a panel at a time.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from vortexwave.layers import (
    LayerOperators,
    _profiles,
    chebyshev_gauss_lobatto,
)
from vortexwave.spectral import CollocationGrid, EvenField

#: central-difference step of `shape_derivative`, in units of the depth
SHAPE_STEP = 1e-6

#: imaginary step of the complex-step derivatives (Martins, Sturdza & Alonso,
#: ACM TOMS 29, 2003): no difference is taken, so any step far below the
#: scale of the function is exact to roundoff
COMPLEX_STEP = 1e-30


def eval_interior(ops: LayerOperators, values: np.ndarray, point) -> float:
    """Solution value at an interior point."""
    row_x, t_rows, _ = ops._point_rows(point)
    return float(row_x @ values @ t_rows[0])


def eval_interior_dy(ops: LayerOperators, values: np.ndarray, point) -> float:
    """Vertical derivative of a solution at an interior point."""
    row_x, t_rows, h = ops._point_rows(point)
    return float(2.0 * (row_x @ values @ t_rows[1]) / h)


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
    `shape_batch` differentiates the operator coefficients in closed form
    and is the accurate path the system Jacobian uses.
    """
    if step is None:
        step = SHAPE_STEP
    sup = float(np.max(np.abs(grid.even_values_half(direction))))
    h = step * depth / max(1.0, sup)
    outs = []
    for s in (h, -h):
        shifted = EvenField(eta.coeffs + s * direction.coeffs)
        ops = LayerOperators(grid, depth, shifted, m_vertical)
        values = ops.solve(trace)
        g = ops.dno_values_half(values)
        val = eval_interior_dy(ops, values, point) if point is not None else 0.0
        outs.append((g, val))
    dg = (outs[0][0] - outs[1][0]) / (2.0 * h)
    dval = (outs[0][1] - outs[1][1]) / (2.0 * h)
    field = EvenField(grid._cos_inv @ dg)
    return (field, float(dval)) if point is not None else (field, None)


def adjoint_columns(ops: LayerOperators) -> np.ndarray:
    """[E^T | e] of `LayerOperators.adjoint_block` as a fresh (nx, k, mt)
    block, from the closed-form columns of `_add_adjoint_columns`."""
    nx = ops.grid.n_modes + 1
    k = nx + (ops.probe is not None)
    rhs = np.zeros((nx, k, ops.m_vertical + 1))
    ops._add_adjoint_columns(rhs, slice(0, k), 1.0)
    return rhs


def flat_solve_dense(ops, rhs: np.ndarray) -> np.ndarray:
    """The flat-strip preconditioner applied through dense per-mode inverses.

    On a flat strip of the mean thickness h the mapped operator is
    u_xx + u_tautau / h^2; mode k of the cosine transform gives the
    (M+1) x (M+1) block d^2/dtau^2 / h^2 - k^2 with identity rows at the
    interface and the wall, which is inverted here as it stands.  `rhs` is
    one vector (n,) or a block (n, k); the result has its shape.
    """
    grid = ops.grid
    h = ops.eta.coeffs[0] + ops.depth
    mt = ops.m_vertical + 1
    blocks = (ops._d_tau2 / (h * h)
              - grid.wavenumbers[:, None, None] ** 2 * np.eye(mt))
    blocks[:, [0, -1], :] = 0.0
    blocks[:, 0, 0] = blocks[:, -1, -1] = 1.0
    r = np.einsum("kx,xjc->kjc", grid._cos_inv,
                  rhs.reshape(grid.n_modes + 1, mt, -1))
    u = np.einsum("kij,kjc->kic", np.linalg.inv(blocks), r)
    return np.einsum("xk,kic->xic", grid._cos_mat, u).reshape(rhs.shape)


def assembled_operator(ops) -> np.ndarray:
    """The dense operator of `LayerOperators._apply`, from Kronecker products.

    u_xx + c_tt u_tautau + c_t u_tau + c_mixed u_xtau on the interior rows,
    with the coefficients c of `_profiles` on the whole grid, and identity
    rows at the interface and the wall.
    """
    grid = ops.grid
    nx = grid.n_modes + 1
    mt = ops.m_vertical + 1
    q_mixed, q_tt_quad, q_tt_flat, q_t = _profiles(grid, ops.eta_half,
                                                   ops.depth)
    one_plus = ops._one_plus
    c_tt = np.outer(q_tt_quad, one_plus**2) + q_tt_flat[:, None]
    eye_x, eye_t = np.eye(nx), np.eye(mt)
    mat = (np.kron(grid.half_d2, eye_t)
           + c_tt.reshape(-1, 1) * np.kron(eye_x, ops._d_tau2)
           + np.outer(q_t, one_plus).reshape(-1, 1)
           * np.kron(eye_x, ops._d_tau)
           + np.outer(q_mixed, one_plus).reshape(-1, 1)
           * np.kron(grid.half_d1, ops._d_tau))
    rows = ops._replaced_rows
    mat[rows] = 0.0
    mat[rows, rows] = 1.0
    return mat


def shape_rhs(ops, u: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The differentiated operator applied to nodal values u, as an
    (x node, tau node, direction) array with zero Dirichlet rows.

    `moves` holds the four `_profiles` moves (profile, x node, direction).
    """
    grid = ops.grid
    one_plus = ops._one_plus
    w_xd = grid.half_d1 @ u @ ops._d_tau.T
    w_dd = u @ ops._d_tau2.T
    w_d = u @ ops._d_tau.T
    rhs = (
        np.einsum("jk,i,ji->jik", moves[0], one_plus, w_xd)
        + np.einsum("jk,i,ji->jik", moves[1], one_plus**2, w_dd)
        + np.einsum("jk,ji->jik", moves[2], w_dd)
        + np.einsum("jk,i,ji->jik", moves[3], one_plus, w_d)
    )
    rhs[:, [0, -1], :] = 0.0
    return rhs


def explicit_shape_batch(ops, u, z):
    """`LayerOperators.shape_batch` of the nodal values u and the adjoint
    block z, with its right-hand side R formed.

    Builds R, (nx, mt, nx), from the closed-form moves of the profiles and
    takes -Z^T R with the block z, on numpy; every other term is as in
    `shape_batch`.  Only the order of the contraction differs, so the two
    agree to roundoff.
    """
    grid = ops.grid
    nx = grid.n_modes + 1
    mt = ops.m_vertical + 1
    point = ops.probe
    e = ops.eta_half[:, None]
    h, hx, hxx = e + ops.depth, grid.half_d1 @ e, grid.half_d2 @ e
    dh = grid._cos_mat
    dhx, dhxx = grid.half_d1 @ dh, grid.half_d2 @ dh
    p = hx / h
    dp = (dhx - p * dh) / h
    moves = np.stack([-2.0 * dp, 2.0 * p * dp, -2.0 * dh / h**3,
                      (hxx * dh / h - dhxx) / h + 4.0 * p * dp])
    rhs = shape_rhs(ops, u, moves)
    moved = -(z.transpose(1, 0, 2).reshape(-1, nx * mt)
              @ rhs.reshape(nx * mt, nx))

    u_tau, u_x = (v[:, None] for v in ops._interface_tau_x(u))
    dno_dirs = ((1.0 + hx * hx) * (moved[:nx] - u_tau * dh / h) / h
                + (2.0 * hx * u_tau / h - u_x) * dhx)
    if point is None:
        return dno_dirs, None
    row_x, t_rows, h_p = ops._point_rows(point)
    u_t, u_tt = t_rows[1:] @ (row_x @ u)
    t_plus_1 = 2.0 * (float(point[1]) + ops.depth) / h_p
    d_dh = -2.0 * (u_t + t_plus_1 * u_tt) / h_p**2
    return dno_dirs, moved[nx] + d_dh * np.cos(
        grid.wavenumbers * float(point[0]))


def forward_lu_products(ops, u):
    """The Jacobian's products of one layer through forward LU solves.

    Solves the operator once per trace mode for the Dirichlet-to-Neumann
    matrix, and evaluates the same solutions' vertical derivative at the
    operator's probe for the interior-derivative row; solves it once per
    elevation mode of the differentiated operator's right-hand side, at
    the nodal values u, for the shape derivatives.  The explicit shape
    terms, the derivatives of `_profiles`, of the interface extraction and
    of 2 u_t / h at the probe, are taken by complex step along each cosine
    mode, the last from the probe's own Chebyshev coefficients.  Returns
    (dno matrix, shape-derivative values of the interface extraction,
    shape derivatives of the interior derivative at the probe,
    interior-derivative row), the quantities of
    `LayerOperators.dno_matrix`, `shape_batch` and `interior_dy_row`.
    """
    grid = ops.grid
    nx = grid.n_modes + 1
    mt = ops.m_vertical + 1
    depth = ops.depth
    point = ops.probe
    eta0 = ops.eta_half
    d_tau = ops._d_tau
    # column k: cosine mode k on the half grid, times the imaginary step
    eta_cs = eta0[:, None] + 1j * COMPLEX_STEP * grid._cos_mat

    def interface_derivative(u_all, eta_half):
        u_tau_ifc = np.einsum("jik,i->jk", u_all, d_tau[0])
        u_x_ifc = grid.half_d1 @ u_all[:, 0, :]
        return ops._extraction(eta_half, u_tau_ifc, u_x_ifc)

    def interior_dy(u_all):
        return np.array([eval_interior_dy(ops, u_all[:, :, k], point)
                         for k in range(u_all.shape[2])])

    rhs = np.zeros((nx * mt, nx))
    rhs[ops._interface_rows, :] = grid._cos_mat
    u_all = ops._solve_rhs(rhs).reshape(nx, mt, nx)
    dno = grid._cos_inv @ interface_derivative(u_all, eta0[:, None])
    row = interior_dy(u_all)

    # (profile, x, mode)
    d_prof = np.stack(_profiles(grid, eta_cs, depth)).imag / COMPLEX_STEP
    du = ops._solve_rhs(-shape_rhs(ops, u, d_prof).reshape(nx * mt, nx)
                        ).reshape(nx, mt, nx)
    dno_dirs = interface_derivative(du, eta0[:, None])
    u_tau_ifc, u_x_ifc = ops._interface_tau_x(u)
    dno_dirs += ops._extraction(eta_cs, u_tau_ifc[:, None],
                                u_x_ifc[:, None]).imag / COMPLEX_STEP

    # u(x_p, t) = sum_j c_j T_j(t); the thickness h at x_p moves along
    # mode k by cos(k x_p), and t = 2 (y + d) / h - 1 with it
    x_p, y_p = float(point[0]), float(point[1])
    m = ops.m_vertical
    column = u.T @ (np.cos(grid.wavenumbers * x_p) @ grid._cos_inv)
    coeffs = np.linalg.solve(
        ncheb.chebvander(chebyshev_gauss_lobatto(m), m), column)
    h_cs = (grid.evaluate_even(ops.eta, np.array([x_p]))[0] + depth
            + 1j * COMPLEX_STEP * np.cos(grid.wavenumbers * x_p))
    t_cs = 2.0 * (y_p + depth) / h_cs - 1.0
    explicit = 2.0 * ncheb.chebval(t_cs, ncheb.chebder(coeffs)) / h_cs
    interior_dirs = interior_dy(du) + explicit.imag / COMPLEX_STEP
    return dno, dno_dirs, interior_dirs, row
