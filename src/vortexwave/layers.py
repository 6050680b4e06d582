"""Harmonic solves in the two fluid strips via a sigma-mapped collocation grid.

Every strip here is a lower one: fluid between a rigid wall at y = -d and
the interface eta above it, pulled back to a fixed rectangle by the vertical
map

    y = -d + (1 + tau) h(x),      h = eta + d > 0,      tau in [-1, 0],

with tau = 0 the interface and tau = -1 the wall.  The upper fluid over eta
is the lower strip under -eta, reflected through y -> -y, and
`system.WaveSystem.prepare` builds it that way.  Negation is exact in
floating point, so that strip's operator, LU factors and Dirichlet-to-Neumann
map are bit-identical to those of the upper fluid itself, while its shape
derivatives, taken in -eta, change sign.  Laplace's equation becomes

    u_xx + 2 tau_x u_xtau + (tau_x^2 + 1/h^2) u_tautau + tau_xx u_tau = 0,
    tau_x  = -(1 + tau) h'(x) / h,
    tau_xx = -(1 + tau) (h'' h - 2 h'^2) / h^2.

Discretization: cosine collocation in x on the half grid (everything here is
even), Chebyshev collocation in tau, Dirichlet data on the interface, and a
zero-Dirichlet gauge on the rigid wall.  The gauge fixes the additive constant
of the stream function and gives the k = 0 Dirichlet-to-Neumann multiplier
the value 1/d on a flat strip.

Two solve paths share one operator.  A single trace solve, the only solve
a residual needs, runs GMRES (Saad & Schultz 1986) on the matrix-free apply,
right-preconditioned by the flat strip at the layer's mean thickness.  The
flat strip separates into one Chebyshev boundary-value problem per cosine
mode, and all of them share the interior block of d^2/dtau^2, which is
diagonalized once per vertical resolution; so an operator builds no
preconditioner of its own, and applying it costs two products with the
(M-1) x (M-1) eigenvector matrices besides the cosine transforms.  The
multi-column and transposed solves behind the Jacobian (the
Dirichlet-to-Neumann matrix, the interior-derivative row functional and the
directional shape derivatives) back-substitute through one dense LU
factorization per geometry, made the first time one of them runs.  Trace
solves on small operators, and any that GMRES does not converge, take the
LU path too.  The GMRES loop itself, `gmres`, takes the apply, the
preconditioner and the stop as arguments; the continuation corrector runs
it on the bordered Newton system.

The factorized operator carries its Dirichlet rows scaled to the largest
diagonal entry of the interior rows (the Dirichlet entries of every
right-hand side are scaled to match), so that partial pivoting keeps those
rows exact; with unit Dirichlet rows the flat-strip DNO matrix picked up
off-diagonal roundoff that grew with the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import chebyshev as ncheb

from .errors import DegenerateStrip, LinearSolveFailure, PointOutsideLayer
from .spectral import CollocationGrid, EvenField

#: central-difference step of the shape derivatives, in units of the depth
SHAPE_STEP = 1e-6

#: unknown count nx * mt below which a trace solve factors the operator
#: instead of running GMRES.  On 2 x86 cores with OpenBLAS one GMRES solve
#: costs as much as assembly plus LU near 290 unknowns (16x16); a prepare
#: whose Jacobian follows pays for both, so the switch sits higher, where
#: GMRES costs 0.3 of the LU (561 unknowns, 32x16)
KRYLOV_MIN_UNKNOWNS = 500

#: Krylov vectors a trace solve may build before it falls back to LU
KRYLOV_MAX = 40

#: GMRES stopping rule on the relative residual estimate: converged below
#: KRYLOV_TOL, or below KRYLOV_FLOOR once one vector cuts the estimate by
#: less than the factor KRYLOV_STALL (stagnation at roundoff)
KRYLOV_TOL = 1e-14
KRYLOV_FLOOR = 1e-12
KRYLOV_STALL = 0.5

#: the strip counts as degenerate once min h falls below this fraction of depth
GAP_FLOOR_FRACTION = 0.02


def gmres(apply, precondition, rhs: np.ndarray, max_vectors: int,
          tol: float, floor: float = 0.0) -> np.ndarray | None:
    """Right-preconditioned GMRES for apply(x) = rhs; None when it misses.

    Builds at most `max_vectors` Krylov vectors of apply(precondition(.))
    and stops on the Arnoldi estimate of the relative residual: below
    `tol`, or below `floor` once one more vector cuts the estimate by less
    than the factor KRYLOV_STALL.  Returns None when the estimate turns
    non-finite or the vectors run out first.
    """
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs)
    basis = np.empty((max_vectors + 1, rhs.size))
    hess = np.zeros((max_vectors + 1, max_vectors))
    cs = np.empty(max_vectors)
    sn = np.empty(max_vectors)
    g = np.zeros(max_vectors + 1)
    g[0] = beta
    basis[0] = rhs / beta
    previous = 1.0
    for j in range(max_vectors):
        w = apply(precondition(basis[j]))
        for i in range(j + 1):  # modified Gram-Schmidt
            hess[i, j] = basis[i] @ w
            w -= hess[i, j] * basis[i]
        norm_w = float(np.linalg.norm(w))
        hess[j + 1, j] = norm_w
        for i in range(j):  # earlier Givens rotations
            hess[i, j], hess[i + 1, j] = (
                cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j],
            )
        rad = np.hypot(hess[j, j], hess[j + 1, j])
        cs[j], sn[j] = hess[j, j] / rad, hess[j + 1, j] / rad
        hess[j, j], hess[j + 1, j] = rad, 0.0
        g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
        estimate = abs(g[j + 1]) / beta
        if estimate <= tol or (
                estimate <= floor and estimate > KRYLOV_STALL * previous):
            y = sla.solve_triangular(hess[:j + 1, :j + 1], g[:j + 1])
            return precondition(y @ basis[:j + 1])
        if not np.isfinite(estimate):
            return None
        basis[j + 1] = w / norm_w
        previous = estimate
    return None


def chebyshev_gauss_lobatto(m: int) -> np.ndarray:
    """Gauss-Lobatto points cos(pi i / m), i = 0..m, from 1 down to -1."""
    return np.cos(np.pi * np.arange(m + 1) / m)


def chebyshev_diff_matrix(m: int) -> np.ndarray:
    """First-derivative collocation matrix on the Gauss-Lobatto points."""
    if m < 2:
        raise ValueError("need at least three vertical points")
    t = chebyshev_gauss_lobatto(m)
    c = np.ones(m + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(m + 1)
    dt = t[:, None] - t[None, :]
    np.fill_diagonal(dt, 1.0)
    d = np.outer(c, 1.0 / c) / dt
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))  # rows annihilate constants
    return d


@lru_cache(maxsize=8)
def _vertical(m: int):
    """Cached vertical-discretization pieces on tau in [-1, 0]."""
    t = chebyshev_gauss_lobatto(m)
    tau = 0.5 * (t - 1.0)
    d_tau = 2.0 * chebyshev_diff_matrix(m)  # d/dtau = 2 d/dt
    d_tau2 = d_tau @ d_tau
    vand_inv = np.linalg.inv(ncheb.chebvander(t, m))
    for arr in (t, tau, d_tau, d_tau2, vand_inv):
        arr.flags.writeable = False
    return t, tau, d_tau, d_tau2, vand_inv


@lru_cache(maxsize=8)
def _interior_eigen(m: int):
    """Eigen-decomposition V diag(lam) V^-1 of the interior d^2/dtau^2 block.

    The block of rows and columns 1..m-1 of the collocated second
    derivative (Dirichlet values eliminated) has real, distinct, negative
    eigenvalues, and V is well conditioned: cond(V) grows from 1.4 at
    m = 8 to 2.7 at m = 128.
    """
    d_tau2 = _vertical(m)[3]
    lam, vecs = np.linalg.eig(d_tau2[1:-1, 1:-1])
    vecs_inv = np.linalg.inv(vecs)
    for arr in (lam, vecs, vecs_inv):
        arr.flags.writeable = False
    return lam, vecs, vecs_inv


@dataclass(frozen=True)
class LayerGeometry:
    """Mapped-strip data on the half grid: interface eta, wall at y = -depth.

    Construction raises DegenerateStrip once the thickness eta + depth falls
    to GAP_FLOOR_FRACTION * depth at a half-grid node, the solver's
    degeneracy floor; an interface below the wall has negative thickness.
    """

    grid: CollocationGrid
    depth: float
    eta: EvenField

    def __post_init__(self):
        if not self.depth > 0:
            raise ValueError("depth must be positive")
        if self.eta.coeffs.size != self.grid.n_modes + 1:
            raise ValueError("elevation band does not match the grid")
        floor = GAP_FLOOR_FRACTION * self.depth
        e = self.grid.even_values_half(self.eta)
        thinnest = float(np.min(e + self.depth))
        if thinnest <= floor:
            raise DegenerateStrip(
                f"layer thickness fell to {thinnest:.3e}, "
                f"below the floor {floor:.3e}"
            )
        object.__setattr__(self, "_eta_half", e)


def _profiles(grid: CollocationGrid, eta_half, depth: float):
    """x-profiles entering the mapped operator's variable coefficients.

    Returns (q_mixed, q_tt_quad, q_tt_flat, q_t) so that

        c_mixed = outer(q_mixed, 1 + tau)
        c_tt    = outer(q_tt_quad, (1 + tau)^2) + outer(q_tt_flat, 1)
        c_t     = outer(q_t, 1 + tau)
    """
    h = eta_half + depth
    hx = grid.half_d1 @ eta_half
    hxx = grid.half_d2 @ eta_half
    p = hx / h
    return -2.0 * p, p * p, 1.0 / (h * h), -(hxx * h - 2.0 * hx * hx) / (h * h)


class LayerOperators:
    """Mapped-Laplace operator for one layer geometry.

    Construction keeps only the variable-coefficient profiles.  The dense
    operator is assembled and LU-factored the first time a multi-column or
    transposed solve needs it (`dno_matrix`, `shape_batch`,
    `interior_dy_row`), and the factors are then shared by all of them.  A
    trace solve (`solve`) runs right-preconditioned GMRES on the matrix-free
    apply instead, so a residual evaluation factors nothing; it takes the LU
    path when the operator has fewer than KRYLOV_MIN_UNKNOWNS unknowns or
    when GMRES does not converge within KRYLOV_MAX vectors.
    """

    def __init__(self, geometry: LayerGeometry, m_vertical: int):
        if m_vertical < 8:
            raise ValueError("vertical resolution must be at least 8")
        self.geometry = geometry
        self.m_vertical = int(m_vertical)
        nx = geometry.grid.n_modes + 1
        mt = self.m_vertical + 1
        _, tau, d_tau, d_tau2, _ = _vertical(self.m_vertical)
        one_plus = 1.0 + tau

        q_mixed, q_tt_quad, q_tt_flat, q_t = _profiles(
            geometry.grid, geometry._eta_half, geometry.depth
        )
        rows = np.arange(nx) * mt
        self._interface_rows = rows
        self._replaced_rows = np.concatenate([rows, rows + mt - 1])
        self._one_plus = one_plus
        self._q_mixed = q_mixed
        self._c_mixed = np.outer(q_mixed, one_plus)
        self._c_tt = np.outer(q_tt_quad, one_plus**2) + q_tt_flat[:, None]
        self._c_t = np.outer(q_t, one_plus)
        self._d_tau = d_tau
        self._d_tau2 = d_tau2
        self._dno_matrix = None
        self._adjoints = {}

    @cached_property
    def _factors(self):
        """(LU factors, Dirichlet-row scale) of the assembled operator."""
        grid = self.geometry.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        one_plus, d_tau = self._one_plus, self._d_tau

        # column-major assembly: entry [(x,i),(k,j)] lives at at4[k,j,x,i],
        # so the reshaped transpose view hands LAPACK a Fortran-ordered
        # operator it can factorize fully in place
        at4 = np.empty((nx, mt, nx, mt))
        np.multiply(
            (self._q_mixed[:, None] * grid.half_d1).T[:, None, :, None],
            (one_plus[:, None] * d_tau).T[None, :, None, :],
            out=at4,
        )
        dxx_t = grid.half_d2.T
        idx = np.arange(mt)
        at4[:, idx, :, idx] += dxx_t
        for j in range(nx):
            at4[j, :, j, :] += (
                self._c_tt[j][:, None] * self._d_tau2
                + self._c_t[j][:, None] * d_tau
            ).T
        arr_t = at4.reshape(nx * mt, nx * mt)

        replaced = self._replaced_rows
        arr_t[:, replaced] = 0.0
        # Dirichlet rows carry the interior rows' scale, so that partial
        # pivoting does not lose them to roundoff; right-hand sides are
        # scaled to match in the solves below
        scale = float(np.max(np.abs(np.diagonal(arr_t))))
        arr_t[replaced, replaced] = scale
        try:
            lu = sla.lu_factor(arr_t.T, overwrite_a=True, check_finite=False)
        except (ValueError, sla.LinAlgError) as exc:
            raise LinearSolveFailure(f"layer operator factorization failed: {exc}")
        if not np.all(np.isfinite(lu[0])):
            raise LinearSolveFailure("layer operator factorization produced non-finite entries")
        return lu, scale

    @property
    def factored(self) -> bool:
        """Whether the LU factors exist, so a Jacobian here factors nothing."""
        return "_factors" in self.__dict__

    # -- solves -------------------------------------------------------------

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-free operator apply, Dirichlet rows replaced by identity."""
        grid = self.geometry.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        vec = u.ndim == 1
        w = u.reshape(nx, mt, -1)
        ud1 = np.einsum("xjK,ij->xiK", w, self._d_tau)
        out = np.einsum("xk,kiK->xiK", grid.half_d2, w)
        out += self._c_tt[:, :, None] * np.einsum(
            "xjK,ij->xiK", w, self._d_tau2
        )
        out += self._c_t[:, :, None] * ud1
        out += self._c_mixed[:, :, None] * np.einsum(
            "xk,kiK->xiK", grid.half_d1, ud1
        )
        out = out.reshape(nx * mt, -1)
        out[self._replaced_rows, :] = u.reshape(nx * mt, -1)[
            self._replaced_rows, :
        ]
        return out[:, 0] if vec else out

    def _flat_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the flat-strip preconditioner to one right-hand side.

        On a flat strip of thickness h, here the mean thickness, the mapped
        operator is u_xx + u_tautau / h^2, which the cosine transform in x
        splits into one Chebyshev boundary-value problem per mode k, with
        the same identity Dirichlet rows as the full operator.  Each is
        solved by moving the two Dirichlet values to the right-hand side
        and diagonalizing the interior block (`_interior_eigen`):
        u = V diag(1 / (lam / h^2 - k^2)) V^-1 r on the interior rows.
        """
        geom = self.geometry
        grid = geom.grid
        h2 = (geom.eta.coeffs[0] + geom.depth) ** 2
        lam, vecs, vecs_inv = _interior_eigen(self.m_vertical)
        u = grid._cos_inv @ rhs.reshape(grid.n_modes + 1, -1)
        inner = (u[:, 1:-1]
                 - u[:, [0, -1]] @ self._d_tau2[1:-1, [0, -1]].T / h2)
        inner = (inner @ vecs_inv.T) / (lam / h2
                                        - grid.wavenumbers[:, None] ** 2)
        u[:, 1:-1] = inner @ vecs.T
        return (grid._cos_mat @ u).reshape(-1)

    def _solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the identity-row operator through the scaled factors."""
        lu, scale = self._factors
        scaled = rhs.copy()
        scaled[self._replaced_rows] *= scale
        out = sla.lu_solve(lu, scaled, check_finite=False)
        if not np.all(np.isfinite(out)):
            raise LinearSolveFailure("layer solve produced non-finite entries")
        return out

    def solve(self, trace: EvenField) -> "LayerSolution":
        grid = self.geometry.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        if trace.coeffs.size != nx:
            raise ValueError("trace band does not match the grid")
        rhs = np.zeros(nx * mt)
        rhs[self._interface_rows] = grid.even_values_half(trace)
        u = None
        if nx * mt >= KRYLOV_MIN_UNKNOWNS:
            u = gmres(self._apply, self._flat_solve, rhs, KRYLOV_MAX,
                      KRYLOV_TOL, KRYLOV_FLOOR)
        if u is None or not np.all(np.isfinite(u)):
            u = self._solve_rhs(rhs)
        return LayerSolution(values=u.reshape(nx, mt))

    # -- interface extraction -------------------------------------------------

    def _extraction(self, eta_half, u_tau_ifc, u_x_ifc):
        """Outward interface derivative from interface traces of u_tau, u_x."""
        h = eta_half + self.geometry.depth
        ex = self.geometry.grid.half_d1 @ eta_half
        return (1.0 + ex * ex) * u_tau_ifc / h - ex * u_x_ifc

    def _interface_tau_x(self, u_values):
        _, _, d_tau, _, _ = _vertical(self.m_vertical)
        u_tau_ifc = u_values @ d_tau[0]
        u_x_ifc = self.geometry.grid.half_d1 @ u_values[:, 0]
        return u_tau_ifc, u_x_ifc

    def dno_values_half(self, sol: "LayerSolution") -> np.ndarray:
        u_tau_ifc, u_x_ifc = self._interface_tau_x(sol.values)
        return self._extraction(self.geometry._eta_half, u_tau_ifc, u_x_ifc)

    def dno_matrix(self) -> np.ndarray:
        """Trace coefficients -> Dirichlet-to-Neumann coefficients."""
        if self._dno_matrix is None:
            grid = self.geometry.grid
            nx = grid.n_modes + 1
            mt = self.m_vertical + 1
            rhs = np.zeros((nx * mt, nx))
            rhs[self._interface_rows, :] = grid._cos_mat
            u_all = self._solve_rhs(rhs).reshape(nx, mt, nx)
            _, _, d_tau, _, _ = _vertical(self.m_vertical)
            u_tau_ifc = np.einsum("jik,i->jk", u_all, d_tau[0])
            u_x_ifc = grid.half_d1 @ u_all[:, 0, :]
            vals = self._extraction(
                self.geometry._eta_half[:, None], u_tau_ifc, u_x_ifc
            )
            self._dno_matrix = grid._cos_inv @ vals
        return self._dno_matrix

    # -- interior evaluation ---------------------------------------------------

    def _map_point(self, point):
        """(x, y) -> (x, tau) with admissibility checks."""
        x, y = float(point[0]), float(point[1])
        geom = self.geometry
        eta_x = geom.grid.evaluate_even(geom.eta, np.array([x]))[0]
        h = eta_x + geom.depth
        tau = (y + geom.depth) / h - 1.0
        if not -1.0 < tau < 0.0:
            raise PointOutsideLayer(
                f"point {(x, y)} is not strictly inside the layer"
            )
        return x, tau, h

    def _vertical_coeffs(self, u_values, x):
        """Chebyshev coefficients (in t) of u(x, .)."""
        grid = self.geometry.grid
        _, _, _, _, vand_inv = _vertical(self.m_vertical)
        row_val = np.cos(grid.wavenumbers * x) @ grid._cos_inv
        return vand_inv @ (u_values.T @ row_val)

    def eval_interior(self, sol: "LayerSolution", point) -> float:
        """Solution value at an interior point."""
        x, tau, _ = self._map_point(point)
        cvec = self._vertical_coeffs(sol.values, x)
        return float(ncheb.chebval(2.0 * tau + 1.0, cvec))

    def eval_interior_dy(self, sol: "LayerSolution", point) -> float:
        """Vertical derivative of the solution at an interior point."""
        x, tau, h = self._map_point(point)
        cvec = self._vertical_coeffs(sol.values, x)
        u_tau = 2.0 * ncheb.chebval(2.0 * tau + 1.0, ncheb.chebder(cvec))
        return float(u_tau / h)

    def interior_dy_row(self, point) -> np.ndarray:
        """Row functional: trace coefficients -> interior vertical derivative."""
        r = self._interior_dy_adjoint(point)
        return r[self._interface_rows] @ self.geometry.grid._cos_mat

    def _interior_dy_adjoint(self, point) -> np.ndarray:
        """Transpose solve of the interior-dy evaluation functional.

        Both `interior_dy_row` and a pointed `shape_batch` need it, so each
        point's adjoint is solved once per operator and kept.
        """
        key = (float(point[0]), float(point[1]))
        if key not in self._adjoints:
            self._adjoints[key] = self._solve_adjoint(point)
        return self._adjoints[key]

    def _solve_adjoint(self, point) -> np.ndarray:
        """Transpose solve A^T x = e of the interior-dy functional e at point.

        The factors hold S A, S scaling the Dirichlet rows; (S A)^T y = e
        gives x = S y.
        """
        x, tau, h = self._map_point(point)
        grid = self.geometry.grid
        _, _, _, _, vand_inv = _vertical(self.m_vertical)
        kx = grid.wavenumbers
        row_x = np.cos(kx * x) @ grid._cos_inv
        dt_row = _chebder_row(2.0 * tau + 1.0, self.m_vertical)
        e = np.outer(row_x, (2.0 / h) * (dt_row @ vand_inv)).ravel()
        lu, scale = self._factors
        out = sla.lu_solve(lu, e, trans=1, check_finite=False)
        out[self._replaced_rows] *= scale
        if not np.all(np.isfinite(out)):
            raise LinearSolveFailure("adjoint solve produced non-finite entries")
        out.flags.writeable = False  # shared by every caller at this point
        return out

    # -- directional shape derivatives ----------------------------------------

    def shape_batch(self, sol: "LayerSolution", point=None):
        """Directional derivatives along every elevation cosine mode.

        Differentiates the assembled operator entries by central differences
        (step SHAPE_STEP * depth) and back-substitutes through the factorized
        base operator, so each direction costs one triangular solve instead of
        two fresh factorizations.  Returns (dno_dirs, interior_dy_dirs) where
        dno_dirs[:, k] holds half-grid values of the derivative of the
        interface extraction and interior_dy_dirs[k] the derivative of the
        interior vertical-derivative functional at `point` (None skips it).
        """
        geom = self.geometry
        grid = geom.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        depth = geom.depth
        one_plus = self._one_plus
        u = sol.values
        step = SHAPE_STEP * depth

        _, _, d_tau, d_tau2, _ = _vertical(self.m_vertical)
        w_xd = grid.half_d1 @ u @ d_tau.T
        w_dd = u @ d_tau2.T
        w_d = u @ d_tau.T

        eta0 = geom._eta_half
        basis = grid._cos_mat  # column k: cosine mode k on the half grid

        def all_profiles(eta_half):
            return np.stack(_profiles(grid, eta_half, depth))

        d_prof = np.empty((4, nx, nx))  # (profile, x, mode)
        for k in range(nx):
            plus = all_profiles(eta0 + step * basis[:, k])
            minus = all_profiles(eta0 - step * basis[:, k])
            d_prof[:, :, k] = (plus - minus) / (2.0 * step)

        rhs = (
            np.einsum("jk,i,ji->jik", d_prof[0], one_plus, w_xd)
            + np.einsum("jk,i,ji->jik", d_prof[1], one_plus**2, w_dd)
            + np.einsum("jk,ji->jik", d_prof[2], w_dd)
            + np.einsum("jk,i,ji->jik", d_prof[3], one_plus, w_d)
        )
        rhs[:, 0, :] = 0.0
        rhs[:, -1, :] = 0.0  # Dirichlet rows carry no geometry dependence
        rhs = rhs.reshape(nx * mt, nx)
        du = self._solve_rhs(-rhs).reshape(nx, mt, nx)

        u_tau_ifc, u_x_ifc = self._interface_tau_x(u)
        du_tau_ifc = np.einsum("jik,i->jk", du, d_tau[0])
        du_x_ifc = grid.half_d1 @ du[:, 0, :]
        dno_dirs = self._extraction(eta0[:, None], du_tau_ifc, du_x_ifc)
        for k in range(nx):
            plus = self._extraction(eta0 + step * basis[:, k], u_tau_ifc, u_x_ifc)
            minus = self._extraction(eta0 - step * basis[:, k], u_tau_ifc, u_x_ifc)
            dno_dirs[:, k] += (plus - minus) / (2.0 * step)

        if point is None:
            return dno_dirs, None

        adj = self._interior_dy_adjoint(point)
        interior_dirs = -(adj @ rhs)
        x_p = float(point[0])
        y_p = float(point[1])
        cvec = self._vertical_coeffs(u, x_p)
        dcvec = ncheb.chebder(cvec)
        eta_p = grid.evaluate_even(geom.eta, np.array([x_p]))[0]
        mode_at_p = np.cos(grid.wavenumbers * x_p)
        for k in range(nx):
            vals = []
            for s in (step, -step):
                eta_s = eta_p + s * mode_at_p[k]
                h_s = eta_s + depth
                tau_s = (y_p + depth) / h_s - 1.0
                vals.append(2.0 * ncheb.chebval(2.0 * tau_s + 1.0, dcvec) / h_s)
            interior_dirs[k] += (vals[0] - vals[1]) / (2.0 * step)
        return dno_dirs, interior_dirs


def _chebder_row(t: float, m: int) -> np.ndarray:
    """Row of dT_j/dt(t) for j = 0..m."""
    out = np.empty(m + 1)
    for j in range(m + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[j] = ncheb.chebval(t, ncheb.chebder(cj)) if j else 0.0
    return out


@dataclass(frozen=True)
class LayerSolution:
    """Mapped harmonic function on one layer."""

    values: np.ndarray  # (half-grid x, vertical) nodal values


# -- flat-strip reference symbols ----------------------------------------------


def flat_dno_symbol(grid: CollocationGrid, depth: float) -> np.ndarray:
    """Per-mode flat-strip multipliers: k pi/L coth(k pi d/L), and 1/d at k=0."""
    kd = grid.wavenumbers * depth
    out = np.empty(grid.n_modes + 1)
    out[0] = 1.0 / depth
    e = np.exp(-2.0 * kd[1:])
    out[1:] = grid.wavenumbers[1:] * (1.0 + e) / (1.0 - e)
    return out


def flat_interior_dy_symbol(grid: CollocationGrid, depth: float, y: float) -> np.ndarray:
    """Flat lower-strip interior d/dy response at (0, y) per trace mode."""
    if not -depth < y < 0.0:
        raise PointOutsideLayer("flat-strip evaluation point must satisfy -d < y < 0")
    k = grid.wavenumbers
    out = np.empty(grid.n_modes + 1)
    out[0] = 1.0 / depth
    kp = k[1:]
    # k cosh(k(y+d))/sinh(kd), written with decaying exponentials
    num = np.exp(kp * y) + np.exp(-kp * (y + 2.0 * depth))
    den = 1.0 - np.exp(-2.0 * kp * depth)
    out[1:] = kp * num / den
    return out
