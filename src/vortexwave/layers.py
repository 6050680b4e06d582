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
derivatives, taken in -eta, change sign.  One `LayerOperators` checks,
solves and differentiates a strip.  Laplace's equation becomes

    u_xx + 2 tau_x u_xtau + (tau_x^2 + 1/h^2) u_tautau + tau_xx u_tau = 0,
    tau_x  = -(1 + tau) h'(x) / h,
    tau_xx = -(1 + tau) (h'' h - 2 h'^2) / h^2.

Discretization: cosine collocation in x on the half grid (everything here is
even), Chebyshev collocation in tau, Dirichlet data on the interface, and a
zero-Dirichlet gauge on the rigid wall.  The gauge fixes the additive constant
of the stream function and gives the k = 0 Dirichlet-to-Neumann multiplier
the value 1/d on a flat strip.

Every solve runs GMRES (Saad & Schultz 1986) on a matrix-free apply,
right-preconditioned by the flat strip at the layer's mean thickness.  The
flat strip separates into one Chebyshev boundary-value problem per cosine
mode, and all of them share the interior block of d^2/dtau^2, which is
diagonalized once per vertical resolution; so an operator keeps only its
per-mode denominators and Dirichlet coupling, and applying the
preconditioner costs two products with the eigenvector matrices, padded to
whole tau rows, besides the cosine transforms.  A trace solve, the only
solve a residual needs, runs on the operator A itself.  It may start from
a guess u0, the same strip's nodal values at a nearby state: GMRES then
solves A d = r - A u0 for the correction, with KRYLOV_TOL and KRYLOV_FLOOR
scaled by |r| / |r - A u0|, so that it stops at the residual a solve from
zero stops at, and a guess no better than zero is ignored.  Everything the
Jacobian reads from a layer (the Dirichlet-to-Neumann matrix, the
directional shape derivatives and the interior-derivative row) is a
functional of a solve, either the interface u_tau or the vertical
derivative at the probe, so one adjoint block Z = A^-T [E^T | e] of
N + 1 columns, and one more with a probe, serves all three; it is solved
once per operator, on the transposes of the apply and of the
preconditioner.

Both applies and both preconditioners take a vector or an (x node,
column, tau node) block.  In that layout each x product is one BLAS
product on the (nx, k mt) view and each tau product one on the (nx k, mt)
view, and the Dirichlet rows are the first and last tau nodes; so an apply
transposes and copies no block.  The operator's first-order coefficients
are rank one in (x, tau), so those terms are one x product and one tau
product, X w M^T (`_profiles`), with the tau factor M zero on the
Dirichlet rows; only the coefficient of u_tautau multiplies a block.  The
products run on scipy's BLAS and write into `WorkBuffers`: one kept array
per role, shared by the layer operators of one `system.WaveSystem`, which
also hold the Krylov basis of their GMRES solves, so that a Krylov vector
allocates no block.  GMRES solves a block a panel of at most
BLOCK_COLUMNS columns at a time, so every role holds at most one panel.

The explicit terms of the shape derivatives, those of the operator's
coefficient profiles, of the interface extraction and of the vertical
derivative at the probe, are closed forms in (h, h_x, h_xx) and h at the
probe, so no difference step enters the Jacobian.  One row helper,
`_point_rows`, computed once for the probe, gives the vertical derivative
there to its evaluation, its adjoint column and its shape derivative.
LU is the one direct path: a dense factorization of the assembled operator,
made the first time a solve needs it and kept, serves operators below
KRYLOV_MIN_UNKNOWNS, any solve whose GMRES misses on one of its panels,
and every later solve on an operator already factored.  The GMRES loop
itself, `gmres`, takes the apply, the preconditioner and the stop as
arguments and one right-hand side or a block of them; the continuation
corrector runs it on the bordered Newton system.

The factorized operator carries its Dirichlet rows scaled to the largest
diagonal entry of the interior rows (the Dirichlet entries of every
right-hand side are scaled to match), so that partial pivoting keeps those
rows exact; with unit Dirichlet rows the flat-strip DNO matrix picked up
off-diagonal roundoff that grew with the resolution.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import chebyshev as ncheb
from scipy.linalg.blas import dgemm

from .errors import DegenerateStrip, LinearSolveFailure, PointOutsideLayer
from .spectral import CollocationGrid, EvenField

#: unknown count nx * mt below which a layer factors its operator instead
#: of running GMRES, for trace solves and the adjoint block alike.  On 2 x86
#: cores with OpenBLAS one GMRES trace solve costs as much as assembly plus
#: LU near 360 unknowns at 14 Krylov vectors and near 460 at 21 (24x16 has
#: 425): on grids this small a vector costs about 50 us whatever its
#: length, so the crossover follows the vector count.  With GMRES at every
#: size, a continuation to the endpoint at 16x8 (153 unknowns, about 850
#: points) took 42-46 s instead of 5.5-6.4 s with this switch (in-process,
#: two runs each)
KRYLOV_MIN_UNKNOWNS = 500

#: Krylov vectors a GMRES solve may build per column before it falls back
#: to LU
KRYLOV_MAX = 40

#: columns of one GMRES call: `LayerOperators._solve` runs a wider block
#: as near-equal panels of at most this many, so the Krylov basis, the
#: Hessenberg and rotation arrays and every `WorkBuffers` role hold one
#: panel, not the block
BLOCK_COLUMNS = 22

#: GMRES stopping rule on the relative residual estimate: converged below
#: KRYLOV_TOL, or below KRYLOV_FLOOR once one vector cuts the estimate by
#: less than the factor KRYLOV_STALL (stagnation at roundoff)
KRYLOV_TOL = 1e-14
KRYLOV_FLOOR = 1e-12
KRYLOV_STALL = 0.5

#: the strip counts as degenerate once min h falls below this fraction of depth
GAP_FLOOR_FRACTION = 0.02


def gmres(apply, precondition, rhs: np.ndarray, max_vectors: int,
          tol: float, floor: float = 0.0,
          work: WorkBuffers | None = None) -> np.ndarray | None:
    """Right-preconditioned GMRES for apply(x) = rhs; None when it misses.

    `rhs` is one vector (n,) or a block (a, k, b) of k independent
    right-hand sides, column c being rhs[:, c, :]; apply and precondition
    then map (a, j, b) blocks of the j running columns to blocks of that
    shape.  Either may return a view of its own work buffers: each result
    is consumed before their next call.  Each column builds at most
    `max_vectors` Krylov vectors of apply(precondition(.)) and stops on its
    own Arnoldi estimate of the relative residual: below `tol`, or below
    `floor` once one more vector cuts the estimate by less than the factor
    KRYLOV_STALL.  Later vectors are built for the columns still running
    only.  Basis vector i is a view of `work` under the role "krylov i";
    the sum of the finished columns, the Gram-Schmidt scratch and the
    gathered columns of a partly finished block have the roles
    "combined", "gram-schmidt" and "gather".  A caller whose apply runs
    other solves on the same buffers passes none, and the call draws fresh
    ones.  A one-column block runs exactly as the vector does.  Returns the
    solution as `precondition` returns it, in the layout of `rhs`, so
    possibly a view of the preconditioner's buffers that its next call
    overwrites: a caller that keeps it copies it.  Returns None when an
    estimate turns non-finite or a column runs out of vectors.
    """
    work = WorkBuffers() if work is None else work
    one = rhs.ndim == 1 or rhs.shape[1] == 1
    b = rhs.reshape(1, 1, -1) if one else rhs
    k = b.shape[1]

    def caller(x):  # x in the layout of rhs
        return x.reshape(rhs.shape) if one else x

    def columns(x, cols):  # x[:, cols]: x itself, or gathered into a view
        if isinstance(cols, slice):
            return x
        return np.take(x, cols, axis=1, mode="clip",  # "raise" copies out
                       out=work.view("gather",
                                     (x.shape[0], cols.size, x.shape[2])))

    beta = np.sqrt(np.einsum("akb,akb->k", b, b))
    hess = np.zeros((max_vectors + 1, max_vectors, k))
    # the product Q^T of the Givens rotations so far, applied to each new
    # Hessenberg column at once rather than one rotation after another
    rot = np.zeros((max_vectors + 1, max_vectors + 1, k))
    rot[0, 0] = 1.0
    g = np.zeros((max_vectors + 1, k))
    g[0] = beta
    combined = work.view("combined", b.shape)  # sum of y_i basis_i
    combined.fill(0.0)
    projections = work.view("gram-schmidt", (b.size,))
    previous = np.ones(k)
    running = np.flatnonzero(beta)  # a zero column's solution is zero
    # a column of vector i is set while that column runs, and read only then
    basis = [np.divide(b, np.where(beta > 0.0, beta, 1.0)[:, None],
                       out=work.view("krylov 0", b.shape))]
    for j in range(max_vectors):
        if running.size == 0:
            break
        sel = slice(None) if running.size == k else running
        v = columns(basis[j], sel)
        w = apply(precondition(caller(v))).reshape(v.shape)
        product = projections[:w.size].reshape(w.shape)
        for i in range(j + 1):  # modified Gram-Schmidt
            v = columns(basis[i], sel)
            dots = np.einsum("akb,akb->k", v, w)
            hess[i, j, sel] = dots
            w -= np.multiply(v, dots[:, None], out=product)
        norm_w = np.sqrt(np.einsum("akb,akb->k", w, w))
        col = np.einsum("ila,la->ia", rot[:j + 1, :j + 1, sel],
                        hess[:j + 1, j, sel])
        rad = np.hypot(col[j], norm_w)
        c, s = col[j] / rad, norm_w / rad  # the new rotation, rows j, j + 1
        col[j] = rad
        hess[:j + 1, j, sel] = col
        last = rot[j][:j + 1, sel]
        rot[j + 1][:j + 1, sel] = -s * last
        rot[j][:j + 1, sel] = c * last
        rot[j, j + 1, sel] = s
        rot[j + 1, j + 1, sel] = c
        g[j + 1, sel] = -s * g[j, sel]
        g[j, sel] = c * g[j, sel]
        estimate = np.abs(g[j + 1, sel]) / beta[sel]
        done = (estimate <= tol) | (
            (estimate <= floor) & (estimate > KRYLOV_STALL * previous[sel]))
        if done.any():
            cols = sel if done.all() else running[done]
            y = _back_substitute(hess[:j + 1, :j + 1, cols], g[:j + 1, cols])
            shape = (b.shape[0], y.shape[1], b.shape[2])
            total = projections[:math.prod(shape)].reshape(shape)
            np.multiply(columns(basis[0], cols), y[0][:, None], out=total)
            for i in range(1, j + 1):
                total += np.multiply(columns(basis[i], cols), y[i][:, None],
                                     out=work.view("gather", shape))
            combined[:, cols] = total
        if not np.isfinite(estimate[~done]).all():
            return None
        previous[sel] = estimate
        running = running[~done]
        if running.size:
            fresh = work.view(f"krylov {j + 1}", b.shape)
            if running.size == k:  # no column finished: no gather, no scatter
                np.divide(w, norm_w[:, None], out=fresh)
            else:
                kept = np.flatnonzero(~done)
                part = columns(w, kept)
                fresh[:, running] = np.divide(part, norm_w[kept][:, None],
                                              out=part)
            basis.append(fresh)
    if running.size:
        return None
    return precondition(caller(combined))


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve upper[:, :, c] y[:, c] = rhs[:, c] for every column c."""
    y = np.empty_like(rhs)
    for i in range(rhs.shape[0] - 1, -1, -1):
        y[i] = (rhs[i] - np.einsum("lc,lc->c", upper[i, i + 1:], y[i + 1:])
                ) / upper[i, i]
    return y


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
    """Cached vertical-discretization pieces on tau in [-1, 0].

    Returns tau, d/dtau, d^2/dtau^2, the inverse Chebyshev Vandermonde
    matrix and the factor (1 + tau) d/dtau with zero Dirichlet rows, the
    tau part of the operator's first-order terms (`_profiles`).
    """
    t = chebyshev_gauss_lobatto(m)
    tau = 0.5 * (t - 1.0)
    d_tau = 2.0 * chebyshev_diff_matrix(m)  # d/dtau = 2 d/dt
    d_tau2 = d_tau @ d_tau
    vand_inv = np.linalg.inv(ncheb.chebvander(t, m))
    one_plus = 1.0 + tau
    one_plus[::m] = 0.0
    mixed_tau = one_plus[:, None] * d_tau
    for arr in (tau, d_tau, d_tau2, vand_inv, mixed_tau):
        arr.flags.writeable = False
    return tau, d_tau, d_tau2, vand_inv, mixed_tau


@lru_cache(maxsize=8)
def _interior_eigen(m: int):
    """Eigen-decomposition V diag(lam) V^-1 of the interior d^2/dtau^2 block.

    The block of rows and columns 1..m-1 of the collocated second
    derivative D (Dirichlet values eliminated) has real, distinct,
    negative eigenvalues, and V is well conditioned: cond(V) grows from
    1.4 at m = 8 to 2.7 at m = 128.  Returns lam and V and V^-1 padded
    for the flat-strip solves on whole tau rows: V with a zero row above
    and below, (m+1) x (m-1), and [-V^-1 D_ib[:, 0] | V^-1 | -V^-1
    D_ib[:, 1]], (m-1) x (m+1), whose end columns carry the coupling D_ib
    of the interior rows to the two Dirichlet values, at unit thickness.
    """
    d_tau2 = _vertical(m)[2]
    lam, vecs = np.linalg.eig(d_tau2[1:-1, 1:-1])
    vecs_inv = np.linalg.inv(vecs)
    vecs_pad = np.zeros((m + 1, m - 1))
    vecs_pad[1:-1] = vecs
    inv_pad = np.empty((m - 1, m + 1))
    inv_pad[:, 1:-1] = vecs_inv
    inv_pad[:, ::m] = -vecs_inv @ d_tau2[1:-1, ::m]
    for arr in (lam, vecs_pad, inv_pad):
        arr.flags.writeable = False
    return lam, vecs_pad, inv_pad


class WorkBuffers:
    """Kept scratch arrays of the layer applies, one per role.

    Each role keeps one flat buffer, grown to the largest size asked of it
    and never shrunk, and `view` carves a C-ordered view of any shape from
    its front; so blocks of every column count share one buffer, and a
    Krylov vector allocates no block.  The layer operators ask for at most
    one panel of BLOCK_COLUMNS columns (`LayerOperators._solve`).  A
    freshly allocated block costs more than its arithmetic: the allocator
    returns one of a megabyte to the kernel when it is freed, and the
    kernel zeroes its pages again on the next touch (README, "Memory").  A
    view is overwritten by the next request for its role, so a caller
    consumes it before then, and one set of buffers serves one thread.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def view(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[role] = np.empty(size)
        return buffer[:size].reshape(shape)


def _profiles(grid: CollocationGrid, eta_half, depth: float):
    """x-profiles entering the mapped operator's variable coefficients.

    Returns (q_mixed, q_tt_quad, q_tt_flat, q_t): on the interior rows the
    operator is

        u_xx + (1 + tau) (q_mixed d/dx + q_t) u_tau + c_tt u_tautau,
        c_tt = outer(q_tt_quad, (1 + tau)^2) + outer(q_tt_flat, 1).

    Its first-order terms are rank one in (x, tau), so on nodal values u
    (x rows, tau columns) they are the product X u M^T of the x factor
    X = diag(q_mixed) D1x + diag(q_t) and the tau factor
    M = diag(1 + tau) Dtau (`_vertical`).
    """
    h = eta_half + depth
    hx = grid.half_d1 @ eta_half
    hxx = grid.half_d2 @ eta_half
    p = hx / h
    return -2.0 * p, p * p, 1.0 / (h * h), -(hxx * h - 2.0 * hx * hx) / (h * h)


class LayerOperators:
    """Mapped-Laplace operator of one strip: wall at y = -depth, interface eta.

    Construction raises DegenerateStrip once the thickness eta + depth falls
    to GAP_FLOOR_FRACTION * depth at a half-grid node, the solver's
    degeneracy floor; an interface below the wall has negative thickness.
    It keeps only the variable coefficients, folded as `_profiles`
    describes: the x factor X of the first-order terms and the coefficient
    c_tt of u_tautau, zero on the Dirichlet rows.  `probe`, when given, is
    the interior point whose vertical derivative the operator reports
    (`eval_interior_dy`, `interior_dy_row`, `shape_batch`); its rows are
    computed on first use, which raises PointOutsideLayer for a point
    outside the strip.  A trace solve (`solve`) and the adjoint block
    behind `dno_matrix`, `shape_batch` and `interior_dy_row` run
    right-preconditioned GMRES on matrix-free applies, so neither a
    residual nor a Jacobian factors anything.  The dense operator is
    assembled and LU-factored only when the operator has fewer than
    KRYLOV_MIN_UNKNOWNS unknowns or a GMRES solve does not converge within
    KRYLOV_MAX vectors; every later solve on it then back-substitutes
    through the factors.  The applies and the GMRES solves write into
    `work`, the buffers shared with the caller's other operators, or into
    buffers of the operator's own when none are given.
    """

    def __init__(self, grid: CollocationGrid, depth: float, eta: EvenField,
                 m_vertical: int, work: WorkBuffers | None = None,
                 probe: tuple[float, float] | None = None):
        if not depth > 0:
            raise ValueError("depth must be positive")
        if eta.coeffs.size != grid.n_modes + 1:
            raise ValueError("elevation band does not match the grid")
        floor = GAP_FLOOR_FRACTION * depth
        eta_half = grid.even_values_half(eta)
        thinnest = float(np.min(eta_half + depth))
        if thinnest <= floor:
            raise DegenerateStrip(
                f"layer thickness fell to {thinnest:.3e}, "
                f"below the floor {floor:.3e}"
            )
        if m_vertical < 8:
            raise ValueError("vertical resolution must be at least 8")
        self.grid = grid
        self.depth = depth
        self.eta = eta
        self.eta_half = eta_half
        self.m_vertical = int(m_vertical)
        self.probe = probe
        self._work = WorkBuffers() if work is None else work
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        tau, d_tau, d_tau2, _, mixed_tau = _vertical(self.m_vertical)
        one_plus = 1.0 + tau

        q_mixed, q_tt_quad, q_tt_flat, q_t = _profiles(grid, eta_half, depth)
        rows = np.arange(nx) * mt
        self._interface_rows = rows
        self._replaced_rows = np.concatenate([rows, rows + mt - 1])
        self._one_plus = one_plus
        # the first-order terms X u M^T of `_profiles`
        self._mixed_x = q_mixed[:, None] * grid.half_d1
        self._mixed_x[np.diag_indices(nx)] += q_t
        self._mixed_tau = mixed_tau
        # zero on the two Dirichlet rows, which carry the identity, so
        # that the applies take the coefficient over whole tau rows
        self._c_tt = np.outer(q_tt_quad, one_plus**2) + q_tt_flat[:, None]
        self._c_tt[:, ::mt - 1] = 0.0
        self._d_tau = d_tau
        self._d_tau2 = d_tau2

    @cached_property
    def _factors(self):
        """(LU factors, Dirichlet-row scale) of the assembled operator."""
        grid = self.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1

        # column-major assembly: entry [(x,i),(k,j)] lives at at4[k,j,x,i],
        # so the reshaped transpose view hands LAPACK a Fortran-ordered
        # operator it can factorize fully in place
        at4 = np.empty((nx, mt, nx, mt))
        np.multiply(self._mixed_x.T[:, None, :, None],
                    self._mixed_tau.T[None, :, None, :], out=at4)
        dxx_t = grid.half_d2.T
        idx = np.arange(mt)
        at4[:, idx, :, idx] += dxx_t
        for j in range(nx):
            at4[j, :, j, :] += (self._c_tt[j][:, None] * self._d_tau2).T
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
        """Whether the LU factors exist; later solves back-substitute."""
        return "_factors" in self.__dict__

    # -- solves -------------------------------------------------------------

    def _block(self, u: np.ndarray) -> np.ndarray:
        """u as an (nx, k, mt) block; a vector (n,) is the block k = 1."""
        return u.reshape(self.grid.n_modes + 1, -1,
                         self.m_vertical + 1)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-free operator apply, Dirichlet rows replaced by identity.

        `u` is one vector (n,) or an (nx, k, mt) block (x node, column, tau
        node); the result has its shape and is a view of the work buffer
        "apply".  On each column w (x rows, tau columns) the interior rows
        are D2x w + X (w M^T) + c_tt (w D2tau^T), with the first-order
        factors X and M of `_profiles`: the x products run on the
        (nx, k mt) view and the tau products on the (nx k, mt) view, all on
        scipy's BLAS, and c_tt broadcasts over the columns.
        """
        grid = self.grid
        w = self._block(u)
        nx, _, mt = w.shape
        out = self._work.view("apply", w.shape)
        part = self._work.view("scratch", w.shape)
        _blas_product(grid.half_d2, w.reshape(nx, -1), out=out.reshape(nx, -1))
        _blas_product(w.reshape(-1, mt), self._mixed_tau.T,
                      out=part.reshape(-1, mt))
        _blas_product(self._mixed_x, part.reshape(nx, -1),
                      out=out.reshape(nx, -1), accumulate=True)
        _blas_product(w.reshape(-1, mt), self._d_tau2.T,
                      out=part.reshape(-1, mt))
        part *= self._c_tt[:, None, :]
        out += part
        out[:, :, 0] = w[:, :, 0]  # the interface
        out[:, :, -1] = w[:, :, -1]  # the wall
        return out.reshape(u.shape)

    def _apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Transpose of `_apply`, matrix-free, on the same shapes.

        `_apply` is A = P L + Q: the mapped operator L on the interior rows
        (projection P) and the identity on the Dirichlet rows (projection
        Q).  So A^T v = L^T P v + Q v, with, for a field w on the grid,

            L^T w = D2x^T w + X^T w M + (c_tt w) D2tau.

        M and c_tt vanish on the Dirichlet rows, so they read P v as v, and
        D2x^T P v vanishes there, where Q v puts v itself.  The x products
        run on the (nx, k mt) view and both tau products on the (nx k, mt)
        view, added into the result by BLAS, which is a view of the work
        buffer "apply".
        """
        grid = self.grid
        w = self._block(v)
        nx, _, mt = w.shape
        out = self._work.view("apply", w.shape)
        part = self._work.view("scratch", w.shape)
        _blas_product(grid.half_d2.T, w.reshape(nx, -1),
                      out=out.reshape(nx, -1))
        out[:, :, 0] = w[:, :, 0]
        out[:, :, -1] = w[:, :, -1]
        _blas_product(self._mixed_x.T, w.reshape(nx, -1),
                      out=part.reshape(nx, -1))
        _blas_product(part.reshape(-1, mt), self._mixed_tau,
                      out=out.reshape(-1, mt), accumulate=True)
        np.multiply(w, self._c_tt[:, None, :], out=part)
        _blas_product(part.reshape(-1, mt), self._d_tau2,
                      out=out.reshape(-1, mt), accumulate=True)
        return out.reshape(v.shape)

    @cached_property
    def _flat_strip(self):
        """(lam / h^2 - k^2, padded V^-1, padded V) of the flat strip.

        The per-mode denominators of the diagonalized interior blocks at
        the mean thickness h, one row per cosine mode k, the padded V^-1 of
        `_interior_eigen` with its two coupling columns divided by h^2, and
        its padded V; both preconditioner applies read them.
        """
        h2 = (self.eta.coeffs[0] + self.depth) ** 2
        lam, vecs_pad, inv_pad = _interior_eigen(self.m_vertical)
        inv_pad = inv_pad.copy()
        inv_pad[:, ::self.m_vertical] /= h2
        return (lam / h2 - self.grid.wavenumbers[:, None] ** 2, inv_pad,
                vecs_pad)

    def _flat_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the flat-strip preconditioner to a vector or a block.

        On a flat strip of thickness h, here the mean thickness, the mapped
        operator is u_xx + u_tautau / h^2, which the cosine transform in x
        splits into one Chebyshev boundary-value problem per mode k, with
        the same identity Dirichlet rows as the full operator.  Each keeps
        its two Dirichlet values and solves its interior rows by
        diagonalizing the interior block (`_interior_eigen`):
        u_i = V diag(1 / (lam / h^2 - k^2)) V^-1 (r_i - D_ib r_b / h^2).
        On whole tau rows these are the products with the transposes of
        the padded V^-1, whose end columns hold the coupling, and of the
        padded V.  `rhs` and the result are as in `_apply`; the result is a
        view of the work buffer "precondition".  The products run on
        scipy's BLAS.
        """
        grid = self.grid
        _, inv_pad, vecs_pad = self._flat_strip
        return self._flat_products(rhs, grid._cos_inv, inv_pad.T,
                                   vecs_pad.T, grid._cos_mat)

    def _flat_solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Transpose of `_flat_solve`, on the same shapes.

        `_flat_solve` is (C x I) T^-1 (C^-1 x I), C the cosine synthesis in
        x and T the per-mode blocks, so its transpose is
        (C^-T x I) T^-T (C^T x I).  Mode k's block has identity Dirichlet
        rows b and the interior rows [D_ib / h^2, S], S = D_ii / h^2 - k^2
        with D the collocated d^2/dtau^2; so T^-T r has the interior part
        S^-T r_i = V^-T diag(1 / (lam / h^2 - k^2)) V^T r_i and the
        Dirichlet part r_b - D_ib^T (S^-T r_i) / h^2.  On whole tau rows
        these are the products with the padded V and with the padded V^-1,
        whose end columns give the Dirichlet part.  The result is a view of
        the work buffer "precondition"; the products run on scipy's BLAS.
        """
        grid = self.grid
        _, inv_pad, vecs_pad = self._flat_strip
        return self._flat_products(rhs, grid._cos_mat.T, vecs_pad, inv_pad,
                                   grid._cos_inv.T)

    def _flat_products(self, rhs: np.ndarray, first: np.ndarray,
                       to_modes: np.ndarray, from_modes: np.ndarray,
                       last: np.ndarray) -> np.ndarray:
        """The flat-strip solve or its transpose, given its four operands.

        `first` and `last` act in x, `to_modes` and `from_modes` in tau."""
        r = self._block(rhs)
        nx, k, mt = r.shape
        out = self._work.view("precondition", r.shape)
        inner = self._work.view("scratch", (nx, k, mt - 2))
        u = self._work.view("scratch2", r.shape)
        _blas_product(first, r.reshape(nx, -1), out=out.reshape(nx, -1))
        _blas_product(out.reshape(-1, mt), to_modes,
                      out=inner.reshape(-1, mt - 2))
        inner /= self._flat_strip[0][:, None, :]
        _blas_product(inner.reshape(-1, mt - 2), from_modes,
                      out=u.reshape(-1, mt))
        u[:, :, 0] += out[:, :, 0]
        u[:, :, -1] += out[:, :, -1]
        _blas_product(last, u.reshape(nx, -1), out=out.reshape(nx, -1))
        return out.reshape(rhs.shape)

    def _solve_rhs(self, rhs: np.ndarray, transposed: bool = False
                   ) -> np.ndarray:
        """A^-1 rhs, or A^-T rhs, through the scaled LU factors.

        The factors hold S A, S scaling the Dirichlet rows: A x = rhs is
        (S A) x = S rhs, and A^T x = rhs is (S A)^T y = rhs with x = S y.
        """
        lu, scale = self._factors
        if transposed:
            out = sla.lu_solve(lu, rhs, trans=1, check_finite=False)
            out[self._replaced_rows] *= scale
        else:
            scaled = rhs.copy()
            scaled[self._replaced_rows] *= scale
            out = sla.lu_solve(lu, scaled, check_finite=False)
        if not np.all(np.isfinite(out)):
            raise LinearSolveFailure("layer solve produced non-finite entries")
        return out

    def _solve(self, rhs: np.ndarray, transposed: bool = False,
               guess: np.ndarray | None = None) -> np.ndarray:
        """A^-1 rhs, or A^-T rhs: GMRES, or the LU path.

        `rhs` is a vector (n,) or an (nx, k, mt) block, as in `_apply`; the
        result is a fresh array of its shape.  GMRES runs on the block as
        ceil(k / BLOCK_COLUMNS) near-equal panels of columns, one `gmres`
        call each, and each panel's solution is copied once, into its
        columns of the result; a vector is the one-column block.  A vector
        `guess` u0 makes GMRES solve for the correction, A d = rhs - A u0,
        to the stopping rule scaled by |rhs| / |rhs - A u0|, so that the
        residual it leaves is as small as a solve from zero leaves; a guess
        no better than zero is ignored.  LU serves operators below
        KRYLOV_MIN_UNKNOWNS, operators already factored, and the whole
        right-hand side once any panel misses; it takes the block's columns
        as nodal (n, k) columns and ignores the guess.
        """
        unknowns = (self.grid.n_modes + 1) * (self.m_vertical + 1)
        if unknowns >= KRYLOV_MIN_UNKNOWNS and not self.factored:
            apply, precondition = (
                (self._apply_transpose, self._flat_solve_transpose)
                if transposed else (self._apply, self._flat_solve))
            start, target, relax = 0.0, rhs, 1.0
            if guess is not None:
                correction = rhs - apply(guess)
                size, left = np.linalg.norm(rhs), np.linalg.norm(correction)
                if 0.0 < left < size:  # false for rhs = 0 or a nan guess
                    start, target, relax = guess, correction, size / left
            out = np.empty(rhs.shape)
            out_block, rhs_block = self._block(out), self._block(target)
            k = out_block.shape[1]
            panels = math.ceil(k / BLOCK_COLUMNS)
            for i in range(panels):
                panel = slice(k * i // panels, k * (i + 1) // panels)
                solved = gmres(apply, precondition, rhs_block[:, panel],
                               KRYLOV_MAX, relax * KRYLOV_TOL,
                               relax * KRYLOV_FLOOR, self._work)
                if solved is None or not np.all(np.isfinite(solved)):
                    break
                out_block[:, panel] = solved
            else:
                out += start
                return out
        if rhs.ndim == 1:
            return self._solve_rhs(rhs, transposed)
        nx, k, mt = rhs.shape
        out = self._solve_rhs(
            rhs.transpose(0, 2, 1).reshape(nx * mt, k), transposed)
        return np.ascontiguousarray(out.reshape(nx, mt, k).transpose(0, 2, 1))

    def solve(self, trace: EvenField, guess: np.ndarray | None = None
              ) -> np.ndarray:
        """Nodal values (x node, tau node) of a trace's harmonic extension.

        `guess`, nodal values of the same shape, typically this strip's
        solution at a nearby state, starts GMRES: it solves for the
        correction to the guess and stops once the residual is as small,
        in absolute terms, as a solve from zero would leave it
        (`_solve`).  A guess whose residual is no smaller than the right
        hand side's is ignored, and so is any guess on the LU path.
        """
        grid = self.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        if trace.coeffs.size != nx:
            raise ValueError("trace band does not match the grid")
        rhs = np.zeros(nx * mt)
        rhs[self._interface_rows] = grid.even_values_half(trace)
        return self._solve(
            rhs, guess=None if guess is None else guess.ravel()
        ).reshape(nx, mt)

    # -- interface extraction -------------------------------------------------

    def _extraction(self, eta_half, u_tau_ifc, u_x_ifc):
        """Outward interface derivative from interface traces of u_tau, u_x."""
        h = eta_half + self.depth
        ex = self.grid.half_d1 @ eta_half
        return (1.0 + ex * ex) * u_tau_ifc / h - ex * u_x_ifc

    def _interface_tau_x(self, u_values):
        u_tau_ifc = u_values @ self._d_tau[0]
        u_x_ifc = self.grid.half_d1 @ u_values[:, 0]
        return u_tau_ifc, u_x_ifc

    def dno_values_half(self, values: np.ndarray) -> np.ndarray:
        u_tau_ifc, u_x_ifc = self._interface_tau_x(values)
        return self._extraction(self.eta_half, u_tau_ifc, u_x_ifc)

    def dno_matrix(self) -> np.ndarray:
        """Trace coefficients -> Dirichlet-to-Neumann coefficients.

        A solve keeps the trace as its interface values, so their x
        derivative needs no solve, and the interface u_tau of the solve for
        trace coefficients c is E A^-1 B c = Z^T B c, B placing the trace's
        half-grid values on the interface rows (Z from `_adjoint_block`).
        """
        grid = self.grid
        nx = grid.n_modes + 1
        u_tau_ifc = self._adjoint_block[:, :nx, 0].T @ grid._cos_mat
        vals = self._extraction(self.eta_half[:, None],
                                u_tau_ifc, grid.half_d1 @ grid._cos_mat)
        return grid._cos_inv @ vals

    @cached_property
    def _adjoint_block(self) -> np.ndarray:
        """Z = A^-T [E^T | e]: the transposed solves behind the Jacobian.

        E maps a solution to its interface u_tau (row j: d_tau[0] on the
        nodes above x_j), and e, present when the operator has a probe, to
        its vertical derivative there.  Everything the Jacobian reads from
        a layer is one of these functionals of a solve A^-1 r, that is
        Z^T r: the Dirichlet-to-Neumann matrix, the shape derivatives and
        the interior-derivative row.  GMRES solves the columns a panel at a
        time on `_apply_transpose`, right-preconditioned by
        `_flat_solve_transpose`, unless `_solve` takes the LU path.  The
        block is (nx, k, mt): column c of Z is Z[:, c, :].  It is solved
        once, on first use, and read-only.
        """
        nx = self.grid.n_modes + 1
        mt = self.m_vertical + 1
        rhs = np.zeros((nx, nx + (self.probe is not None), mt))
        rhs[np.arange(nx), np.arange(nx)] = self._d_tau[0]
        if self.probe is not None:
            row_x, t_rows, h = self._probe_rows
            rhs[:, nx] = np.outer(row_x, (2.0 / h) * t_rows[1])
        z = self._solve(rhs, transposed=True)
        z.flags.writeable = False  # shared by every caller
        return z

    # -- interior evaluation ---------------------------------------------------

    @cached_property
    def _probe_rows(self):
        """`_point_rows` of the probe."""
        return self._point_rows(self.probe)

    def _point_rows(self, point):
        """(x row, t-derivative rows, h) of an interior point (x, y).

        For nodal values u, row_x @ u @ t_rows[n] is the n-th derivative in
        t = 2 tau + 1 at the point, n = 0, 1, 2; h is the layer thickness
        above x.  Raises PointOutsideLayer unless the point lies strictly
        inside the layer.
        """
        x, y = float(point[0]), float(point[1])
        grid = self.grid
        h = grid.evaluate_even(self.eta, np.array([x]))[0] + self.depth
        tau = (y + self.depth) / h - 1.0
        if not -1.0 < tau < 0.0:
            raise PointOutsideLayer(
                f"point {(x, y)} is not strictly inside the layer"
            )
        # T_j(t) and its first two derivatives from T_{j+1} = 2 t T_j - T_{j-1}
        # differentiated, then through the inverse Vandermonde
        t = 2.0 * tau + 1.0
        t0, t1, t2 = [1.0, t], [0.0, 1.0], [0.0, 0.0]
        for j in range(1, self.m_vertical):
            t0.append(2.0 * t * t0[j] - t0[j - 1])
            t1.append(2.0 * t * t1[j] - t1[j - 1] + 2.0 * t0[j])
            t2.append(2.0 * t * t2[j] - t2[j - 1] + 4.0 * t1[j])
        t_rows = np.array([t0, t1, t2]) @ _vertical(self.m_vertical)[3]
        return np.cos(grid.wavenumbers * x) @ grid._cos_inv, t_rows, h

    def eval_interior(self, values: np.ndarray, point) -> float:
        """Solution value at an interior point."""
        row_x, t_rows, _ = self._point_rows(point)
        return float(row_x @ values @ t_rows[0])

    def eval_interior_dy(self, values: np.ndarray, point=None) -> float:
        """Vertical derivative of a solution at an interior point, by
        default the probe."""
        row_x, t_rows, h = (self._probe_rows if point is None
                            else self._point_rows(point))
        return float(2.0 * (row_x @ values @ t_rows[1]) / h)

    def interior_dy_row(self) -> np.ndarray:
        """Row functional: trace coefficients -> vertical derivative at the
        probe."""
        nx = self.grid.n_modes + 1
        return self._adjoint_block[:, nx, 0] @ self.grid._cos_mat

    # -- directional shape derivatives ----------------------------------------

    def shape_batch(self, values: np.ndarray):
        """Directional derivatives along every elevation cosine mode.

        The operator's coefficients are the `_profiles` of h, h_x and h_xx.
        Along a direction dh, with p = h_x / h and dp = (dh_x - p dh) / h,
        they move by -2 dp, 2 p dp, -2 dh / h^3 and
        (h_xx dh / h - dh_xx) / h + 4 p dp.  The solution moves by
        du = -A^-1 R, R the differentiated operator applied to the solution.
        R has zero Dirichlet rows, so du keeps zero interface values, and
        both its interface u_tau and its interior derivative at the probe
        are columns of -Z^T R (`_adjoint_block`).  R is never formed: at x
        node j and tau node i, R[j, i, k] = sum_t f_t[j, k] g_t[j, i] over
        the four terms, f_t the coefficient moves along direction k and g_t
        the solution derivatives they multiply, times their tau profiles
        and zero on the Dirichlet rows.  So -Z^T R is -sum_t Y_t^T f_t with
        Y[j] = Z[j] G[j], G[j] holding the g_t[j] as columns: nx small
        products, then one.  The interface extraction and the probe
        functional 2 u_t / h, whose t = 2 (y + d) / h - 1 moves with h, add
        their own derivatives in closed form.  Returns (dno_dirs,
        interior_dy_dirs) where dno_dirs[:, k] holds half-grid values of
        the derivative of the interface extraction and interior_dy_dirs[k]
        the derivative of the vertical derivative at the probe (None
        without one), for the solution `values`.
        """
        grid = self.grid
        nx = grid.n_modes + 1
        one_plus = self._one_plus
        w_d = values @ self._d_tau.T
        w_dd = values @ self._d_tau2.T

        # h and its x derivatives as columns; direction k is cosine mode k
        e = self.eta_half[:, None]
        h, hx, hxx = e + self.depth, grid.half_d1 @ e, grid.half_d2 @ e
        dh = grid._cos_mat
        dhx, dhxx = grid.half_d1 @ dh, grid.half_d2 @ dh
        p = hx / h
        dp = (dhx - p * dh) / h
        f = np.stack([-2.0 * dp, 2.0 * p * dp, -2.0 * dh / h**3,
                      (hxx * dh / h - dhxx) / h + 4.0 * p * dp], axis=1)
        g = np.stack([one_plus * (grid.half_d1 @ w_d), one_plus**2 * w_dd,
                      w_dd, one_plus * w_d], axis=1)
        g[:, :, ::self.m_vertical] = 0.0  # no geometry on the Dirichlet rows
        z = self._adjoint_block
        y = np.empty((nx, 4, z.shape[1]))
        for j in range(nx):
            _blas_product(g[j], z[j].T, out=y[j])
        moved = -_blas_product(y.reshape(4 * nx, -1).T, f.reshape(4 * nx, nx))

        u_tau, u_x = (v[:, None] for v in self._interface_tau_x(values))
        dno_dirs = ((1.0 + hx * hx) * (moved[:nx] - u_tau * dh / h) / h
                    + (2.0 * hx * u_tau / h - u_x) * dhx)
        if self.probe is None:
            return dno_dirs, None

        x_p, y_p = self.probe
        row_x, t_rows, h_p = self._probe_rows
        u_t, u_tt = t_rows[1:] @ (row_x @ values)
        # d/dh of 2 u_t / h, with dt/dh = -(t + 1) / h, at h = eta(x_p) + d
        t_plus_1 = 2.0 * (float(y_p) + self.depth) / h_p
        d_dh = -2.0 * (u_t + t_plus_1 * u_tt) / h_p**2
        return dno_dirs, moved[nx] + d_dh * np.cos(
            grid.wavenumbers * float(x_p))


def _blas_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                  accumulate: bool = False) -> np.ndarray:
    """a @ b on scipy's BLAS; C- or Fortran-ordered operands are not copied.

    With `out`, a C-ordered array of the product's shape, the product is
    written into it, or added to it when `accumulate` (dgemm's beta = 1),
    and `out` is returned.  numpy's products run on numpy's own OpenBLAS
    pool, whose threads, once woken, keep spinning against scipy's LAPACK
    calls (README, "Threads").  Fortran BLAS computes the transposed
    product b^T a^T, in which a C-ordered operand's transpose is
    Fortran-ordered, and so is that of `out`.
    """
    at, trans_a = (a.T, 0) if a.flags.c_contiguous else (a, 1)
    bt, trans_b = (b.T, 0) if b.flags.c_contiguous else (b, 1)
    if out is None:
        return dgemm(1.0, bt, at, trans_a=trans_b, trans_b=trans_a).T
    dgemm(1.0, bt, at, beta=float(accumulate), c=out.T, trans_a=trans_b,
          trans_b=trans_a, overwrite_c=True)
    return out


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
