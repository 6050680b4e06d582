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

Every solve is matrix-free and built on the flat strip M at the layer's
mean thickness.  The flat strip separates into one Chebyshev boundary-value
problem per cosine mode, and all of them share the interior block of
d^2/dtau^2, which is diagonalized once per vertical resolution; so an
operator keeps only its per-mode denominators and Dirichlet coupling, and
applying the preconditioner costs two products with the eigenvector
matrices, padded to whole tau rows, besides the cosine transforms.  Since
the cosine synthesis turns -k^2 into the collocated d^2/dx^2, M shares A's
u_xx term, its Dirichlet rows and, with 1/h^2 for c_tt, its u_tautau term;
so A M^-1 = I + delta M^-1, with delta = A - M the first-order terms and
(c_tt - 1/h^2) u_tautau on the interior rows and zero on the Dirichlet rows
(`_deviation`; Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981, for the same
saving in a split preconditioner).  Under that split a Richardson step x <-
x - M^-1 d on the defect d = A x - b is exact bookkeeping: the defect it
leaves is -delta(M^-1 d), so a step costs the two products of one Krylov
vector and none of GMRES's basis, orthogonalization, rotations or closing
flat solve.  Every trace solve and adjoint panel runs one loop,
`_stationary`: such steps, each column stopping on its defect at GMRES's
own rule, for as long as each correction M^-1 d is at most KRYLOV_STALL
times the one before.  The split is far from normal, so a step that
shrinks the error may still grow the defect; the correction is what is
judged.  A step whose correction fails that test with its defect above the
floor, or that turns a defect non-finite, is not applied, and where the
second correction outgrows the first, the first step is undone too; GMRES
(Saad & Schultz 1986) then takes the running columns on from the iterate
left, on v + delta(M^-1 v), one x product and the Dirichlet rows cheaper
than A(M^-1 v), adding M^-1 of its result; and where GMRES misses, one LU
step x <- x - A^-1 d from the iterate GMRES started from.  Below
KRYLOV_MIN_UNKNOWNS, or once factored, an operator takes the LU step
alone, from an adjoint panel's start or from zero.  A trace solve, the
only solve a residual needs, solves with A, not its transpose.  It may
start from a guess u0, the same strip's nodal values at a nearby state,
to the same absolute stopping rule as a solve from zero; a guess no
better than zero is ignored, and so is any on an operator that takes the
LU step alone.  Everything the Jacobian reads from a layer (the
Dirichlet-to-Neumann matrix, the directional shape derivatives and the
interior-derivative row) is a functional of a solve, either the interface
u_tau or the vertical derivative at the probe, so one adjoint block
Z = A^-T [E^T | e] of N + 1 columns, and one more with a probe, serves all
three; it is solved once per operator, on the transposes of delta and of
the preconditioner.  Its flat counterpart Z0 = M^-T [E^T | e] is a
closed form (`flat_adjoint_block`): each column of [E^T | e] is rank one
in (x, tau), so M^-T maps it to the cosine synthesis C times per-mode tau
profiles P (`_flat_profiles`), one product per panel and no solve.  It is
Z on a flat strip and the first step from zero elsewhere.  Along a branch
Z - Z0 grows with the elevation, so every panel of Z starts from Z0 plus
the last point's Z - Z0, scaled, where the caller hands one over
(`track_adjoint_deviation`), on every operator alike; the start's defect
is A^T times it less [E^T | e], whose panels, like their norms, are closed
forms, so no solve forms [E^T | e] whole.  Read in the place of Z, Z0
gives the Jacobian's layer products of the flat strip at the layer's mean
thickness, which the continuation corrector factors as the chord of its
fixed-strength solve.  The chord takes them from P without forming Z0 (the
`flat` switch of `dno_matrix`, `interior_dy_row` and `shape_batch`): Z0's
interface row is C^-T diag(P[:, 0]) C^T, and the shape products contract
the four tau rows of each x node with P before the one product with C^T
(`_shape_products`).

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
also hold the iterate and defect of the steps and the Krylov basis of
GMRES, so that neither a step nor a Krylov vector allocates a block.  A
block is solved a panel of at most BLOCK_COLUMNS columns at a time, so
every role holds at most one panel.

The explicit terms of the shape derivatives, those of the operator's
coefficient profiles, of the interface extraction and of the vertical
derivative at the probe, are closed forms in (h, h_x, h_xx) and h at the
probe, so no difference step enters the Jacobian.  One row helper,
`_point_rows`, computed once for the probe, gives the vertical derivative
there to its evaluation, its adjoint column and its shape derivative.
The LU step factors the assembled operator densely the first time it is
taken and keeps the factors.  The GMRES loop
itself, `gmres`, takes the apply, into which each caller folds its right
preconditioner, the stop and the caller's buffers, and one right-hand
side or a block of them; the continuation corrector runs it on the
bordered Newton system, the factors of its chord folded into the
difference products.

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

#: unknown count nx * mt below which a layer solves by its LU step alone,
#: for trace solves and the adjoint block alike: on grids this small an
#: iterative step costs about as much whatever its length, and assembly
#: plus LU costs less than the steps and vectors of a solve
KRYLOV_MIN_UNKNOWNS = 500

#: Krylov vectors a GMRES solve may build per column before the LU step
#: finishes it
KRYLOV_MAX = 40

#: columns of one panel solve: `LayerOperators._adjoint_block` runs its
#: block as near-equal panels of at most this many, and so does
#: `LayerOperators.flat_adjoint_block`, so every `WorkBuffers` role, the
#: Krylov basis and the Hessenberg and rotation arrays among them, holds
#: one panel, not the block
BLOCK_COLUMNS = 22

#: GMRES stopping rule on the relative residual estimate: converged below
#: KRYLOV_TOL, or below KRYLOV_FLOOR once one vector cuts the estimate by
#: less than the factor KRYLOV_STALL (stagnation at roundoff).  The
#: Richardson steps before GMRES (`LayerOperators._stationary`) stop on
#: their defect by the same rule, with the stagnation judged on their
#: correction: a step whose correction is more than KRYLOV_STALL times the
#: last one, above KRYLOV_FLOOR, hands the solve to GMRES
KRYLOV_TOL = 1e-14
KRYLOV_FLOOR = 1e-12
KRYLOV_STALL = 0.5

#: the strip counts as degenerate once min h falls below this fraction of depth
GAP_FLOOR_FRACTION = 0.02


def gmres(apply, rhs: np.ndarray, max_vectors: int, tol: float | np.ndarray,
          floor: float | np.ndarray, work: WorkBuffers) -> np.ndarray | None:
    """GMRES for apply(x) = rhs; None when it misses.

    `rhs` is one vector (n,) or a block (a, k, b) of k independent
    right-hand sides, column c being rhs[:, c, :], and apply maps arrays of
    its shape to arrays of its shape; it may return a view of its own
    buffers, consumed before its next call.  A caller folds any right
    preconditioner M^-1 into `apply` and applies it to the result.  Each
    column builds at most `max_vectors` Krylov vectors and stops on its
    own Arnoldi estimate of the relative residual: below `tol`, or below
    `floor` once one more vector cuts the estimate by less than the factor
    KRYLOV_STALL (numbers, or one entry per column).  A zero column, and
    one whose `tol` is at least 1, the estimate before any vector, starts
    and stays at the zero vector and takes no rotation: its result is
    exactly zero.  Every column joins every Arnoldi step until the last
    one stops; a column that stops keeps its back-substituted coefficients
    ("coefficients"), and one combination of the basis ("krylov i") forms
    every column ("combined") at the end.  The Gram-Schmidt scratch, the
    Hessenberg matrix, the rotations and the rotated right-hand side are
    the `work` roles "gram-schmidt", "hessenberg", "rotations" and "givens
    rhs", sized by the call's column count.  `rhs` is read before the first
    `apply`, so it may be a view of a buffer that `apply` overwrites, and a
    one-column block runs exactly as the vector does.  Returns the solution
    in the layout of `rhs`, a view of "combined", or None when a running
    column's estimate turns non-finite or a column runs out of vectors.
    """
    b = rhs.reshape(1, 1, -1) if rhs.ndim == 1 or rhs.shape[1] == 1 else rhs
    k = b.shape[1]
    tol, floor = np.broadcast_to(tol, (k,)), np.broadcast_to(floor, (k,))
    beta = _column_norms(b)
    # zero solves a zero column, and one whose tol admits the estimate 1:
    # such a column starts from, and keeps, the zero vector
    running = (beta > 0.0) & (tol < 1.0)
    scale = np.where(running, beta, np.inf)
    # a column's Hessenberg and g entries are written before they are
    # read, so neither is zeroed
    hess = work.view("hessenberg", (max_vectors + 1, max_vectors, k))
    g = work.view("givens rhs", (max_vectors + 1, k))
    g[0] = beta
    # the product Q^T of the Givens rotations so far, applied to each new
    # Hessenberg column at once rather than one rotation after another;
    # it reads the zeros above its band, so each row is zeroed as it is
    # added
    rot = work.view("rotations", (max_vectors + 1, max_vectors + 1, k))
    rot[0].fill(0.0)
    rot[0, 0] = 1.0
    previous = np.ones(k)
    # a column's coefficients past its stop stay zero
    coefficients = work.view("coefficients", (max_vectors, k))
    coefficients.fill(0.0)
    projections = work.view("gram-schmidt", b.shape)
    basis = [np.divide(b, scale[:, None], out=work.view("krylov 0", b.shape))]
    for j in range(max_vectors):
        if not running.any():
            break
        w = apply(basis[j].reshape(rhs.shape)).reshape(b.shape)
        for i in range(j + 1):  # modified Gram-Schmidt
            dots = np.einsum("akb,akb->k", basis[i], w)
            hess[i, j] = dots
            w -= np.multiply(basis[i], dots[:, None], out=projections)
        norm_w = _column_norms(w)
        col = np.einsum("ila,la->ia", rot[:j + 1, :j + 1], hess[:j + 1, j])
        rad = np.hypot(col[j], norm_w)
        # a column that does not run has rad = |w| = 0: it takes no
        # rotation; on a running column 0 / 0 ends the solve below
        rad[~running & (rad == 0.0)] = 1.0
        c, s = col[j] / rad, norm_w / rad  # the new rotation, rows j, j + 1
        col[j] = rad
        hess[:j + 1, j] = col
        last = rot[j][:j + 1]
        rot[j + 1].fill(0.0)
        rot[j + 1][:j + 1] = -s * last
        rot[j][:j + 1] = c * last
        rot[j, j + 1] = s
        rot[j + 1, j + 1] = c
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]
        estimate = np.abs(g[j + 1]) / scale
        if not np.isfinite(estimate[running]).all():
            return None
        done = running & ((estimate <= tol) | (
            (estimate <= floor) & (estimate > KRYLOV_STALL * previous)))
        if done.any():
            coefficients[:j + 1, done] = _back_substitute(
                hess[:j + 1, :j + 1, done], g[:j + 1, done])
            running &= ~done
        previous = estimate
        if running.any():
            norm_w[norm_w == 0.0] = 1.0  # a zero w stays zero
            basis.append(np.divide(w, norm_w[:, None],
                                   out=work.view(f"krylov {j + 1}", b.shape)))
    if running.any():
        return None
    combined = np.multiply(basis[0], coefficients[0][:, None],
                           out=work.view("combined", b.shape))
    for i in range(1, len(basis)):
        combined += np.multiply(basis[i], coefficients[i][:, None],
                                out=projections)
    return combined.reshape(rhs.shape)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column x[:, c] of an (a, k, b) block."""
    return np.sqrt(np.einsum("akb,akb->k", x, x))


def _panels(k: int):
    """ceil(k / BLOCK_COLUMNS) near-equal slices that cover k columns."""
    count = math.ceil(k / BLOCK_COLUMNS)
    return [slice(k * i // count, k * (i + 1) // count) for i in range(count)]


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
    one panel of BLOCK_COLUMNS columns (`LayerOperators._adjoint_block`).  A
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
    outside the strip.  A trace solve (`solve`) and each panel of the
    adjoint block behind `dno_matrix`, `shape_batch` and
    `interior_dy_row` run one loop on matrix-free applies, `_stationary`,
    which factors the operator only when it has fewer than
    KRYLOV_MIN_UNKNOWNS unknowns or GMRES misses within KRYLOV_MAX
    vectors; every later solve on it is then one LU step.
    The applies, the steps and the GMRES solves write into
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
        # the preconditioner's flat strip has the mean thickness; its
        # u_tautau coefficient is 1/h^2 (`_deviation`)
        self._mean_h2 = (eta.coeffs[0] + depth) ** 2
        self._c_tt_deviation = self._c_tt - 1.0 / self._mean_h2
        self._c_tt_deviation[:, ::mt - 1] = 0.0
        self._d_tau = d_tau
        self._d_tau2 = d_tau2
        # Z - Z0 of the adjoint block, kept when the caller asks
        # (`track_adjoint_deviation`)
        self.adjoint_deviation: np.ndarray | None = None

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
        are D2x w plus the variable terms of `_variable`, the x product on
        the (nx, k mt) view on scipy's BLAS.
        """
        w = self._block(u)
        nx = w.shape[0]
        out = self._work.view("apply", w.shape)
        _blas_product(self.grid.half_d2, w.reshape(nx, -1),
                      out=out.reshape(nx, -1))
        self._variable(w, self._c_tt, out, accumulate=True)
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
        D2x^T P v vanishes there, where Q v puts v itself.  The x product
        runs on the (nx, k mt) view, and `_variable_transpose` adds the
        rest; the result is a view of the work buffer "apply".
        """
        w = self._block(v)
        nx = w.shape[0]
        out = self._work.view("apply", w.shape)
        _blas_product(self.grid.half_d2.T, w.reshape(nx, -1),
                      out=out.reshape(nx, -1))
        out[:, :, 0] = w[:, :, 0]
        out[:, :, -1] = w[:, :, -1]
        self._variable_transpose(w, self._c_tt, out, accumulate=True)
        return out.reshape(v.shape)

    def _variable(self, w: np.ndarray, c_tt: np.ndarray, out: np.ndarray,
                  accumulate: bool = False) -> None:
        """X w M^T + c_tt (w D2tau^T) on an (nx, k, mt) block w, into out.

        The first-order terms of `_profiles`, M their tau factor, and a
        u_tautau coefficient c_tt, zero on the Dirichlet rows, as both are:
        `_apply` passes the operator's own and `_deviation` the part that
        differs from the flat strip's.  The tau products run on the
        (nx k, mt) view and the x product on the (nx, k mt) view, on
        scipy's BLAS; c_tt broadcasts over the columns, and the result is
        written into `out`, or added to it when `accumulate`.
        """
        nx, _, mt = w.shape
        part = self._work.view("scratch", w.shape)
        _blas_product(w.reshape(-1, mt), self._mixed_tau.T,
                      out=part.reshape(-1, mt))
        _blas_product(self._mixed_x, part.reshape(nx, -1),
                      out=out.reshape(nx, -1), accumulate=accumulate)
        _blas_product(w.reshape(-1, mt), self._d_tau2.T,
                      out=part.reshape(-1, mt))
        part *= c_tt[:, None, :]
        out += part

    def _variable_transpose(self, w: np.ndarray, c_tt: np.ndarray,
                            out: np.ndarray, accumulate: bool = False
                            ) -> None:
        """Transpose of `_variable`: X^T w M + (c_tt w) D2tau, into out.

        The x product runs on the (nx, k mt) view and both tau products on
        the (nx k, mt) view, on scipy's BLAS, written into `out`, or added
        to it when `accumulate`.
        """
        nx, _, mt = w.shape
        part = self._work.view("scratch", w.shape)
        _blas_product(self._mixed_x.T, w.reshape(nx, -1),
                      out=part.reshape(nx, -1))
        _blas_product(part.reshape(-1, mt), self._mixed_tau,
                      out=out.reshape(-1, mt), accumulate=accumulate)
        np.multiply(w, c_tt[:, None, :], out=part)
        _blas_product(part.reshape(-1, mt), self._d_tau2,
                      out=out.reshape(-1, mt), accumulate=True)

    def _deviation(self, u: np.ndarray, transposed: bool = False
                   ) -> np.ndarray:
        """delta = A - M, or its transpose, on a vector or a block.

        M is the flat strip of the preconditioner (`_flat_solve`): on the
        interior rows D2x w + (w D2tau^T) / h^2, h the mean thickness, since
        the cosine synthesis turns -k^2 into D2x, and the identity on the
        Dirichlet rows.  So delta is `_variable` with the coefficient
        c_tt - 1/h^2, zero on the Dirichlet rows, and A M^-1 = I +
        delta M^-1.  Shapes are as in `_apply`; the result is a view of the
        work buffer "apply".
        """
        w = self._block(u)
        out = self._work.view("apply", w.shape)
        terms = self._variable_transpose if transposed else self._variable
        terms(w, self._c_tt_deviation, out)
        return out.reshape(u.shape)

    @cached_property
    def _flat_strip(self):
        """(lam / h^2 - k^2, padded V^-1, padded V) of the flat strip.

        The per-mode denominators of the diagonalized interior blocks at
        the mean thickness h, one row per cosine mode k, the padded V^-1 of
        `_interior_eigen` with its two coupling columns divided by h^2, and
        its padded V; both preconditioner applies read them.
        """
        h2 = self._mean_h2
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

        `rhs` is a vector (n,), nodal columns (n, k) or an (nx, k, mt)
        block as in `_apply`, and the result a fresh array of its layout.
        The factors hold S A, S scaling the Dirichlet rows: A x = rhs is
        (S A) x = S rhs, and A^T x = rhs is (S A)^T y = rhs with x = S y.
        """
        if rhs.ndim == 3:  # the block's columns as nodal columns
            nx, k, mt = rhs.shape
            out = self._solve_rhs(
                rhs.transpose(0, 2, 1).reshape(nx * mt, k), transposed)
            return np.ascontiguousarray(
                out.reshape(nx, mt, k).transpose(0, 2, 1))
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

    def _preconditioned(self, v: np.ndarray) -> np.ndarray:
        """A M^-1 v = v + delta M^-1 v (`_deviation`), a view of the work
        buffer "apply": the operator GMRES runs on."""
        out = self._deviation(self._flat_solve(v))
        out += v
        return out

    def _preconditioned_transpose(self, v: np.ndarray) -> np.ndarray:
        """A^T M^-T v = v + delta^T M^-T v, as `_preconditioned`."""
        out = self._deviation(self._flat_solve_transpose(v), transposed=True)
        out += v
        return out

    @property
    def _direct(self) -> bool:
        """Whether `_stationary` solves by its LU step alone: fewer than
        KRYLOV_MIN_UNKNOWNS unknowns, or LU factors already made."""
        unknowns = (self.grid.n_modes + 1) * (self.m_vertical + 1)
        return unknowns < KRYLOV_MIN_UNKNOWNS or self.factored

    def _richardson_step(self, defect: np.ndarray, transposed: bool = False
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(u, delta u) for u = M^-1 d, or (u, delta^T u) for u = M^-T d.

        An iterate x with the defect d = A x - b moves to x - u, whose
        defect is d - (M + delta) u = -delta u, exactly: one step costs the
        two products of a GMRES vector.  The two are views of the work
        buffers "precondition" and "apply".
        """
        flat_solve = (self._flat_solve_transpose if transposed
                      else self._flat_solve)
        u = flat_solve(defect)
        return u, self._deviation(u, transposed)

    def _stationary(self, iterate: np.ndarray, defect: np.ndarray,
                    size: np.ndarray | None, transposed: bool = False
                    ) -> None:
        """Solve A x = b, or A^T x = b, in place from x = `iterate`.

        `iterate` is a vector or a contiguous (nx, k, mt) panel, `defect`
        its A x - b, and `size` the array of |b_c|, one per column.  On an
        operator that solves directly (`_direct`) the loop is one LU step,
        x <- x - A^-1 d (`_solve_rhs`), and `size` may be None.  Elsewhere
        Richardson steps on the flat-strip split (`_richardson_step`) run
        while each correction u = M^-1 d, or M^-T d, is at most
        KRYLOV_STALL times the last one in every running column, and each
        column stops at GMRES's own rule on its defect: |d_c| below
        KRYLOV_TOL |b_c|, or below KRYLOV_FLOOR |b_c| once its correction
        has stalled so.  The defect and the one before the last applied
        step are kept in the work buffers "defect" and "last defect", which
        trade places at every applied step.  A step that turns a running
        column's defect non-finite, or whose correction stalls with the
        defect it leaves above the floor, is not applied; if it is the
        second step, each column whose correction grew has the first step
        undone, its iterate and defect restored from the defect before it.
        GMRES on A M^-1 (`_preconditioned`), or A^T M^-T, then takes the
        running columns on, each stopping at the same absolute defect
        (relax = |b_c| / |d_c|); a column that has stopped has its defect
        zeroed, so GMRES keeps it where it is.  Every applied step after
        the first has at least halved the correction of a column still
        running, so the steps end on their own.  Where GMRES misses, or its
        result is not finite, the LU step from the iterate it started from
        finishes the running columns.
        """
        if self._direct:
            iterate -= self._solve_rhs(defect, transposed)
            return
        x = self._block(iterate)
        d = self._work.view("defect", x.shape)
        d[...] = self._block(defect)
        previous = self._work.view("last defect", x.shape)
        left = first = _column_norms(d)
        running = left > KRYLOV_TOL * size
        if not running.all():
            d[:, ~running] = 0.0
        last = np.full(left.size, np.inf)  # the last correction's norms
        flat_solve = (self._flat_solve_transpose if transposed
                      else self._flat_solve)
        steps = 0
        while running.any():
            u, delta_u = self._richardson_step(d, transposed)
            moved, now = _column_norms(u), _column_norms(delta_u)
            stalled = running & (moved > KRYLOV_STALL * last)
            if not np.isfinite(now[running]).all() or np.any(
                    now[stalled] > KRYLOV_FLOOR * size[stalled]):
                if steps == 1:  # undo the first step where the correction grew
                    grown = running & ~(moved <= last)
                    x[:, grown] += flat_solve(previous)[:, grown]
                    d[:, grown] = previous[:, grown]
                    left[grown] = first[grown]
                break
            x -= u
            d, previous = np.negative(delta_u, out=previous), d
            done = running & ((now <= KRYLOV_TOL * size) | stalled)
            if done.any():
                d[:, done] = 0.0
                running &= ~done
            left, last, steps = now, moved, steps + 1
        if not running.any():
            return
        relax = np.divide(size, left, where=running, out=np.ones(left.size))
        d = d.reshape(iterate.shape)
        preconditioned = (self._preconditioned_transpose if transposed
                          else self._preconditioned)
        solved = gmres(preconditioned, d, KRYLOV_MAX, relax * KRYLOV_TOL,
                       relax * KRYLOV_FLOOR, self._work)
        if solved is not None:
            solved = flat_solve(solved)  # M^-1 y for GMRES's y
        if solved is None or not np.all(np.isfinite(solved)):
            solved = self._solve_rhs(d, transposed)
        iterate -= solved

    def solve(self, trace: EvenField, guess: np.ndarray | None = None
              ) -> np.ndarray:
        """Nodal values (x node, tau node) of a trace's harmonic extension.

        A^-1 r, r the trace on the interface rows, by `_stationary` from
        zero.  `guess`, nodal values of the same shape, typically this
        strip's solution at a nearby state, starts the solve from a copy,
        to the same absolute stopping rule as a solve from zero; a guess
        that already meets that rule takes no step.  A guess whose residual
        is no smaller than r is ignored, and so is any guess on an operator
        that solves directly, so that its solves repeat bit for bit.  The
        result is a fresh array.
        """
        grid = self.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        if trace.coeffs.size != nx:
            raise ValueError("trace band does not match the grid")
        rhs = np.zeros(nx * mt)
        rhs[self._interface_rows] = grid.even_values_half(trace)
        out, defect, size = np.zeros(rhs.shape), -rhs, None
        if not self._direct:  # the LU step reads no size
            size = _column_norms(self._block(rhs))
            if guess is not None:
                start = guess.flatten()
                started = self._apply(start) - rhs
                # false for r = 0 or a non-finite guess
                if _column_norms(self._block(started)) < size:
                    out, defect = start, started
        self._stationary(out, defect, size)
        return out.reshape(nx, mt)

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

    def dno_matrix(self, flat: bool = False) -> np.ndarray:
        """Trace coefficients -> Dirichlet-to-Neumann coefficients.

        A solve keeps the trace as its interface values, so their x
        derivative needs no solve, and the interface u_tau of the solve for
        trace coefficients c is E A^-1 B c = Z^T B c, B placing the trace's
        half-grid values on the interface rows (Z from `_adjoint_block`).
        When `flat`, Z is the `flat_adjoint_block` Z0, whose interface row
        Z0[:, :N+1, 0] is C^-T diag(P[:, 0]) C^T (`_flat_profiles`), so
        Z0^T B = C diag(P[:, 0]), C the cosine synthesis, and no block is
        formed.
        """
        grid = self.grid
        nx = grid.n_modes + 1
        if flat:
            u_tau_ifc = grid._cos_mat * self._flat_tau_profiles[:, 0]
        else:
            u_tau_ifc = _blas_product(self._adjoint_block[:, :nx, 0].T,
                                      grid._cos_mat)
        vals = self._extraction(self.eta_half[:, None],
                                u_tau_ifc, grid.half_d1_coeffs)
        return _blas_product(grid._cos_inv, vals)

    def _add_adjoint_columns(self, out: np.ndarray, panel: slice,
                             factor: float) -> None:
        """Add `factor` times the columns `panel` of [E^T | e], the
        right-hand sides of `_adjoint_block`, to the (nx, panel width, mt)
        block `out`, in closed form: column j < nx is d_tau[0] at x node j,
        and e the probe's x row times its tau row."""
        nx = self.grid.n_modes + 1
        nodes = np.arange(panel.start, min(panel.stop, nx))
        out[nodes, nodes - panel.start] += factor * self._d_tau[0]
        if self.probe is not None and panel.stop > nx:
            row_x, t_rows, h = self._probe_rows
            out[:, nx - panel.start] += np.outer(
                row_x, (2.0 * factor / h) * t_rows[1])

    @cached_property
    def _adjoint_column_norms(self) -> np.ndarray:
        """The 2-norm of each column of [E^T | e], in closed form:
        |d_tau[0]| for those of E^T, |row_x| |(2/h) t-row| for e."""
        size = np.full(self.grid.n_modes + 1 + (self.probe is not None),
                       np.linalg.norm(self._d_tau[0]))
        if self.probe is not None:
            row_x, t_rows, h = self._probe_rows
            size[-1] = (np.linalg.norm(row_x)
                        * np.linalg.norm((2.0 / h) * t_rows[1]))
        return size

    @cached_property
    def _adjoint_block(self) -> np.ndarray:
        """Z = A^-T [E^T | e]: the transposed solves behind the Jacobian.

        E maps a solution to its interface u_tau (row j: d_tau[0] on the
        nodes above x_j), and e, present when the operator has a probe, to
        its vertical derivative there.  Everything the Jacobian reads from
        a layer is one of these functionals of a solve A^-1 r, that is
        Z^T r: the Dirichlet-to-Neumann matrix, the shape derivatives and
        the interior-derivative row.  `_stationary` solves the columns a
        panel at a time, transposed, each to the absolute rule of `solve`,
        |rhs_c| from `_adjoint_column_norms`, on a contiguous copy of the
        panel (the work buffer "iterate") written back to Z once.  Every
        panel starts from `flat_adjoint_block`, Z0 = M^-T [E^T | e], exact
        on a flat strip, plus the panel of `adjoint_deviation` when the
        block is tracked (`track_adjoint_deviation`), and its defect is
        A^T times that start less the panel of [E^T | e], added in closed
        form (`_add_adjoint_columns`); so [E^T | e] is never formed whole.
        An operator that solves directly (`_direct`), which includes every
        panel after one whose GMRES missed and whose LU step factored the
        operator, takes the LU step from that start; the panels solved
        before are kept.  A tracked block writes each panel's Z - Z0 into
        `adjoint_deviation`, so that the array ends as its own Z - Z0.  The
        block is (nx, k, mt), column c of Z being Z[:, c, :], solved once,
        on first use, and read-only.
        """
        nx, mt = self.grid.n_modes + 1, self.m_vertical + 1
        z = self.flat_adjoint_block()
        kept = self.adjoint_deviation
        for panel in _panels(z.shape[1]):
            # the steps run on a contiguous copy of the panel, and Z and
            # Z - Z0 are written back once: the x product would copy a
            # strided panel transposed, and a pass over one costs about
            # three over a contiguous copy
            staged = self._work.view("iterate",
                                     (nx, panel.stop - panel.start, mt))
            staged[...] = z[:, panel]
            if kept is not None:
                staged += kept[:, panel]
            defect = self._apply_transpose(staged)
            self._add_adjoint_columns(defect, panel, -1.0)
            self._stationary(staged, defect, self._adjoint_column_norms[panel],
                             transposed=True)
            if kept is not None:
                np.subtract(staged, z[:, panel], out=kept[:, panel])
            z[:, panel] = staged
        z.flags.writeable = False  # shared by every caller
        return z

    def track_adjoint_deviation(self, predicted: np.ndarray | None = None
                                ) -> None:
        """Have `_adjoint_block` leave its Z - Z0 in `adjoint_deviation`.

        Z0 is the `flat_adjoint_block`.  `predicted`, a float32 array of
        the block's shape, typically a nearby block's Z - Z0 scaled to
        this state, starts the solve from Z0 + predicted, and the block's
        own Z - Z0 is then written over it; without one the block starts
        from Z0, exactly as an untracked one, and writes into fresh zeros.
        float32 suffices, since the array only starts the solve.  Call it
        before the block's first use.
        """
        self.adjoint_deviation = predicted if predicted is not None else (
            np.zeros((self.grid.n_modes + 1,
                      self.grid.n_modes + 1 + (self.probe is not None),
                      self.m_vertical + 1), np.float32))

    def _flat_profiles(self, tau_row: np.ndarray) -> np.ndarray:
        """Per-mode tau profiles of M^-T on a column x-part (x) tau_row.

        `_flat_solve_transpose` maps a rank-one column a (x) b to C^-T
        diag(C^T a) P, whose row k, P[k] = T_k^-T b, is the transposed
        solve of mode k (same notation): its interior part
        (b V / (lam / h^2 - k^2)) V^-1 on whole tau rows, plus b's two
        Dirichlet entries.  Returns P as a fresh (nx, mt) array.
        """
        den, inv_pad, vecs_pad = self._flat_strip
        inner = _blas_product(tau_row[None, :], vecs_pad) / den
        profiles = _blas_product(inner, inv_pad)
        profiles[:, ::self.m_vertical] += tau_row[::self.m_vertical]
        return profiles

    @cached_property
    def _flat_tau_profiles(self) -> np.ndarray:
        """`_flat_profiles` of d_tau[0], the tau row of every column of
        E^T; read-only."""
        profiles = self._flat_profiles(self._d_tau[0])
        profiles.flags.writeable = False
        return profiles

    @cached_property
    def _flat_probe_column(self) -> np.ndarray:
        """The probe column of the flat block, C^-T diag(C^T row_x) P_e
        for e = row_x (x) (2/h) t-row (`_flat_profiles`), as an (nx, mt)
        array; read-only."""
        grid = self.grid
        row_x, t_rows, h = self._probe_rows
        x_modes = _blas_product(row_x[None, :], grid._cos_mat)
        column = _blas_product(
            grid._cos_inv.T,
            x_modes.T * self._flat_profiles((2.0 / h) * t_rows[1]))
        column.flags.writeable = False
        return column

    def flat_adjoint_block(self) -> np.ndarray:
        """M^-T [E^T | e]: `_adjoint_block` with the flat strip M for A.

        Column j of E^T is the x unit vector j times the tau row d_tau[0],
        and e is the probe's x row times its tau row, so each column is
        rank one in (x, tau) and M^-T maps it to C^-T diag(C^T a) P
        (`_flat_profiles`), C the cosine synthesis: the columns of E^T
        share one P, and their x parts C^T e_j are the rows of C.  So a
        panel of them is one product of C^-T with the (mode, column, tau)
        block C[j, k] P[k], formed in the work buffer "scratch" and
        multiplied into "precondition", a panel at a time, so that no
        buffer outgrows a panel; the probe column is `_flat_probe_column`.
        It is the start Z0 of `_adjoint_block`, which solves into it, and
        exact on a strip of constant thickness: a fresh array, computed on
        every call.  The flat chord reads its products in closed form
        (`dno_matrix`, `interior_dy_row` and `shape_batch` with `flat`),
        not from this block.
        """
        grid = self.grid
        nx = grid.n_modes + 1
        mt = self.m_vertical + 1
        c_inv_t = grid._cos_inv.T
        z = np.empty((nx, nx + (self.probe is not None), mt))
        profiles = self._flat_tau_profiles
        for panel in _panels(nx):
            cols = panel.stop - panel.start
            modes = self._work.view("scratch", (nx, cols, mt))
            np.multiply(grid._cos_mat.T[:, panel, None], profiles[:, None],
                        out=modes)
            z[:, panel] = _blas_product(
                c_inv_t, modes.reshape(nx, -1),
                out=self._work.view("precondition", (nx, cols * mt)),
            ).reshape(nx, cols, mt)
        if self.probe is not None:
            z[:, nx] = self._flat_probe_column
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

    def interior_dy_row(self, flat: bool = False) -> np.ndarray:
        """Row functional: trace coefficients -> vertical derivative at the
        probe, read from `_adjoint_block`, or, when `flat`, from the flat
        block's probe column (`_flat_probe_column`)."""
        nx = self.grid.n_modes + 1
        column = (self._flat_probe_column[:, 0] if flat
                  else self._adjoint_block[:, nx, 0])
        return column @ self.grid._cos_mat

    # -- directional shape derivatives ----------------------------------------

    def shape_batch(self, values: np.ndarray, flat: bool = False):
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
        without one), for the solution `values`.  When `flat`, the
        `flat_adjoint_block` takes the place of Z, in closed form
        (`_shape_products`).
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
        dhx, dhxx = grid.half_d1_coeffs, grid.half_d2_coeffs
        p = hx / h
        dp = (dhx - p * dh) / h
        f = np.stack([-2.0 * dp, 2.0 * p * dp, -2.0 * dh / h**3,
                      (hxx * dh / h - dhxx) / h + 4.0 * p * dp], axis=1)
        g = np.stack([one_plus * (grid.half_d1 @ w_d), one_plus**2 * w_dd,
                      w_dd, one_plus * w_d], axis=1)
        g[:, :, ::self.m_vertical] = 0.0  # no geometry on the Dirichlet rows
        y = self._shape_products(g, flat)
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

    def _shape_products(self, g: np.ndarray, flat: bool) -> np.ndarray:
        """Y[j] = G[j] Z[j]^T of `shape_batch` for every x node j, an
        (nx, 4, columns) array, G the (nx, 4, mt) tau rows.

        When `flat`, Z is the `flat_adjoint_block` Z0, whose E^T columns
        are Z0[j, c] = sum_k C^-T[j, k] C[c, k] P[k] (`_flat_profiles`), so
        Y[j, t, c] = sum_k C^-T[j, k] C[c, k] (G[j, t] . P[k]): one product
        of G with P^T, a scaling by C^-T and one product with C^T, and the
        probe column is G[j] times `_flat_probe_column`[j].  No block is
        formed.
        """
        grid = self.grid
        nx, _, mt = g.shape
        if not flat:
            z = self._adjoint_block
            y = np.empty((nx, 4, z.shape[1]))
            for j in range(nx):
                _blas_product(g[j], z[j].T, out=y[j])
            return y
        y = np.empty((nx, 4, nx + (self.probe is not None)))
        w = _blas_product(g.reshape(-1, mt), self._flat_tau_profiles.T)
        w = w.reshape(nx, 4, nx)
        w *= grid._cos_inv.T[:, None, :]
        y[:, :, :nx] = _blas_product(w.reshape(-1, nx), grid._cos_mat.T
                                     ).reshape(nx, 4, nx)
        if self.probe is not None:
            y[:, :, nx] = np.sum(g * self._flat_probe_column[:, None, :],
                                 axis=2)
        return y


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
