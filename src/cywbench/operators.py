"""Weak-form assembly of the conformal Laplacian and Robin boundary operator.

Conventions
-----------
* ``stiffness`` K is the metric-weighted weak form of -Laplace (no factor a).
* ``assemble`` builds the sorted pair pattern of its cells once per call
  (``_PairPattern``) and sums K, M and M_R onto it, one ``np.bincount``
  each; the boundary pair M_b, M_h share the faces' pattern.  The matrices
  are canonical CSR.  Nothing is cached across calls.  The pattern finds
  each undirected edge of the cells once, by one ``np.unique`` of the
  edge keys, and sorts only the diagonals of the vertices in the cells and
  the two directed keys of each edge, so a tet gives 6 keys to the
  ``np.unique`` instead of 16 to an argsort.
* ``mass`` M, ``curvature_mass`` M_R are consistent (order-2 quadrature).
* ``boundary_mass`` M_h carries the Robin weight (2a/(p-2)) * h_g.
* ``AssembledOperators.add_robin`` is the one place that adds the Robin
  term, M_h to the consistent form (``conformal_laplacian_matrix``, weak
  rows) and M_h^L to the lumped form (matrices, rows, Jacobian diagonals),
  under ``bc_mode='robin'`` only.  It adds the term last, so every form
  keeps one order of operations.  ``apply_conformal_laplacian_vec`` stays
  Robin-free, because ``conformal_change`` removes the boundary flux itself.
* Repeated solves factor in their owner's cached minimum-degree order
  (SuperLU's ``MMD_AT_PLUS_A``, computed on first use): the global stage's
  gluing Jacobians and iteration matrices, which have the stiffness pattern
  plus the diagonal, through ``AssembledOperators.factor``, and the free x
  free blocks through ``FreeQuadrature.factor``.  One-shot solves use
  SuperLU's own order, since a cached order would cost them an extra LU.
  The shift-invert solves of ``first_eigenpair`` use the LDL^T factor that
  certifies the shift (``_certified_lu``), so ARPACK factors nothing.
* ``FreeQuadrature`` builds, once per free set, the sparse P1 interpolation
  matrix P from free-sized vectors to the active quadrature points
  (entries ``TET_QP[q, c]``), so quadrature values are P u and the
  nonlinear load is P^T of the weighted samples.  Its free x free matrices
  share one CSR pattern, a ``_PairPattern`` of the active tets with the
  non-free corners left out, and are filled as data arrays.  The pattern,
  the restricted blocks and the order are built on first use, so
  quadrature-only callers skip them.
* Lumped diagonals are kept alongside: pointwise field operators use the
  lumped pair (diagonal inverse), spectra and quotients use the consistent
  matrices.  The L^p norm is always the order-2 quadrature of the P1
  interpolant; this module is the single source of p-norm truth.
* Dirichlet operators and ``FreeQuadrature`` sweep only the *active* cells,
  those with a free vertex (``_active_cells``): an entry (i, j) with i or j
  free gets contributions from active cells only.  So the interior rows and
  columns of Dirichlet operators are bitwise those of a whole-mesh assembly
  (their other rows are partial and must not be read), and
  ``FreeQuadrature`` is exact on free-sized vectors for fields that vanish
  off the free set.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import io as scipy_io
from scipy.sparse import csc_matrix, csr_matrix, diags, identity
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from . import _kernels
from .constants import DimensionConstants
from .geometry import (
    BARY_GRAD,
    Domain,
    GeometrySpec,
    Mesh,
    ScalarField,
    TET_QP,
    TET_QW,
    TRI_QP,
    TRI_QW,
)

__all__ = [
    "AssembledOperators",
    "FreeQuadrature",
    "NewtonResult",
    "EigenResult",
    "LiYauInputs",
    "assemble",
    "damped_newton",
    "dual_norm",
    "apply_conformal_laplacian",
    "first_eigenpair",
    "yamabe_quotient",
    "li_yau_bound",
    "conformal_change",
    "export_matrix_market",
]


class _PairPattern:
    """The sorted pair pattern of the element matrices of a cell set.

    ``cells`` holds each cell's corners as indices in ``range(n)``, or -1
    for a corner to leave out.  ``pairs`` are the flat positions of the kept
    pairs in an element-matrix array (cell, row corner, column corner),
    ``slots`` the pattern entry of each, and the pattern is given as sorted
    keys row * n + col and as CSR ``indices``/``indptr``: the diagonal of
    every vertex in the cells and both directions of every edge (two kept
    corners of a cell with distinct vertices).  ``scatter`` adds element
    matrices onto the pattern in cell order, so an entry that only some
    cells touch gets the same sum whatever other cells are present.
    """

    def __init__(self, cells: np.ndarray, n: int):
        nc = cells.shape[1]
        self.n = n
        corner = cells >= 0
        self.pairs = np.flatnonzero(np.repeat(corner, nc, axis=1) & np.tile(corner, (1, nc)))
        # the pattern: the diagonal of every vertex in the cells and both
        # directed keys of every undirected edge, each edge found once
        cu, cv = np.triu_indices(nc, 1)
        a, b = cells[:, cu], cells[:, cv]
        edge = corner[:, cu] & corner[:, cv] & (a != b)
        edges, edge_of = np.unique((np.minimum(a, b) * n + np.maximum(a, b))[edge],
                                   return_inverse=True)
        verts = np.flatnonzero(np.bincount(cells[corner], minlength=n))
        keys = np.concatenate((verts * n + verts, edges, edges % n * n + edges // n))
        order = np.argsort(keys)
        self.keys = keys[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # the slot of each (cell, row corner, column corner): its vertex's
        # diagonal, or its edge's key in the direction row -> column
        diag = np.zeros(n, dtype=rank.dtype)
        diag[verts] = rank[:verts.size]
        forward, backward = diag[a], diag[b]  # a == b reads the diagonal
        at = verts.size + edge_of
        forward[edge] = rank[at + edges.size * (a > b)[edge]]
        backward[edge] = rank[at + edges.size * (a < b)[edge]]
        slot = np.empty((len(cells), nc * nc), dtype=rank.dtype)
        slot[:, np.arange(nc) * (nc + 1)] = diag[cells]
        slot[:, cu * nc + cv], slot[:, cv * nc + cu] = forward, backward
        self.slots = slot.ravel()[self.pairs]
        self.indices = self.keys % n
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(self.keys // n,
                                                                 minlength=n))))

    def matrix(self, data: np.ndarray) -> csr_matrix:
        """The n x n CSR matrix with ``data`` on the pattern (canonical format)."""
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def scatter(self, local: np.ndarray) -> csr_matrix:
        """The sum of the element matrices ``local`` (one per cell)."""
        return self.matrix(np.bincount(self.slots, local.ravel()[self.pairs],
                                       minlength=self.keys.size))


def _scatter_vector(local: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(cells.ravel(), local.ravel(), minlength=n)


def _active_cells(cells: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Indices of the cells (rows of ``cells``) with a vertex in ``free``."""
    return np.flatnonzero(np.isin(cells, free).any(axis=1))


@dataclass
class AssembledOperators:
    """Assembled P1 operator family on a fixed mesh/geometry."""

    mesh: Mesh
    geom: GeometrySpec
    constants: DimensionConstants
    bc_mode: str
    domain: Optional[Domain]

    stiffness: csr_matrix
    mass: csr_matrix
    curvature_mass: csr_matrix
    boundary_mass: Optional[csr_matrix]

    mass_lumped: np.ndarray
    curvature_mass_lumped: np.ndarray
    boundary_mass_plain: Optional[csr_matrix]
    boundary_mass_plain_lumped: Optional[np.ndarray]
    boundary_mass_lumped: Optional[np.ndarray]

    _free_quadratures: dict = field(default_factory=dict, init=False, repr=False)

    # ---- structure -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.mesh.num_vertices

    @property
    def free_vertices(self) -> np.ndarray:
        """Unknown indices of the linear system under the bc mode."""
        if self.bc_mode == "dirichlet":
            return self.domain.interior_set
        return np.arange(self.num_vertices)

    def add_robin(self, x, u=None, lumped: bool = False):
        """``x`` plus the Robin term under Robin conditions, else ``x``.

        The term is M_h (``lumped``: diag(M_h^L)) for a matrix ``x``, M_h u
        (M_h^L u) for rows ``x`` of u, and M_h^L for a diagonal (u = 1.0).
        """
        if self.bc_mode != "robin":
            return x
        if lumped:
            Mh = self.boundary_mass_lumped
            return x + (diags(Mh) if u is None else Mh * u)
        return x + (self.boundary_mass if u is None else self.boundary_mass @ u)

    def conformal_laplacian_matrix(self, beta: float = 0.0) -> csr_matrix:
        """a*K + M_R (+ M_h) (+ beta*M), the consistent weak conformal Laplacian."""
        L = self.add_robin(self.constants.a * self.stiffness + self.curvature_mass)
        if beta != 0.0:
            L = L + beta * self.mass
        return L

    # ---- quadrature interpolation ----------------------------------------

    def quad_values(self, u: np.ndarray) -> np.ndarray:
        """P1 interpolant sampled at the tetrahedron quadrature points."""
        return np.einsum("qc,tc->tq", TET_QP, u[self.mesh.tets])

    def boundary_quad_values(self, u: np.ndarray) -> np.ndarray:
        return np.einsum("qc,fc->fq", TRI_QP, u[self.mesh.boundary_faces])

    def integrate(self, w_q: np.ndarray) -> float:
        """Integrate a per-(tet, point) sample against dVol_g."""
        return float(np.einsum("q,tq,tq->", TET_QW, self.geom.volume_density, w_q))

    def lp_norm(self, u: np.ndarray) -> float:
        """L^p norm by order-2 quadrature of |P1 interpolant|^p."""
        p = self.constants.p
        return self.integrate(np.abs(self.quad_values(u)) ** p) ** (1.0 / p)

    def nonlinear_load(self, u: np.ndarray, S: Optional[np.ndarray] = None):
        """Consistent load F with F_i = integral of S*|u|^{p-2}u * phi_i.

        Satisfies u^T F(u) = integral S|u|^p exactly at quadrature level.
        """
        uq = self.quad_values(u)
        w = np.abs(uq) ** (self.constants.p - 2.0) * uq
        if S is not None:
            w = w * self.quad_values(S)
        loc = _kernels.local_load(self.geom.volume_density, w, TET_QP, TET_QW)
        return _scatter_vector(loc, self.mesh.tets, self.num_vertices)

    def free_quadrature(self, free: np.ndarray) -> "FreeQuadrature":
        """Quadrature restricted to the tets touching ``free``, built once per set."""
        key = np.asarray(free, dtype=np.int64).tobytes()
        if key not in self._free_quadratures:
            self._free_quadratures[key] = FreeQuadrature(self, free)
        return self._free_quadratures[key]

    @cached_property
    def _order(self) -> np.ndarray:
        """Minimum-degree elimination order of K + I (``_symmetric_lu``):
        entry j is the vertex eliminated j-th."""
        return np.argsort(_symmetric_lu(self.stiffness + identity(self.num_vertices)).perm_c)

    def factor(self, A, splu):
        """Solve with ``A``, which has the stiffness pattern plus the diagonal,
        factored by ``splu`` in the cached order (see :func:`_ordered_lu`)."""
        q = self._order
        return _ordered_lu(splu, A[q][:, q].tocsc(), q)

    # ---- pointwise operators ----------------------------------------------

    def apply_conformal_laplacian_vec(self, u: np.ndarray) -> np.ndarray:
        """Lumped mass-inverted action: M_L^{-1}(a*K*u + M_R^L*u)."""
        r = self.constants.a * (self.stiffness @ u) + self.curvature_mass_lumped * u
        return r / self.mass_lumped


class FreeQuadrature:
    """Quadrature and free x free blocks on free-sized vectors, over the active tets.

    Vectors ``uf`` hold the values at ``free`` and stand for fields that
    vanish at every other vertex.  Free x free matrices are CSR on one
    pattern, the free vertex pairs of the active tets, so their ``data``
    arrays add entrywise.  The interpolation is built with the object; the
    pattern, the restricted operator blocks and the elimination order on
    first use, so a caller that only integrates pays for none of them.  The
    operators cache this object, so it keeps only a weak reference to them.
    """

    def __init__(self, ops: AssembledOperators, free: np.ndarray):
        self._ops = weakref.ref(ops)
        self.free = np.array(free, dtype=np.int64)
        self.p = ops.constants.p
        self.nf = nf = len(free)
        self.tets = _active_cells(ops.mesh.tets, free)
        self.density = ops.geom.volume_density[self.tets]
        self._weights = TET_QW * self.density
        slot = np.full(ops.num_vertices, -1, dtype=np.int64)
        slot[free] = np.arange(nf)
        self.vertices = ops.mesh.tets[self.tets]
        self._cells = cells = slot[self.vertices]
        nt, nq = self.density.shape
        # row (t, q) of the interpolation: TET_QP[q, c] at column cells[t, c], c free
        in_free = np.broadcast_to(cells[:, None, :] >= 0, (nt, nq, 4))
        self.interp = csr_matrix(
            (np.broadcast_to(TET_QP, in_free.shape)[in_free],
             np.broadcast_to(cells[:, None, :], in_free.shape)[in_free],
             np.concatenate(([0], np.cumsum(in_free.sum(axis=2).ravel())))),
            shape=(nt * nq, nf))
        self.interp.sort_indices()  # P u sums each row in free-vertex order
        self._interp_t = self.interp.T

    @cached_property
    def _pattern(self) -> _PairPattern:
        """The free x free pattern of the active tets (non-free corners -1)."""
        return _PairPattern(self._cells, self.nf)

    @cached_property
    def _blocks(self) -> tuple:
        """Data of the free x free blocks of a K + M_R (+ M_h) and M."""
        ops, free = self._ops(), self.free
        return (self._on_pattern(ops.conformal_laplacian_matrix()[free][:, free]),
                self._on_pattern(ops.mass[free][:, free]))

    @cached_property
    def _order(self) -> tuple:
        """The pattern's minimum-degree order q, the permutation of the data
        into it, and the CSC structure there (``_symmetric_lu`` of the mass)."""
        pat = self._pattern
        perm_c = _symmetric_lu(self.matrix(self._blocks[1])).perm_c
        rows, cols = perm_c[pat.keys // self.nf], perm_c[pat.indices]
        perm = np.lexsort((rows, cols))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=self.nf))))
        return np.argsort(perm_c), perm, rows[perm], indptr

    def _on_pattern(self, block: csr_matrix) -> np.ndarray:
        """Data of a free x free block, whose entries all lie on the pattern."""
        block, keys = block.tocoo(), self._pattern.keys
        data = np.zeros(keys.size)
        data[np.searchsorted(keys, block.row * self.nf + block.col)] = block.data
        return data

    def matrix(self, data: np.ndarray) -> csr_matrix:
        """The free x free matrix with ``data`` on the pattern."""
        return self._pattern.matrix(data)

    def sample(self, field: np.ndarray) -> np.ndarray:
        """A full-length vertex field at the active quadrature points."""
        return np.einsum("qc,tc->tq", TET_QP, field[self.vertices])

    def quad_values(self, uf: np.ndarray) -> np.ndarray:
        return (self.interp @ uf).reshape(self.density.shape)

    def integrate(self, w_q: np.ndarray) -> float:
        return float(np.einsum("q,tq,tq->", TET_QW, self.density, w_q))

    def lp_norm(self, uf: np.ndarray) -> float:
        return self.integrate(np.abs(self.quad_values(uf)) ** self.p) ** (1.0 / self.p)

    def nonlinear_load(self, uf: np.ndarray, Sq=1.0) -> np.ndarray:
        """Free rows of the consistent load of Sq*|u|^{p-2}u (Sq sampled)."""
        uq = self.quad_values(uf)
        w = np.abs(uq) ** (self.p - 2.0) * uq * Sq
        return self._interp_t @ (self._weights * w).ravel()

    def weighted_mass(self, w_q: np.ndarray) -> csr_matrix:
        """Free x free block of the weighted consistent mass matrix."""
        return self._pattern.scatter(_kernels.local_mass(self.density, w_q, TET_QP, TET_QW))

    def conformal_laplacian_matrix(self, beta: float = 0.0) -> csr_matrix:
        """Free x free block of ``AssembledOperators.conformal_laplacian_matrix(beta)``."""
        laplacian, mass = self._blocks
        return self.matrix(laplacian + beta * mass)

    def factor(self, data: np.ndarray, splu):
        """Solve with the matrix of ``data``, factored by ``splu`` in the
        pattern's cached minimum-degree order (see :func:`_ordered_lu`)."""
        q, perm, indices, indptr = self._order
        A_q = csc_matrix((data[perm], indices, indptr), shape=(self.nf, self.nf))
        return _ordered_lu(splu, A_q, q)


def _ordered_lu(splu, A_q, q: np.ndarray):
    """Solve with ``A_q`` factored by ``splu`` in the order it is given.

    ``A_q`` is a square matrix with a symmetric pattern, permuted
    symmetrically so that its row and column j are row and column ``q[j]``
    of the matrix meant; SuperLU keeps that column order
    (``permc_spec="NATURAL"``).  The returned solve takes and gives vectors
    in the unpermuted numbering.  Callers pass ``splu`` as their own module
    looks it up, so a traced run counts the factorization under the caller.
    """
    lu = splu(A_q, permc_spec="NATURAL")

    def solve(b):
        x = np.empty_like(b)
        x[q] = lu.solve(b[q])
        return x

    return solve


# ---------------------------------------------------------------------------
# damped Newton
# ---------------------------------------------------------------------------


def dual_norm(r: np.ndarray, m_lumped: np.ndarray) -> float:
    """sqrt(r^T M_L^{-1} r): the lumped dual norm of a vector of weak-form rows."""
    return math.sqrt(float(r @ (r / m_lumped)))


@dataclass
class NewtonResult:
    """Outcome of :func:`damped_newton`.

    ``residual`` is what ``residual(x)`` returned for the final iterate, and
    ``steps`` holds one ``(norm, theta, clamped)`` record per accepted step.
    """

    x: np.ndarray
    residual: object
    norm: float
    status: str
    steps: list


def damped_newton(x, residual, solve, converged, project=None, max_iter=60):
    """Newton with step halving on the residual norm (Deuflhard 2004, ch. 3).

    ``residual(x)`` returns ``(r, norm)``, with ``r`` whatever ``solve`` and
    ``converged`` need; ``solve(x, r)`` returns the Newton step and raises
    RuntimeError when the linear system is singular; ``converged(x, r, norm)``
    is the stopping rule, tested on every iterate.  A step tries theta = 1,
    1/2, ..., 2^-39 and accepts the first candidate whose norm drops, after
    ``project(cand) -> (cand, clamped entries)`` when given; the accepted
    candidate's residual is reused.  The status is ``converged``,
    ``stalled`` (no halving lowers the norm), ``singular`` or ``max-iter``.
    """
    r, norm = residual(x)
    steps = []
    while True:
        if converged(x, r, norm):
            status = "converged"
            break
        if len(steps) == max_iter:
            status = "max-iter"
            break
        try:
            dx = solve(x, r)
        except RuntimeError:
            status = "singular"
            break
        theta = 1.0
        for _ in range(40):
            cand, clamped = x + theta * dx, 0
            if project is not None:
                cand, clamped = project(cand)
            rc, nc = residual(cand)
            if nc < norm:
                break
            theta *= 0.5
        else:
            status = "stalled"
            break
        x, r, norm = cand, rc, nc
        steps.append((norm, theta, clamped))
    return NewtonResult(x, r, norm, status, steps)


@dataclass
class EigenResult:
    eigenvalue: float
    eigenfunction: ScalarField
    residual: float
    sign_change_free: bool
    metadata: dict = field(default_factory=dict)


@dataclass
class LiYauInputs:
    """Inputs of the first-eigenvalue lower bound for a geodesic ball.

    ``ricci_lower`` is the constant K with Ric >= -(n-1)K.
    """

    r_inj: float
    ricci_lower: float
    h_min: float
    n: int

    def __post_init__(self) -> None:
        if self.r_inj <= 0:
            raise ValueError("injectivity radius must be positive")
        if self.n < 3:
            raise ValueError("dimension must be >= 3")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble(
    mesh: Mesh,
    geom: GeometrySpec,
    constants: DimensionConstants,
    bc_mode: str = "closed",
    domain: Optional[Domain] = None,
) -> AssembledOperators:
    """Assemble the P1 operator family for the given boundary-condition mode.

    ``bc_mode`` is one of ``closed``, ``dirichlet`` (requires a Domain whose
    interior indexes the unknowns), or ``robin`` (requires a boundary and a
    mean-curvature field in ``geom``).  Dirichlet operators carry only the
    cells with an interior vertex: their interior rows and columns are exact,
    their other rows are partial and must not be read.

    The element matrices come from ``_kernels``: the stiffness inverts each
    metric in closed form, cofactors over the determinant, and raises
    ``ValueError`` where a metric is not positive definite (a determinant
    or a leading principal minor is not > 0).  The cells' sorted pair
    pattern is built once per call, and K, M and M_R are each one
    ``np.bincount`` onto it in cell order; M_b and M_h likewise on the
    boundary faces' pattern.  An element matrix depends only on its own
    cell, and an entry adds its cells' contributions in the same order
    whatever other cells are present, so the interior rows of a Dirichlet
    assembly are bitwise those of the whole-mesh assembly.
    """
    if bc_mode not in ("closed", "dirichlet", "robin"):
        raise ValueError(f"unknown bc_mode {bc_mode!r}")
    if bc_mode == "dirichlet" and domain is None:
        raise ValueError("bc_mode='dirichlet' requires a Domain")
    if bc_mode == "robin":
        if mesh.is_closed:
            raise ValueError("bc_mode='robin' requires a mesh with boundary")
        if geom.mean_curvature is None:
            raise ValueError("bc_mode='robin' requires a mean-curvature field")
    nt, nq = geom.volume_density.shape
    if nt != mesh.num_tets or nq != TET_QP.shape[0]:
        raise ValueError("geometry arrays inconsistent with mesh")
    if geom.scalar_curvature.values.shape[0] != mesh.num_vertices:
        raise ValueError("scalar curvature field inconsistent with mesh")

    n = mesh.num_vertices
    tets, metric, dens = mesh.tets, geom.metric, geom.volume_density
    faces, bdens = mesh.boundary_faces, geom.boundary_density
    if bc_mode == "dirichlet":  # the interior rows see only active cells
        act = _active_cells(tets, domain.interior_set)
        tets, metric, dens = tets[act], metric[act], dens[act]
        if bdens is not None:
            act = _active_cells(faces, domain.interior_set)
            faces, bdens = faces[act], bdens[act]

    pattern = _PairPattern(tets, n)
    K = pattern.scatter(_kernels.local_stiffness(metric, dens, BARY_GRAD, TET_QW))
    M = pattern.scatter(_kernels.local_mass(dens, np.ones_like(dens), TET_QP, TET_QW))
    Rv = geom.scalar_curvature.values
    Rq = np.einsum("qc,tc->tq", TET_QP, Rv[tets])
    MR = pattern.scatter(_kernels.local_mass(dens, Rq, TET_QP, TET_QW))

    M_lumped = np.asarray(M.sum(axis=1)).ravel()
    MR_lumped = M_lumped * Rv

    Mh = Mb = None
    Mb_lumped = Mh_lumped = None
    if mesh.boundary_faces.size:
        if bdens is None:
            raise ValueError("mesh has boundary but geom lacks boundary_density")
        bpattern = _PairPattern(faces, n)
        bones = np.ones_like(bdens)
        Mb = bpattern.scatter(_kernels.local_tri_mass(bdens, bones, TRI_QP, TRI_QW))
        Mb_lumped = np.asarray(Mb.sum(axis=1)).ravel()
        if geom.mean_curvature is not None:
            hv = geom.mean_curvature.values
            robin_w = 2.0 * constants.a / constants.p_minus_2
            hq = robin_w * np.einsum("qc,fc->fq", TRI_QP, hv[faces])
            Mh = bpattern.scatter(_kernels.local_tri_mass(bdens, hq, TRI_QP, TRI_QW))
            Mh_lumped = Mb_lumped * (robin_w * hv)

    return AssembledOperators(
        mesh=mesh,
        geom=geom,
        constants=constants,
        bc_mode=bc_mode,
        domain=domain,
        stiffness=K,
        mass=M,
        curvature_mass=MR,
        boundary_mass=Mh,
        mass_lumped=M_lumped,
        curvature_mass_lumped=MR_lumped,
        boundary_mass_plain=Mb,
        boundary_mass_plain_lumped=Mb_lumped,
        boundary_mass_lumped=Mh_lumped,
    )


def apply_conformal_laplacian(ops: AssembledOperators, u: ScalarField) -> ScalarField:
    """Pointwise field M_L^{-1}(a*K + M_R^L) u approximating the operator action."""
    if u.values.shape[0] != ops.num_vertices:
        raise ValueError("field dimension mismatch")
    out = ops.apply_conformal_laplacian_vec(u.values)
    return ScalarField(out, ops.mesh.mesh_id, {"operator": "conformal_laplacian"})


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------


def _pencil(ops: AssembledOperators, mass: str, operator: str):
    if operator == "conformal":
        L = ops.conformal_laplacian_matrix()
    elif operator == "conformal-lumped":
        # vertexwise form matching the global-stage rows, so the eigenpair's
        # lumped application is exactly eta * m * phi
        L = ops.add_robin(ops.constants.a * ops.stiffness
                          + diags(ops.curvature_mass_lumped), lumped=True).tocsr()
    elif operator == "laplacian":
        L = ops.stiffness.copy()
    else:
        raise ValueError(f"unknown operator {operator!r}")
    if mass == "consistent":
        M = ops.mass
    elif mass == "lumped":
        M = diags(ops.mass_lumped).tocsr()
    else:
        raise ValueError(f"unknown mass {mass!r}")
    free = ops.free_vertices
    if len(free) != ops.num_vertices:
        L = L[free][:, free].tocsr()
        M = M[free][:, free].tocsr()
    return L, M, free


def _symmetric_lu(A: csr_matrix):
    """SuperLU of symmetric ``A`` with diagonal pivots, in the MMD order of A + A^T."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _certified_lu(A: csr_matrix):
    """The ``_symmetric_lu`` of symmetric ``A`` if it certifies A positive
    definite, else None.

    With diagonal pivots the LU is a symmetric LDL^T, and by Sylvester's law
    of inertia the signs of the pivots are those of A's eigenvalues.
    """
    try:
        lu = _symmetric_lu(A)
    except RuntimeError:
        return None
    certified = np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0
    return lu if certified else None


def first_eigenpair(
    ops: AssembledOperators,
    mass: str = "consistent",
    operator: str = "conformal",
) -> EigenResult:
    """Smallest eigenpair of L phi = eta M phi, deterministic shift-invert.

    The shift steps down from the Rayleigh quotient of the constants, an upper
    bound of eta, until the LDL^T of L - sigma M certifies it positive
    definite, so no eigenvalue lies below sigma; the Gershgorin bound is the
    fallback.  ARPACK's shift-invert solves use that one factor, so a call
    makes one LU per tried shift and ARPACK makes none.  The metadata records
    the ``shift``, its ``certificate`` (``ldlt-inertia`` or ``gershgorin``),
    the ``factorizations`` made and ARPACK's ``shift_invert_solves``.
    ``operator='laplacian'`` uses the pure stiffness block (no curvature or
    boundary term, no factor a).
    """
    L, M, free = _pencil(ops, mass, operator)
    nfree = L.shape[0]
    m_diag = np.asarray(M.sum(axis=1)).ravel()
    # Gershgorin lower bound of the pencil in the lumped metric
    absL = abs(L)
    low = float(
        np.min((2.0 * L.diagonal() - np.asarray(absL.sum(axis=1)).ravel()) / m_diag)
    )
    v0 = np.ones(nfree)
    rho = float(v0 @ (L @ v0)) / float(v0 @ (M @ v0))
    gap = max(abs(rho), 1.0)
    factorizations, lu = 0, None
    while lu is None and rho - gap > low - 1.0:
        sigma = rho - gap
        lu = _certified_lu(L - sigma * M)
        factorizations += 1
        gap *= 4.0
    certificate = "ldlt-inertia"
    if lu is None:
        sigma, certificate = low - 1.0, "gershgorin"
        lu = _symmetric_lu(L - sigma * M)
        factorizations += 1
    solves = 0

    def shift_invert(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    vals, vecs = eigsh(L, k=1, M=M, sigma=sigma, which="LM", v0=v0,
                       OPinv=LinearOperator((nfree, nfree), matvec=shift_invert,
                                            dtype=L.dtype))
    eta = float(vals[0])
    phi = vecs[:, 0]
    # normalize: unit M-norm, nonnegative mean
    phi = phi / math.sqrt(float(phi @ (M @ phi)))
    if phi.sum() < 0:
        phi = -phi
    r = L @ phi - eta * (M @ phi)
    m_inv = 1.0 / m_diag
    dual = math.sqrt(float(r @ (m_inv * r)))
    denom = math.sqrt(float((M @ phi) @ (m_inv * (M @ phi))))
    residual = dual / denom

    full = np.zeros(ops.num_vertices)
    full[free] = phi
    tol = 1e-10 * max(1.0, float(np.abs(phi).max()))
    sign_free = bool((phi >= -tol).all() or (phi <= tol).all())
    return EigenResult(
        eigenvalue=eta,
        eigenfunction=ScalarField(full, ops.mesh.mesh_id, {"normalized": "unit-M"}),
        residual=residual,
        sign_change_free=sign_free,
        metadata={"mass": mass, "operator": operator, "bc_mode": ops.bc_mode,
                  "shift": sigma, "certificate": certificate,
                  "factorizations": factorizations, "shift_invert_solves": solves},
    )


# ---------------------------------------------------------------------------
# quotients and bounds
# ---------------------------------------------------------------------------


def yamabe_quotient(ops: AssembledOperators, u: ScalarField) -> float:
    """Rayleigh-type quotient with the quadrature L^p norm as denominator."""
    v = u.values
    if not np.any(v):
        raise ValueError("zero field")
    num = float(v @ (ops.conformal_laplacian_matrix() @ v))
    return num / ops.lp_norm(v) ** 2


def li_yau_bound(inputs: LiYauInputs) -> float:
    """First-eigenvalue lower bound for a geodesic ball of radius r_inj.

    The square root is clamped at 0 when its argument is negative.
    """
    n, r, K, h = inputs.n, inputs.r_inj, inputs.ricci_lower, inputs.h_min
    root = math.sqrt(max(0.0, 1.0 - 4.0 * (n - 1) ** 2 * r * r * K))
    gamma = max(math.exp(1.0 + root), math.exp(-2.0 * (n - 1) * h * r))
    return (math.log(gamma) ** 2 / (4.0 * (n - 1) * r * r) - (n - 1) * K) / gamma


def sharp_sobolev_constant(n: int) -> float:
    """Best constant of the Euclidean Sobolev inequality in the gate's scale."""
    return (
        math.pi
        * n
        * (n - 2)
        * (math.gamma(n / 2.0) / math.gamma(float(n))) ** (2.0 / n)
    )


# ---------------------------------------------------------------------------
# conformal change
# ---------------------------------------------------------------------------


def conformal_change(
    geom: GeometrySpec,
    u: ScalarField,
    ops: AssembledOperators,
    boundary_flux: Optional[np.ndarray] = None,
) -> GeometrySpec:
    """Discrete conformal change g -> u^{p-2} g with updated curvature fields.

    The new scalar curvature is the pointwise field u^{1-p} * (a*K + M_R^L)u
    / M_L at interior vertices.  At boundary vertices the lumped row carries
    a flux term; it is removed using ``boundary_flux`` (values of the Robin
    flux B_g u at boundary vertices) when supplied, else by a first-order
    variational recovery.  The new mean curvature is
    ((p-2)/2) * u^{-p/2} * B_g u.
    """
    v = u.values
    if (v <= 0).any():
        raise ValueError("conformal factor must be positive at every vertex")
    cst = ops.constants
    p = cst.p
    pm2 = cst.p_minus_2
    nexp = cst.n

    uq = ops.quad_values(v)
    metric = geom.metric * (uq**pm2)[:, :, None, None]
    vol = geom.volume_density * uq ** (pm2 * nexp / 2.0)

    # scalar curvature via the lumped pointwise operator
    box_u = ops.apply_conformal_laplacian_vec(v)
    Rnew = box_u / v ** (p - 1.0)

    bdens = geom.boundary_density
    hnew_field = None
    mesh = ops.mesh
    if mesh.boundary_faces.size:
        ubq = ops.boundary_quad_values(v)
        bdens = geom.boundary_density * ubq ** (pm2 * (nexp - 1) / 2.0)
        bnd = mesh.vertex_flags
        hv = (
            geom.mean_curvature.values
            if geom.mean_curvature is not None
            else np.zeros(mesh.num_vertices)
        )
        if boundary_flux is None:
            # first-order variational recovery: the lumped curvature row
            # cancels the R u volume term exactly, leaving the flux part
            normal_der = np.zeros(mesh.num_vertices)
            Ku = ops.stiffness @ v
            normal_der[bnd] = Ku[bnd] / ops.boundary_mass_plain_lumped[bnd]
            flux = normal_der + (2.0 / pm2) * hv * v
        else:
            flux = np.asarray(boundary_flux, dtype=np.float64)
            normal_der = flux - (2.0 / pm2) * hv * v
        hnew = np.zeros(mesh.num_vertices)
        hnew[bnd] = (pm2 / 2.0) * v[bnd] ** (-p / 2.0) * flux[bnd]
        hnew_field = ScalarField(hnew, mesh.mesh_id, {"derived": "conformal_change"})
        # de-pollute the boundary rows of the curvature field
        corr = np.zeros(mesh.num_vertices)
        corr[bnd] = (
            cst.a
            * ops.boundary_mass_plain_lumped[bnd]
            * normal_der[bnd]
            / ops.mass_lumped[bnd]
        )
        Rnew = (box_u - corr) / v ** (p - 1.0)

    psi = None
    if geom.conformal_flat_factor is not None:
        psi = ScalarField(
            geom.conformal_flat_factor.values * v,
            geom.conformal_flat_factor.mesh_id,
            dict(geom.conformal_flat_factor.metadata),
        )
    meta = dict(geom.metadata)
    meta["conformal_factor_applied"] = True
    return GeometrySpec(
        metric=metric,
        volume_density=vol,
        scalar_curvature=ScalarField(Rnew, mesh.mesh_id, {"derived": "conformal_change"}),
        mean_curvature=hnew_field,
        boundary_density=bdens,
        preset_id=geom.preset_id,
        conformal_flat_factor=psi,
        metadata=meta,
    )


def export_matrix_market(mat: csr_matrix, path) -> None:
    """Write a sparse matrix in MatrixMarket coordinate text format."""
    scipy_io.mmwrite(str(path), mat.tocoo())
