"""Weak-form assembly of the conformal Laplacian and Robin boundary operator.

Conventions
-----------
* ``stiffness`` K is the metric-weighted weak form of -Laplace (no factor a).
* ``mass`` M, ``curvature_mass`` M_R are consistent (order-2 quadrature).
* ``boundary_mass`` M_h carries the Robin weight (2a/(p-2)) * h_g.
* ``AssembledOperators.add_robin`` is the one place that adds the Robin
  term, M_h to the consistent form (``conformal_laplacian_matrix``, weak
  rows) and M_h^L to the lumped form (matrices, rows, Jacobian diagonals),
  under ``bc_mode='robin'`` only.  It adds the term last, so every form
  keeps one order of operations.  ``apply_conformal_laplacian_vec`` stays
  Robin-free, because ``conformal_change`` removes the boundary flux itself.
* ``AssembledOperators.symmetric_order`` is a minimum-degree elimination
  order of the stiffness pattern (SuperLU's ``MMD_AT_PLUS_A``), computed on
  first use and cached as an index array.  The global stage factors its
  gluing Jacobians and iteration matrices in it
  (``global_iteration._factor``), because those matrices have the stiffness
  pattern plus the diagonal.
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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import io as scipy_io
from scipy.sparse import coo_matrix, csr_matrix, diags, identity
from scipy.sparse.linalg import eigsh, splu

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


def _scatter_matrix(local: np.ndarray, cells: np.ndarray, n: int) -> csr_matrix:
    """Sum element matrices (nc x nc per cell) into a global sparse matrix."""
    nc = cells.shape[1]
    rows = np.repeat(cells, nc, axis=1).ravel()
    cols = np.tile(cells, (1, nc)).ravel()
    mat = coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


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
    _symmetric_order: Optional[np.ndarray] = field(default=None, init=False, repr=False)

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

    def volume(self) -> float:
        return self.integrate(np.ones_like(self.geom.volume_density))

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

    def symmetric_order(self) -> np.ndarray:
        """Minimum-degree elimination order of the stiffness pattern, built once.

        Entry j is the vertex eliminated j-th when K + I is factored in the
        order ``_symmetric_lu`` chooses; it fits every matrix with the
        stiffness pattern plus the diagonal.
        """
        if self._symmetric_order is None:
            lu = _symmetric_lu(self.stiffness + identity(self.num_vertices))
            self._symmetric_order = np.argsort(lu.perm_c)
        return self._symmetric_order

    # ---- pointwise operators ----------------------------------------------

    def apply_conformal_laplacian_vec(self, u: np.ndarray) -> np.ndarray:
        """Lumped mass-inverted action: M_L^{-1}(a*K*u + M_R^L*u)."""
        r = self.constants.a * (self.stiffness @ u) + self.curvature_mass_lumped * u
        return r / self.mass_lumped


class FreeQuadrature:
    """Quadrature helpers on free-sized vectors, swept over the active tets.

    Vectors ``uf`` hold the values at ``free`` and stand for fields that
    vanish at every other vertex; the fixed vertices of an active tet read the
    zero slot ``nf``.  Only index arrays and the active density are kept, and
    no reference to the operators, which cache this object.
    """

    def __init__(self, ops: AssembledOperators, free: np.ndarray):
        self.p = ops.constants.p
        self.nf = nf = len(free)
        self.tets = _active_cells(ops.mesh.tets, free)
        self.density = ops.geom.volume_density[self.tets]
        slot = np.full(ops.num_vertices, nf, dtype=np.int64)
        slot[free] = np.arange(nf)
        self.vertices = ops.mesh.tets[self.tets]
        self.cells = slot[self.vertices]
        rows = np.repeat(self.cells, 4, axis=1).ravel()
        cols = np.tile(self.cells, (1, 4)).ravel()
        self._pairs = np.flatnonzero((rows < nf) & (cols < nf))
        self._rows, self._cols = rows[self._pairs], cols[self._pairs]

    def sample(self, field: np.ndarray) -> np.ndarray:
        """A full-length vertex field at the active quadrature points."""
        return np.einsum("qc,tc->tq", TET_QP, field[self.vertices])

    def quad_values(self, uf: np.ndarray) -> np.ndarray:
        return np.einsum("qc,tc->tq", TET_QP, np.append(uf, 0.0)[self.cells])

    def integrate(self, w_q: np.ndarray) -> float:
        return float(np.einsum("q,tq,tq->", TET_QW, self.density, w_q))

    def lp_norm(self, uf: np.ndarray) -> float:
        return self.integrate(np.abs(self.quad_values(uf)) ** self.p) ** (1.0 / self.p)

    def nonlinear_load(self, uf: np.ndarray, Sq=1.0) -> np.ndarray:
        """Free rows of the consistent load of Sq*|u|^{p-2}u (Sq sampled)."""
        uq = self.quad_values(uf)
        w = np.abs(uq) ** (self.p - 2.0) * uq * Sq
        loc = _kernels.local_load(self.density, w, TET_QP, TET_QW)
        return _scatter_vector(loc, self.cells, self.nf + 1)[:-1]

    def weighted_mass(self, w_q: np.ndarray) -> csr_matrix:
        """Free x free block of the weighted consistent mass matrix."""
        loc = _kernels.local_mass(self.density, w_q, TET_QP, TET_QW).ravel()
        entries = (loc[self._pairs], (self._rows, self._cols))
        return coo_matrix(entries, shape=(self.nf, self.nf)).tocsr()


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

    k_loc = _kernels.local_stiffness(metric, dens, BARY_GRAD, TET_QW)
    K = _scatter_matrix(k_loc, tets, n)

    m_loc = _kernels.local_mass(dens, np.ones_like(dens), TET_QP, TET_QW)
    M = _scatter_matrix(m_loc, tets, n)

    Rv = geom.scalar_curvature.values
    Rq = np.einsum("qc,tc->tq", TET_QP, Rv[tets])
    mr_loc = _kernels.local_mass(dens, Rq, TET_QP, TET_QW)
    MR = _scatter_matrix(mr_loc, tets, n)

    M_lumped = np.asarray(M.sum(axis=1)).ravel()
    MR_lumped = M_lumped * Rv

    Mh = Mb = None
    Mb_lumped = Mh_lumped = None
    if mesh.boundary_faces.size:
        if bdens is None:
            raise ValueError("mesh has boundary but geom lacks boundary_density")
        bones = np.ones_like(bdens)
        mb_loc = _kernels.local_tri_mass(bdens, bones, TRI_QP, TRI_QW)
        Mb = _scatter_matrix(mb_loc, faces, n)
        Mb_lumped = np.asarray(Mb.sum(axis=1)).ravel()
        if geom.mean_curvature is not None:
            hv = geom.mean_curvature.values
            robin_w = 2.0 * constants.a / constants.p_minus_2
            hq = robin_w * np.einsum("qc,fc->fq", TRI_QP, hv[faces])
            mh_loc = _kernels.local_tri_mass(bdens, hq, TRI_QP, TRI_QW)
            Mh = _scatter_matrix(mh_loc, faces, n)
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


def _positive_definite(A: csr_matrix) -> bool:
    """Whether symmetric ``A`` is positive definite, by its LU pivots.

    With diagonal pivots the LU is a symmetric LDL^T, and by Sylvester's law
    of inertia the signs of the pivots are those of A's eigenvalues.
    """
    try:
        lu = _symmetric_lu(A)
    except RuntimeError:
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0)


def first_eigenpair(
    ops: AssembledOperators,
    mass: str = "consistent",
    operator: str = "conformal",
) -> EigenResult:
    """Smallest eigenpair of L phi = eta M phi, deterministic shift-invert.

    The shift steps down from the Rayleigh quotient of the constants, an upper
    bound of eta, until L - sigma M is certified positive definite, so no
    eigenvalue lies below it; the Gershgorin bound is the fallback.
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
    while rho - gap > low - 1.0 and not _positive_definite(L - (rho - gap) * M):
        gap *= 4.0
    sigma = max(rho - gap, low - 1.0)
    vals, vecs = eigsh(L, k=1, M=M, sigma=sigma, which="LM", v0=v0)
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
        metadata={"mass": mass, "operator": operator, "bc_mode": ops.bc_mode},
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
