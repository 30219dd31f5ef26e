"""Meshes, analytic geometry presets, domains, and admissible functions.

Conventions
-----------
* A mesh is a simplicial 3-complex.  Vertices live in chart coordinates:
  3 coordinates for flat presets, 4 ambient coordinates for the round
  3-sphere.
* Per-tetrahedron geometry is expressed in the local simplex coordinates
  ``s`` of the chordal tetrahedron ``x(s) = v0 + E s`` where ``E`` is the
  edge matrix.  ``GeometrySpec.metric[t, q]`` is the 3x3 pullback metric in
  those coordinates at quadrature point ``q`` and ``volume_density[t, q]``
  is its root determinant (which therefore includes the chart Jacobian).
* Scalar curvature and boundary mean curvature are analytic preset data
  carried as vertex fields; they are coefficients of the operators, never
  recovered from the discrete metric.
* Vertex and tet order is part of a preset: it fixes the order of every
  assembled sum, so the bits of every downstream solve.  Grid presets number
  point (i, j, k) as (i*npts + j)*npts + k with six Kuhn tets per cube in
  (i, j, k) order; a round-s3 refinement appends edge midpoints in order of
  first appearance and puts each tet's eight children in its place.
"""

from __future__ import annotations

import ast
import copy
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "Mesh",
    "GeometrySpec",
    "ScalarField",
    "Domain",
    "TET_QP",
    "TET_QW",
    "TRI_QP",
    "TRI_QW",
    "build_preset",
    "extract_subdomain",
    "ball_domain",
    "make_punctured_domain",
    "mollify",
    "construct_admissible_function",
    "write_mesh",
    "read_mesh",
    "PRESET_IDS",
]

# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

_TET_ALPHA = 0.5854101966249684544613760503096914353161
_TET_BETA = 0.1381966011250105151795413165634361882280

#: Order-2 4-point tetrahedron rule: barycentric coordinates (4 points x 4).
TET_QP = np.array(
    [
        [_TET_ALPHA, _TET_BETA, _TET_BETA, _TET_BETA],
        [_TET_BETA, _TET_ALPHA, _TET_BETA, _TET_BETA],
        [_TET_BETA, _TET_BETA, _TET_ALPHA, _TET_BETA],
        [_TET_BETA, _TET_BETA, _TET_BETA, _TET_ALPHA],
    ]
)
#: Weights over the reference simplex of volume 1/6 (sum = 1/6).
TET_QW = np.full(4, 1.0 / 24.0)

#: Order-2 3-point triangle rule (edge midpoints), barycentric (3 points x 3).
TRI_QP = np.array(
    [
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ]
)
#: Weights over the reference triangle of area 1/2 (sum = 1/2).
TRI_QW = np.full(3, 1.0 / 6.0)

#: Barycentric gradients of the four P1 basis functions in s-coordinates.
BARY_GRAD = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

PRESET_IDS = ("round-s3", "flat-t3", "ball-negR", "annulus", "bump-t3")

_VERTEX_BUDGET = 10**6

#: Tet corner pairs of the six edges and corner triples of the four faces.
_TET_EDGES = [0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]
_TET_FACES = [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3]


def _face_keys(faces: np.ndarray, n: int) -> np.ndarray:
    """Integer key (a*n + b)*n + c of each face's sorted vertices a < b < c.

    Exact in int64 for n < 2**21, which the vertex budget guarantees.
    """
    a, b, c = np.sort(faces, axis=1).T
    return (a * n + b) * n + c


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """One real value per mesh vertex."""

    values: np.ndarray
    mesh_id: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)

    def copy(self) -> "ScalarField":
        return ScalarField(self.values.copy(), self.mesh_id, dict(self.metadata))


@dataclass
class Mesh:
    """Simplicial 3-complex with boundary marking."""

    vertices: np.ndarray  # (nv, 3) or (nv, 4)
    tets: np.ndarray  # (nt, 4) int
    boundary_faces: np.ndarray  # (nb, 3) int
    boundary_orientation: np.ndarray  # (nb,) +-1
    mesh_id: str
    metadata: dict = field(default_factory=dict)

    # caches
    _edges: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _vertex_graph: Optional[csr_matrix] = field(default=None, init=False, repr=False)
    _boundary_flags: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _mollify_weights: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.tets = np.asarray(self.tets, dtype=np.int64)
        self.boundary_faces = np.asarray(self.boundary_faces, dtype=np.int64).reshape(
            -1, 3
        )
        self.boundary_orientation = np.asarray(
            self.boundary_orientation, dtype=np.int64
        ).reshape(-1)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def is_closed(self) -> bool:
        return self.boundary_faces.shape[0] == 0

    @property
    def period(self) -> Optional[float]:
        """Period of a periodic (torus) chart, or None."""
        return self.metadata.get("period")

    @property
    def vertex_flags(self) -> np.ndarray:
        """Boolean array, True at boundary vertices."""
        if self._boundary_flags is None:
            flags = np.zeros(self.num_vertices, dtype=bool)
            if self.boundary_faces.size:
                flags[np.unique(self.boundary_faces)] = True
            self._boundary_flags = flags
        return self._boundary_flags

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (ne, 2) array with e[0] < e[1]."""
        if self._edges is None:
            n = self.num_vertices
            a, b = np.sort(self.tets[:, _TET_EDGES].reshape(-1, 2), axis=1).T
            keys = np.unique(a * n + b)
            self._edges = np.stack([keys // n, keys % n], axis=1)
        return self._edges

    def displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Chart displacement b - a honoring periodic wrap when present."""
        d = b - a
        if self.period is not None:
            L = self.period
            d = d - L * np.round(d / L)
        return d

    def edge_lengths(self) -> np.ndarray:
        e = self.edges()
        d = self.displacement(self.vertices[e[:, 0]], self.vertices[e[:, 1]])
        return np.linalg.norm(d, axis=1)

    def min_edge_length(self) -> float:
        return float(self.edge_lengths().min())

    def vertex_graph(self) -> csr_matrix:
        """Sparse symmetric adjacency with edge lengths as weights."""
        if self._vertex_graph is None:
            e = self.edges()
            w = self.edge_lengths()
            n = self.num_vertices
            g = coo_matrix(
                (
                    np.concatenate([w, w]),
                    (
                        np.concatenate([e[:, 0], e[:, 1]]),
                        np.concatenate([e[:, 1], e[:, 0]]),
                    ),
                ),
                shape=(n, n),
            )
            self._vertex_graph = g.tocsr()
        return self._vertex_graph

    def tet_corner_coords(self) -> np.ndarray:
        """Per-tet corner coordinates (nt, 4, dim), periodic-unwrapped.

        For periodic charts the three non-base corners are unwrapped to the
        image nearest the base corner so the chordal simplex is geometric.
        """
        x = self.vertices[self.tets]  # (nt, 4, dim)
        if self.period is not None:
            base = x[:, :1, :]
            x = base + self.displacement(
                np.broadcast_to(base, x.shape), x
            )
        return x

    def validate(self) -> None:
        """Check the structural mesh invariants; raise ValueError on failure."""
        nv = self.num_vertices
        if self.tets.min(initial=0) < 0 or self.tets.max(initial=-1) >= nv:
            raise ValueError("tetrahedron index out of range")
        # each boundary face belongs to exactly one tetrahedron
        uniq, counts = np.unique(
            _face_keys(self.tets[:, _TET_FACES].reshape(-1, 3), nv), return_counts=True
        )
        once = uniq[counts == 1]
        stray = ~np.isin(_face_keys(self.boundary_faces, nv), once)
        if stray.any():
            bf = self.boundary_faces[np.argmax(stray)]
            raise ValueError(f"boundary face {bf} not a once-counted tet face")
        if len(once) != self.boundary_faces.shape[0]:
            raise ValueError(
                f"boundary face count {self.boundary_faces.shape[0]} != "
                f"once-counted faces {len(once)}"
            )
        # positive oriented volumes under the reference chart
        vols = tet_volumes(self)
        if vols.min(initial=np.inf) <= 0:
            raise ValueError("non-positive oriented tetrahedron volume")


def tet_edge_matrices(mesh: Mesh) -> np.ndarray:
    """Edge matrices E (nt, dim, 3): columns v_i - v_0 in chart coordinates."""
    x = mesh.tet_corner_coords()
    return np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0], x[:, 3] - x[:, 0]], axis=2)


def tet_volumes(mesh: Mesh) -> np.ndarray:
    """Oriented chordal volumes.

    For 3-coordinate charts this is det(E)/6.  For the 4-coordinate sphere
    chart the orientation is taken relative to the outward radial direction
    at the tet centroid.
    """
    E = tet_edge_matrices(mesh)
    if mesh.vertices.shape[1] == 3:
        return np.linalg.det(E) / 6.0
    x = mesh.tet_corner_coords()
    centroid = x.mean(axis=1)
    mats = np.concatenate([E, centroid[:, :, None]], axis=2)
    return np.linalg.det(mats) / 6.0


@dataclass
class GeometrySpec:
    """Analytic geometry sampled at quadrature points.

    ``mean_curvature`` values are meaningful only at boundary vertices
    (zero elsewhere).  ``boundary_density`` is the root determinant of the
    induced boundary metric at the triangle quadrature points.
    """

    metric: np.ndarray  # (nt, nq, 3, 3)
    volume_density: np.ndarray  # (nt, nq)
    scalar_curvature: ScalarField
    mean_curvature: Optional[ScalarField]
    boundary_density: Optional[np.ndarray]  # (nb, nqb)
    preset_id: str
    conformal_flat_factor: Optional[ScalarField] = None
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        g = self.metric
        if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
            raise ValueError("metric not symmetric")
        evals = np.linalg.eigvalsh(g)
        if evals.min() <= 0:
            raise ValueError("metric not positive definite at a quadrature point")
        dens = np.sqrt(np.linalg.det(g))
        rel = np.abs(self.volume_density - dens) / np.maximum(dens, 1e-300)
        if rel.max(initial=0.0) > 1e-12:
            raise ValueError("volume_density inconsistent with sqrt(det metric)")


@dataclass
class Domain:
    """A connected vertex subdomain with interior and frontier split."""

    vertex_set: np.ndarray
    interior_set: np.ndarray
    frontier_set: np.ndarray
    mesh_id: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vertex_set = np.asarray(self.vertex_set, dtype=np.int64)
        self.interior_set = np.asarray(self.interior_set, dtype=np.int64)
        self.frontier_set = np.asarray(self.frontier_set, dtype=np.int64)

    def mask(self, num_vertices: int) -> np.ndarray:
        m = np.zeros(num_vertices, dtype=bool)
        m[self.vertex_set] = True
        return m


# ---------------------------------------------------------------------------
# Mesh constructors
# ---------------------------------------------------------------------------


#: The six Kuhn tetrahedra of a unit cube, as corners di + 2*dj + 4*dk.
_KUHN_TETS = np.array(
    [[0, 1, 3, 7], [0, 3, 2, 7], [0, 2, 6, 7], [0, 6, 4, 7], [0, 4, 5, 7], [0, 5, 1, 7]]
)


def _kuhn_grid(m: int, npts: int) -> np.ndarray:
    """Kuhn tetrahedra of an m^3 cube grid: six per cube, cubes in (i, j, k) order.

    Grid point (i, j, k) has index (i*npts + j)*npts + k with each coordinate
    taken modulo ``npts``: ``npts == m`` wraps to the torus, ``npts == m + 1``
    gives the (m+1)^3 point grid of a solid cube.
    """
    offsets = (_KUHN_TETS[..., None] >> np.arange(3)) & 1  # (6, 4, 3)
    cubes = np.stack(np.meshgrid(*[np.arange(m)] * 3, indexing="ij"), axis=-1)
    c = (cubes.reshape(-1, 1, 1, 3) + offsets) % npts
    return ((c[..., 0] * npts + c[..., 1]) * npts + c[..., 2]).reshape(-1, 4)


def _fix_orientation(mesh_vertices: np.ndarray, tets: np.ndarray, period=None):
    """Swap two vertices of negatively oriented tets in place."""
    m = Mesh(mesh_vertices, tets, np.zeros((0, 3)), np.zeros(0), "tmp",
             {"period": period} if period else {})
    vols = tet_volumes(m)
    bad = vols < 0
    tets[bad] = tets[bad][:, [0, 2, 1, 3]]
    return tets


def _build_torus_mesh(m: int, mesh_id: str) -> Mesh:
    """Unit torus [0,1)^3 with m subdivisions per axis, Kuhn tetrahedra."""
    t = np.arange(m) / m
    coords = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    tets = _fix_orientation(coords, _kuhn_grid(m, m), period=1.0)
    return Mesh(
        coords,
        tets,
        np.zeros((0, 3), dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        mesh_id,
        {"period": 1.0},
    )


def _extract_boundary(vertices: np.ndarray, tets: np.ndarray):
    """Boundary faces (once-counted tet faces) with outward orientation signs."""
    # face f of every tet, then face f + 1; corner 3 - f is opposite face f
    faces = tets[:, _TET_FACES].reshape(-1, 4, 3).transpose(1, 0, 2).reshape(-1, 3)
    opp = tets[:, ::-1].T.ravel()
    _, inv, counts = np.unique(
        _face_keys(faces, len(vertices)), return_inverse=True, return_counts=True
    )
    on_bnd = counts[inv] == 1
    bfaces = faces[on_bnd]
    bopp = opp[on_bnd]
    # orientation: +1 if (v1-v0, v2-v0, normal-away-from-opposite) is
    # positively oriented, i.e. the stored vertex order is outward.
    v0 = vertices[bfaces[:, 0]]
    e1 = vertices[bfaces[:, 1]] - v0
    e2 = vertices[bfaces[:, 2]] - v0
    nrm = np.cross(e1, e2)
    inward = vertices[bopp] - v0
    # store faces reordered so the orientation flag is +1
    flip = ~(np.einsum("ij,ij->i", nrm, inward) < 0)
    bfaces[flip] = bfaces[flip][:, [0, 2, 1]]
    return bfaces, np.ones(len(bfaces), dtype=np.int64)


def _build_ball_mesh(m: int, mesh_id: str) -> Mesh:
    """Unit Euclidean ball: cube grid on [-1,1]^3 mapped radially to the ball."""
    lin = np.linspace(-1.0, 1.0, m + 1)
    coords = np.stack(np.meshgrid(lin, lin, lin, indexing="ij"), axis=-1).reshape(-1, 3)
    tets = _kuhn_grid(m, m + 1)
    # map cube onto ball: x -> x * ||x||_inf / ||x||_2
    norm_inf = np.abs(coords).max(axis=1)
    norm_2 = np.linalg.norm(coords, axis=1)
    scale = np.where(norm_2 > 0, norm_inf / np.maximum(norm_2, 1e-300), 0.0)
    coords = coords * scale[:, None]
    tets = _fix_orientation(coords, tets)
    bfaces, bsign = _extract_boundary(coords, tets)
    return Mesh(coords, tets, bfaces, bsign, mesh_id, {})


def _build_annulus_mesh(m: int, mesh_id: str) -> Mesh:
    """Ball mesh without the tets whose centroid lies inside radius 1/2, reindexed."""
    ball = _build_ball_mesh(m, mesh_id)
    centroids = ball.vertices[ball.tets].mean(axis=1)
    tets = ball.tets[np.linalg.norm(centroids, axis=1) > 0.5]
    used = np.unique(tets)
    remap = -np.ones(ball.num_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    tets = remap[tets]
    verts = ball.vertices[used]
    bfaces, bsign = _extract_boundary(verts, tets)
    return Mesh(verts, tets, bfaces, bsign, mesh_id, {"inner_radius": 0.5})


#: Eight children of a tet over the columns of ``corners`` in the refinement:
#: four corner tets, then the octahedron split along the m02-m13 diagonal.
_REFINED_TETS = np.array([[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9],
                          [4, 5, 8, 6], [4, 5, 7, 8], [5, 6, 8, 9], [5, 7, 8, 9]])


def _build_round_s3_mesh(refinement: int, mesh_id: str) -> Mesh:
    """Refined 16-cell projected onto the unit 3-sphere in R^4."""
    # index of +e_a is 2a, -e_a is 2a+1; one tet per choice of signs
    verts = np.zeros((8, 4))
    verts[np.arange(8), np.arange(8) // 2] = np.tile([1.0, -1.0], 4)
    tets = np.indices((2, 2, 2, 2)).reshape(4, -1).T + [0, 2, 4, 6]

    for _ in range(refinement):
        # midpoints of the six edges of every tet, numbered by first appearance
        n = len(verts)
        a, b = np.sort(tets[:, _TET_EDGES].reshape(-1, 2), axis=1).T
        _, first, inv = np.unique(a * n + b, return_index=True, return_inverse=True)
        order = np.argsort(first)
        ends = first[order]
        mid = (verts[a[ends]] + verts[b[ends]]) / 2.0
        mid = mid / np.sqrt(np.vecdot(mid, mid))[:, None]
        verts = np.concatenate([verts, mid], axis=0)
        # corners v0..v3 and midpoints m01 m02 m03 m12 m13 m23 as columns 0..9
        mids = n + np.argsort(order)[inv].reshape(-1, 6)
        corners = np.concatenate([tets, mids], axis=1)
        tets = corners[:, _REFINED_TETS].reshape(-1, 4)

    tets = _fix_orientation(verts, tets)
    return Mesh(
        verts,
        tets,
        np.zeros((0, 3), dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        mesh_id,
        {},
    )


# ---------------------------------------------------------------------------
# Geometry samplers
# ---------------------------------------------------------------------------


def _flat_geometry_arrays(mesh: Mesh):
    """Pullback metric E^T E per tet and boundary densities.

    The metric is constant in q: a read-only view repeating each tet's matrix.
    The density is one determinant per tet, repeated into a (nt, nq) array.
    """
    E = tet_edge_matrices(mesh)  # (nt, 3, 3)
    G = np.einsum("tki,tkj->tij", E, E)
    nq = TET_QP.shape[0]
    metric = np.broadcast_to(G[:, None, :, :], (len(G), nq, 3, 3))
    density = np.repeat(np.sqrt(np.linalg.det(G))[:, None], nq, axis=1)
    bdens = None
    if mesh.boundary_faces.size:
        x = mesh.vertices[mesh.boundary_faces]  # (nb, 3, dim)
        e1 = x[:, 1] - x[:, 0]
        e2 = x[:, 2] - x[:, 0]
        g11 = np.einsum("ij,ij->i", e1, e1)
        g22 = np.einsum("ij,ij->i", e2, e2)
        g12 = np.einsum("ij,ij->i", e1, e2)
        area_dens = np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))
        bdens = np.broadcast_to(area_dens[:, None], (len(x), TRI_QP.shape[0])).copy()
    return metric, density, bdens


def _round_s3_geometry_arrays(mesh: Mesh):
    """Exact pullback of the round metric under radial projection."""
    x = mesh.tet_corner_coords()  # (nt, 4, 4)
    E = tet_edge_matrices(mesh)  # (nt, 4, 3)
    nq = TET_QP.shape[0]
    metric = np.empty((mesh.num_tets, nq, 3, 3))
    ExE = np.einsum("tki,tkj->tij", E, E)  # independent of the quadrature point
    for q in range(nq):
        lam = TET_QP[q]
        xq = np.einsum("c,tcd->td", lam, x)  # (nt, 4)
        r2 = np.einsum("td,td->t", xq, xq)
        # projector (I - xhat xhat^T)/|x|^2 applied between edge columns
        Ex = np.einsum("tk,tkj->tj", xq, E)  # (nt, 3)
        metric[:, q] = (ExE - Ex[:, :, None] * Ex[:, None, :] / r2[:, None, None]) / r2[
            :, None, None
        ]
    density = np.sqrt(np.linalg.det(metric))
    return metric, density, None


def _bump_profile(d2: np.ndarray, radius: float) -> np.ndarray:
    """Smooth bump: cos^2(pi/2 * d/radius) inside, 0 outside (C^1)."""
    d = np.sqrt(np.maximum(d2, 0.0))
    t = np.clip(d / radius, 0.0, 1.0)
    return np.cos(0.5 * np.pi * t) ** 2


# calibrated preset constants (see tests for the standing-hypothesis checks)
BUMP_T3_CENTER = np.array([0.5, 0.5, 0.5])
BUMP_T3_RADIUS = 0.45
BUMP_T3_BACKGROUND = 16.0
BUMP_T3_DEPTH = 140.0
BALL_NEGR_R = -6.0
BALL_NEGR_H0 = (2.0, 2.5)  # h0 = c0 + c1 * z on the boundary sphere


_LCF = {"routing": "lcf-manifold", "locally_conformally_flat": True}
_NOT_LCF = {"routing": "not-lcf-in-O", "locally_conformally_flat": False}
_PRESET_METADATA = {
    "round-s3": {"routing": "scenario-a-sphere", "locally_conformally_flat": True},
    "flat-t3": _LCF,
    "ball-negR": {**_NOT_LCF, "marked_region_center": [0.0, 0.0, 0.0],
                  "marked_region_radius": 1.0},
    # the jagged inner boundary is recorded, not smoothed
    "annulus": {**_LCF, "topologically_admissible": True,
                "frontier_quality": "jagged-inner-boundary"},
    "bump-t3": {**_NOT_LCF, "marked_region_center": BUMP_T3_CENTER.tolist(),
                "marked_region_radius": BUMP_T3_RADIUS},
}


def build_preset(preset_id: str, refinement: int):
    """Build a named preset mesh and its analytic geometry.

    Returns (Mesh, GeometrySpec).  Known presets: round-s3, flat-t3,
    ball-negR, annulus, bump-t3.  The vertex budget is checked on the
    preset's exact vertex count (the ball grid's for the annulus) before
    anything is built.
    """
    if preset_id not in PRESET_IDS:
        raise ValueError(f"unknown preset '{preset_id}' (known: {PRESET_IDS})")
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    mesh_id = f"{preset_id}-r{refinement}"
    m = 4 * 2**refinement
    count, build, size = {
        "round-s3": ((16 * 8**refinement + 32 * 2**refinement) // 6,
                     _build_round_s3_mesh, refinement),
        "flat-t3": (m**3, _build_torus_mesh, m),
        "bump-t3": (m**3, _build_torus_mesh, m),
        "ball-negR": ((m + 1) ** 3, _build_ball_mesh, m),
        "annulus": ((m + 1) ** 3, _build_annulus_mesh, m),
    }[preset_id]
    if count > _VERTEX_BUDGET:
        raise ValueError("refinement exceeds the vertex budget")
    mesh = build(size, mesh_id)
    sampler = _round_s3_geometry_arrays if preset_id == "round-s3" else _flat_geometry_arrays
    metric, density, bdens = sampler(mesh)

    n = mesh.num_vertices
    R = np.full(n, {"round-s3": 6.0, "ball-negR": BALL_NEGR_R}.get(preset_id, 0.0))
    h = None if mesh.is_closed else np.zeros(n)
    if preset_id == "bump-t3":
        # flat torus carrying a sign-varying curvature coefficient
        d = mesh.displacement(np.broadcast_to(BUMP_T3_CENTER, mesh.vertices.shape),
                              mesh.vertices)
        R = BUMP_T3_BACKGROUND - BUMP_T3_DEPTH * _bump_profile(
            np.einsum("ij,ij->i", d, d), BUMP_T3_RADIUS)
    elif preset_id == "ball-negR":
        bnd = mesh.vertex_flags
        c0, c1 = BALL_NEGR_H0
        h[bnd] = c0 + c1 * mesh.vertices[bnd, 2]
    metadata = copy.deepcopy(_PRESET_METADATA[preset_id])
    psi = np.ones(n) if metadata["routing"] == "lcf-manifold" else None
    geom = GeometrySpec(
        metric, density, ScalarField(R, mesh_id),
        None if h is None else ScalarField(h, mesh_id), bdens, preset_id,
        conformal_flat_factor=None if psi is None else ScalarField(psi, mesh_id),
        metadata=metadata,
    )
    return mesh, geom


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


def extract_subdomain(mesh: Mesh, predicate: Callable[[np.ndarray], np.ndarray]) -> Domain:
    """Select a connected vertex subdomain by a coordinate predicate.

    The predicate receives the (nv, dim) coordinate array and returns a
    boolean mask.  The selection must be nonempty, a proper subset on a
    closed mesh, edge-connected, and have a nonempty interior.
    """
    sel = np.asarray(predicate(mesh.vertices), dtype=bool)
    if sel.shape != (mesh.num_vertices,):
        raise ValueError("predicate must return one boolean per vertex")
    if not sel.any():
        raise ValueError("empty selection")
    if sel.all() and mesh.is_closed:
        raise ValueError("selection is not a proper subset of a closed mesh")

    # connectivity of the edge graph restricted to the selection
    graph = mesh.vertex_graph()
    if connected_components(graph[sel][:, sel], directed=False)[0] > 1:
        raise ValueError("selection is disconnected")

    # frontier: adjacent to the complement (edge lengths are positive), or on
    # the mesh boundary
    frontier_mask = sel & ((graph @ ~sel > 0) | mesh.vertex_flags)
    interior = np.flatnonzero(sel & ~frontier_mask)
    if interior.size == 0:
        raise ValueError("selection has empty interior")
    frontier = np.flatnonzero(frontier_mask)
    return Domain(np.flatnonzero(sel), interior, frontier, mesh.mesh_id)


def ball_domain(mesh: Mesh, center, radius: float) -> Domain:
    """The :func:`extract_subdomain` of the open chart ball |x - center| < radius.

    Distances honor a periodic chart's wrap.
    """
    center = np.asarray(center, dtype=np.float64)

    def pred(v):
        d = mesh.displacement(np.broadcast_to(center, v.shape), v)
        return np.einsum("ij,ij->i", d, d) < float(radius) ** 2

    return extract_subdomain(mesh, pred)


def make_punctured_domain(
    mesh: Mesh, domain: Domain, center_vertex: int, eps: float
) -> Domain:
    """Remove the closed vertex star around a puncture center.

    ``eps`` is snapped to the nearest resolvable mesh radius: all selected
    vertices within chart distance eps of the center are removed together
    with the center itself, and the puncture is recorded in the metadata.
    """
    if center_vertex not in set(domain.interior_set.tolist()):
        raise ValueError("puncture center must be interior to the domain")
    center = mesh.vertices[center_vertex]
    sel = domain.mask(mesh.num_vertices)
    d = np.linalg.norm(
        mesh.displacement(np.broadcast_to(center, mesh.vertices.shape), mesh.vertices),
        axis=1,
    )
    # snap: remove at least the one-ring of the center
    graph = mesh.vertex_graph()
    ring = graph.indices[graph.indptr[center_vertex] : graph.indptr[center_vertex + 1]]
    eps_snap = max(eps, float(d[ring].max()) * (1 + 1e-12))
    removed = d <= eps_snap
    sel2 = sel & ~removed
    dom = extract_subdomain(mesh, lambda _: sel2)
    dom.metadata["puncture_center"] = center.tolist()
    dom.metadata["puncture_vertex"] = int(center_vertex)
    dom.metadata["puncture_eps"] = eps_snap
    return dom


# ---------------------------------------------------------------------------
# Mollification and admissible functions
# ---------------------------------------------------------------------------


def _mollify_weights(mesh: Mesh, width: float):
    """Sparse stencil weights: Wendland-type kernel over graph neighborhoods."""
    cached = mesh._mollify_weights.get(width)
    if cached is not None:
        return cached
    graph = mesh.vertex_graph()
    n = mesh.num_vertices
    rows_all, cols_all, vals_all = [], [], []
    # chunked truncated distances keep the dense scratch at O(chunk * n)
    chunk = max(1, min(n, int(2**25 // max(n, 1))))
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        dist = dijkstra(graph, directed=False, limit=width, indices=idx)
        r, c = np.nonzero(np.isfinite(dist) & (dist < width))
        d = dist[r, c]
        rows_all.append(idx[r])
        cols_all.append(c)
        vals_all.append((1.0 - (d / width) ** 2) ** 2)
    W = coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n, n),
    ).tocsr()
    # self weight: distance 0 gives kernel 1 (present via the zero diagonal of
    # dijkstra output)
    norm = np.asarray(W.sum(axis=1)).ravel()
    mesh._mollify_weights[width] = (W, norm)
    return W, norm


def mollify(field: ScalarField, mesh: Mesh, width: float) -> ScalarField:
    """Vertex-weighted local averaging over graph neighborhoods of radius width."""
    min_edge = mesh.min_edge_length()
    if width < 2.0 * min_edge:
        raise ValueError(
            f"mollification width {width} below resolvable scale "
            f"(2 * min edge = {2 * min_edge})"
        )
    W, norm = _mollify_weights(mesh, width)
    out = W.dot(field.values) / norm
    return ScalarField(out, field.mesh_id, {"mollified_width": width})


def construct_admissible_function(
    base: ScalarField,
    region: Domain,
    level: float,
    width: float,
    mesh: Mesh,
) -> ScalarField:
    """Flatten ``base`` to the constant ``level`` on a region, smoothly.

    The output equals ``level`` exactly on the core, the region eroded by
    ``width`` (:func:`erode_region`), equals ``base`` outside the region
    dilated by ``width``, and transitions by mollification in between.  The
    level and the core, as a vertex mask, are recorded in the metadata as
    ``admissible_level`` and ``admissible_core``: the core is the open set
    on which the target is a positive constant, where the local solve runs.
    A level <= 0 or an empty core is a ``ValueError``.
    """
    if level <= 0:
        raise ValueError("level must be > 0")
    sel = region.mask(mesh.num_vertices)
    dist_to_region = dijkstra(
        mesh.vertex_graph(), directed=False, indices=region.vertex_set, min_only=True
    )
    core = erode_region(mesh, region.vertex_set, width)
    if not core.any():
        raise ValueError("region too small to contain an eroded core")
    far = ~sel & (dist_to_region >= width)

    raw = base.copy()
    raw.values[sel] = level
    out = mollify(raw, mesh, width)
    out.values[core] = level
    out.values[far] = base.values[far]
    out.metadata.update(
        {
            "admissible_level": float(level),
            "admissible_core": core,
        }
    )
    return out


def erode_region(mesh: Mesh, vertex_set: np.ndarray, width: float) -> np.ndarray:
    """Boolean mask of the region eroded by graph distance ``width``.

    :func:`construct_admissible_function` pins its level on this core and
    records it as ``admissible_core``, so the core is exactly where a
    constructed admissible function is guaranteed to equal its constant
    level.  No other module erodes a region.
    """
    n = mesh.num_vertices
    sel = np.zeros(n, dtype=bool)
    sel[np.asarray(vertex_set, dtype=np.int64)] = True
    if width <= 0:
        return sel
    comp = np.flatnonzero(~sel)
    if not comp.size:
        return sel
    graph = mesh.vertex_graph()
    dist = dijkstra(graph, directed=False, indices=comp, min_only=True)
    return sel & (dist >= width)


# ---------------------------------------------------------------------------
# CYWMESH text format
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path=None) -> str:
    """Serialize a mesh in the CYWMESH 1 text format.

    Returns the text; writes it to ``path`` when given.  VERTICES lines
    carry 3 or 4 coordinates depending on the chart.
    """
    buf = io.StringIO()
    buf.write("CYWMESH 1\n")
    buf.write(f"# mesh_id {mesh.mesh_id}\n")
    buf.write("VERTICES\n")
    for i, v in enumerate(mesh.vertices):
        buf.write(f"{i} " + " ".join(repr(float(c)) for c in v) + "\n")
    buf.write("TETS\n")
    for t in mesh.tets:
        buf.write(" ".join(str(int(i)) for i in t) + "\n")
    buf.write("BFACES\n")
    for f, s in zip(mesh.boundary_faces, mesh.boundary_orientation):
        buf.write(" ".join(str(int(i)) for i in f) + f" {int(s)}\n")
    buf.write("FLAGS\n")
    for k in sorted(mesh.metadata):
        buf.write(f"{k}={mesh.metadata[k]!r}\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def read_mesh(source) -> Mesh:
    """Parse the CYWMESH 1 text format from a string or file path.

    The parsed mesh is checked with :meth:`Mesh.validate`; a ValueError is
    raised for a malformed mesh or more vertices than the vertex budget.
    """
    if "\n" not in str(source):
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    lines = text.splitlines()
    if not lines or lines[0].strip() != "CYWMESH 1":
        raise ValueError("not a CYWMESH 1 file")
    mesh_id = "unnamed"
    section = None
    verts, tets, bfaces, bsign = [], [], [], []
    metadata = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "mesh_id":
                mesh_id = parts[1]
            continue
        if line in ("VERTICES", "TETS", "BFACES", "FLAGS"):
            section = line
            continue
        if section == "VERTICES":
            parts = line.split()
            verts.append([float(x) for x in parts[1:]])
        elif section == "TETS":
            tets.append([int(x) for x in line.split()])
        elif section == "BFACES":
            parts = [int(x) for x in line.split()]
            bfaces.append(parts[:3])
            bsign.append(parts[3])
        elif section == "FLAGS":
            k, _, v = line.partition("=")
            try:
                metadata[k] = ast.literal_eval(v)
            except Exception:
                metadata[k] = v
        else:
            raise ValueError(f"line outside any section: {line!r}")
    if len(verts) > _VERTEX_BUDGET:
        raise ValueError(f"{len(verts)} vertices exceed the vertex budget")
    mesh = Mesh(
        np.array(verts, dtype=np.float64),
        np.array(tets, dtype=np.int64).reshape(-1, 4),
        np.array(bfaces, dtype=np.int64).reshape(-1, 3),
        np.array(bsign, dtype=np.int64),
        mesh_id,
        metadata,
    )
    mesh.validate()
    return mesh
