"""Mesh construction, domains, admissible fields, mesh file I/O."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cywbench import geometry, operators
from cywbench.geometry import ScalarField

from conftest import assembled, preset


def test_flat_torus_total_volume():
    # the unit 3-torus has volume exactly 1; Kuhn subdivision is exact
    mesh, _ = preset("flat-t3", 1)
    assert abs(geometry.tet_volumes(mesh).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("preset_id", ["flat-t3", "ball-negR", "annulus", "bump-t3"])
def test_flat_volume_density_is_one_determinant_per_tet(preset_id):
    _, geom = preset(preset_id, 1)
    # the value before the per-tet determinant: det of the repeated view
    assert np.array_equal(geom.volume_density, np.sqrt(np.linalg.det(geom.metric)))
    assert geom.volume_density.flags.c_contiguous
    assert geom.volume_density.shape == geom.metric.shape[:2]


def test_tet_volumes_positive_all_presets():
    for pid in ("flat-t3", "round-s3", "ball-negR", "bump-t3", "annulus"):
        mesh, _ = preset(pid, 1)
        assert geometry.tet_volumes(mesh).min() > 0, pid


def test_round_s3_vertices_unit():
    mesh, geom = preset("round-s3", 2)
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    # the round unit 3-sphere carries constant scalar curvature 6
    assert np.all(geom.scalar_curvature.values == 6.0)


def test_round_s3_geometry_matches_per_quadrature_point_form():
    # the form that recomputed E^T E at every quadrature point
    mesh, _ = preset("round-s3", 2)
    x = mesh.tet_corner_coords()
    E = geometry.tet_edge_matrices(mesh)
    metric = np.empty((mesh.num_tets, len(geometry.TET_QP), 3, 3))
    for q, lam in enumerate(geometry.TET_QP):
        xq = np.einsum("c,tcd->td", lam, x)
        r2 = np.einsum("td,td->t", xq, xq)
        ExE = np.einsum("tki,tkj->tij", E, E)
        Ex = np.einsum("tk,tkj->tj", xq, E)
        metric[:, q] = (ExE - Ex[:, :, None] * Ex[:, None, :] / r2[:, None, None]) / r2[
            :, None, None
        ]
    got_metric, got_density, boundary = geometry._round_s3_geometry_arrays(mesh, E)
    assert np.array_equal(got_metric, metric)
    assert np.array_equal(got_density, np.sqrt(np.linalg.det(metric)))
    assert boundary is None


def test_round_s3_volume_converges():
    # vol(S^3) = 2 pi^2; the chordal simplices underestimate but converge
    from conftest import assembled

    errs = []
    for r in (1, 2, 3):
        vol = float(assembled("round-s3", r).mass_lumped.sum())
        errs.append(abs(vol - 2 * math.pi**2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / (2 * math.pi**2) < 0.05


def test_ball_preset_has_boundary_and_negative_R():
    mesh, geom = preset("ball-negR", 1)
    assert mesh.boundary_faces.size > 0
    assert geom.scalar_curvature.values.max() < 0


def test_bump_t3_marked_region_negative():
    mesh, geom = preset("bump-t3", 1)
    center = np.array(geom.metadata["marked_region_center"])
    d = mesh.displacement(
        np.broadcast_to(center, mesh.vertices.shape), mesh.vertices
    )
    inside = np.einsum("ij,ij->i", d, d) < (0.5 * geom.metadata[
        "marked_region_radius"]) ** 2
    assert geom.scalar_curvature.values[inside].max() < 0
    assert geom.scalar_curvature.values.max() > 0


def test_unknown_preset_rejected():
    with pytest.raises((KeyError, ValueError)):
        geometry.build_preset("no-such-preset", 1)


@pytest.mark.parametrize("pid,refinement", [
    ("flat-t3", 1.5), ("round-s3", 1.5), ("ball-negR", 1.5), ("flat-t3", True),
    ("bump-t3", np.float64(1.0)), ("annulus", "1"), ("round-s3", None),
])
def test_build_preset_refuses_a_non_integer_refinement(pid, refinement, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(geometry, "_fix_orientation", no_build)
    with pytest.raises(ValueError, match="refinement must be an integer"):
        geometry.build_preset(pid, refinement)


@pytest.mark.parametrize("refinement", [-1, np.int64(-1)])
def test_build_preset_refuses_a_negative_refinement(refinement):
    with pytest.raises(ValueError, match="refinement must be >= 0"):
        geometry.build_preset("flat-t3", refinement)


@pytest.mark.parametrize("pid", ["round-s3", "flat-t3", "ball-negR"])
def test_build_preset_accepts_numpy_integers(pid):
    mesh, geom = geometry.build_preset(pid, np.int64(1))
    ref, ref_geom = preset(pid, 1)
    assert mesh.mesh_id == ref.mesh_id == f"{pid}-r1"
    assert np.array_equal(mesh.tets, ref.tets)
    assert geom.volume_density.tobytes() == ref_geom.volume_density.tobytes()


@pytest.mark.parametrize("pid,count", [
    ("round-s3", 32), ("flat-t3", 512), ("bump-t3", 512),
    ("ball-negR", 729), ("annulus", 729),  # the annulus is cut from the ball grid
])
def test_vertex_budget_is_checked_on_the_exact_count(pid, count, monkeypatch):
    monkeypatch.setattr(geometry, "_VERTEX_BUDGET", count - 1)
    with pytest.raises(ValueError, match="vertex budget"):
        geometry.build_preset(pid, 1)
    monkeypatch.setattr(geometry, "_VERTEX_BUDGET", count)
    mesh, _ = geometry.build_preset(pid, 1)
    assert (mesh.num_vertices < count) if pid == "annulus" else (mesh.num_vertices == count)


@pytest.mark.parametrize("pid,refinement,conformal",
                         [(p, r, False) for p in geometry.PRESET_IDS for r in (0, 1)]
                         + [("bump-t3", 1, True)])
def test_geometry_spec_validate(pid, refinement, conformal):
    mesh, geom = preset(pid, refinement)
    if conformal:
        v = ScalarField(1.0 + 0.1 * np.sin(2 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id)
        geom = operators.conformal_change(geom, v, assembled(pid, refinement))
    geom.validate()
    scaled = dataclasses.replace(geom, volume_density=geom.volume_density * (1 + 1e-9))
    with pytest.raises(ValueError, match="volume_density"):
        scaled.validate()


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_extract_subdomain_partition():
    mesh, _ = preset("flat-t3", 2)
    dom = geometry.extract_subdomain(
        mesh,
        lambda v: np.einsum(
            "ij,ij->i",
            mesh.displacement(np.broadcast_to([0.5, 0.5, 0.5], v.shape), v),
            mesh.displacement(np.broadcast_to([0.5, 0.5, 0.5], v.shape), v),
        )
        < 0.3**2,
    )
    vs = set(dom.vertex_set.tolist())
    assert vs == set(dom.interior_set.tolist()) | set(dom.frontier_set.tolist())
    assert not set(dom.interior_set.tolist()) & set(dom.frontier_set.tolist())
    # every frontier vertex has a neighbor outside the selection
    graph = mesh.vertex_graph()
    for v in dom.frontier_set:
        nbrs = graph.indices[graph.indptr[v]: graph.indptr[v + 1]]
        assert any(int(w) not in vs for w in nbrs)


def test_extract_subdomain_rejects_empty_and_full():
    mesh, _ = preset("flat-t3", 1)
    with pytest.raises(ValueError):
        geometry.extract_subdomain(mesh, lambda v: np.zeros(len(v), bool))
    with pytest.raises(ValueError):
        geometry.extract_subdomain(mesh, lambda v: np.ones(len(v), bool))


def test_make_punctured_domain_removes_star():
    mesh, _ = preset("ball-negR", 2)
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v, v) < 0.65**2
    )
    center = int(dom.interior_set[np.argmin(
        np.einsum("ij,ij->i", mesh.vertices[dom.interior_set],
                  mesh.vertices[dom.interior_set]))])
    punct = geometry.make_punctured_domain(mesh, dom, center, 1e-6)
    assert center not in set(punct.vertex_set.tolist())
    assert "puncture_vertex" in punct.metadata
    graph = mesh.vertex_graph()
    ring = graph.indices[graph.indptr[center]: graph.indptr[center + 1]]
    assert not set(ring.tolist()) & set(punct.interior_set.tolist())


def test_erode_region_subset_and_identity():
    mesh, _ = preset("flat-t3", 2)
    dom = geometry.extract_subdomain(
        mesh,
        lambda v: np.einsum(
            "ij,ij->i",
            mesh.displacement(np.broadcast_to([0.5, 0.5, 0.5], v.shape), v),
            mesh.displacement(np.broadcast_to([0.5, 0.5, 0.5], v.shape), v),
        )
        < 0.35**2,
    )
    full = geometry.erode_region(mesh, dom.vertex_set, 0.0)
    assert full.sum() == len(dom.vertex_set)
    core = geometry.erode_region(mesh, dom.vertex_set, 2 * mesh.min_edge_length())
    assert core.sum() < full.sum()
    assert not (core & ~full).any()


# ---------------------------------------------------------------------------
# admissible fields and mollification
# ---------------------------------------------------------------------------


def test_ball_domain_wraps_on_the_torus():
    mesh, _ = preset("flat-t3", 1)
    dom = geometry.ball_domain(mesh, [0.0, 0.0, 0.0], 0.3)
    chosen = mesh.vertices[dom.vertex_set]
    # the chart ball around the origin reaches across the periodic wrap
    assert (chosen[:, 0] > 0.5).any()
    d = mesh.displacement(np.zeros_like(mesh.vertices), mesh.vertices)
    assert np.array_equal(dom.vertex_set, np.flatnonzero(np.einsum("ij,ij->i", d, d) < 0.09))


def test_construct_admissible_function_contract():
    mesh, _ = preset("flat-t3", 2)
    region = geometry.ball_domain(mesh, [0.5, 0.5, 0.5], 0.3)
    base = ScalarField(
        2.0 + np.sin(2 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id
    )
    width = 2 * mesh.min_edge_length()
    level = 1.5
    S = geometry.construct_admissible_function(base, region, level, width, mesh)
    core = geometry.erode_region(mesh, region.vertex_set, width)
    assert np.array_equal(S.metadata["admissible_core"], core)
    assert S.metadata["admissible_level"] == level
    assert np.all(S.values[core] == level)
    outside = ~region.mask(mesh.num_vertices)
    far = geometry.erode_region(mesh, np.flatnonzero(outside), width)
    assert np.allclose(S.values[far], base.values[far])
    lo = min(level, base.values.min())
    hi = max(level, base.values.max())
    assert S.values.min() >= lo - 1e-12 and S.values.max() <= hi + 1e-12


def test_construct_admissible_function_rejects_bad_width():
    mesh, _ = preset("flat-t3", 1)
    region = geometry.ball_domain(mesh, [0.5, 0.5, 0.5], 0.3)
    base = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    with pytest.raises(ValueError):
        geometry.construct_admissible_function(base, region, 1.0, -0.1, mesh)


@settings(max_examples=20, deadline=None)
@given(width=st.floats(min_value=0.3, max_value=0.6),
       const=st.floats(min_value=-5, max_value=5))
def test_mollify_preserves_constants_and_bounds(width, const):
    mesh, _ = preset("flat-t3", 1)
    c = ScalarField(np.full(mesh.num_vertices, const), mesh.mesh_id)
    out = geometry.mollify(c, mesh, width)
    assert np.allclose(out.values, const, atol=1e-12)
    rng = np.random.default_rng(7)
    f = ScalarField(rng.uniform(-1, 1, mesh.num_vertices), mesh.mesh_id)
    sm = geometry.mollify(f, mesh, width)
    assert sm.values.min() >= f.values.min() - 1e-12
    assert sm.values.max() <= f.values.max() + 1e-12


def test_mollify_weights_cached_per_width(monkeypatch):
    mesh, _ = geometry.build_preset("flat-t3", 1)
    f = ScalarField(np.random.default_rng(3).uniform(-1, 1, mesh.num_vertices),
                    mesh.mesh_id)
    fresh = geometry.mollify(f, geometry.build_preset("flat-t3", 1)[0], 0.4).values
    sweeps = []
    dijkstra = geometry.dijkstra
    monkeypatch.setattr(geometry, "dijkstra",
                        lambda *a, **k: sweeps.append(1) or dijkstra(*a, **k))
    first = geometry.mollify(f, mesh, 0.4).values
    swept = len(sweeps)
    second = geometry.mollify(f, mesh, 0.4).values
    assert len(sweeps) == swept > 0
    assert np.array_equal(first, fresh) and np.array_equal(second, fresh)
    geometry.mollify(f, mesh, 0.5)
    assert len(sweeps) > swept


# ---------------------------------------------------------------------------
# mesh file format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pid", ["flat-t3", "round-s3", "ball-negR"])
def test_mesh_roundtrip(pid, tmp_path):
    mesh, _ = preset(pid, 1)
    path = tmp_path / "m.mesh"
    text = geometry.write_mesh(mesh, path)
    assert text.startswith("CYWMESH 1\n")
    back = geometry.read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.tets, mesh.tets)
    assert np.array_equal(back.boundary_faces, mesh.boundary_faces)
    assert geometry.write_mesh(back) == text


def test_read_mesh_rejects_bad_header():
    with pytest.raises(ValueError):
        geometry.read_mesh("NOTAMESH 9\nVERTICES\n")


class _FlagsProbe:
    hits = []


def test_read_mesh_flags_are_literals_only(tmp_path):
    mesh, _ = preset("flat-t3", 1)
    payload = ("[c for c in ().__class__.__base__.__subclasses__() "
               "if c.__name__ == '_FlagsProbe'][0].hits.append(1)")
    text = geometry.write_mesh(mesh) + (
        f"escape={payload}\ncount=3\nscale=0.25\nshape=(1, 2.5, 'a')\n")
    back = geometry.read_mesh(text)
    assert back.metadata["escape"] == payload
    assert _FlagsProbe.hits == []
    assert back.metadata["count"] == 3
    assert back.metadata["scale"] == 0.25
    assert back.metadata["shape"] == (1, 2.5, "a")
    assert back.metadata["period"] == mesh.metadata["period"]


def _corrupt(text, section, index, replace):
    """Mesh text with line ``index`` of ``section`` replaced (None drops it)."""
    lines = text.splitlines(keepends=True)
    at = lines.index(section + "\n") + 1 + index
    lines[at:at + 1] = [] if replace is None else [replace(lines[at])]
    return "".join(lines)


def test_read_mesh_validates(monkeypatch):
    small = geometry.write_mesh(preset("ball-negR", 0)[0])
    for value in ("nan", "inf"):
        # the volume check alone would see NaN or infinite volumes, not the cause
        bad_vertex = _corrupt(small, "VERTICES", 0, lambda line: f"0 {value} 0.0 0.0\n")
        with pytest.raises(ValueError, match="non-finite vertex coordinate"):
            geometry.read_mesh(bad_vertex)
    mesh, _ = preset("ball-negR", 1)
    text = geometry.write_mesh(mesh)
    bad_tet = _corrupt(text, "TETS", 3,
                       lambda line: f"{mesh.num_vertices} " + line.split(" ", 1)[1])
    with pytest.raises(ValueError, match="tetrahedron index out of range"):
        geometry.read_mesh(bad_tet)
    with pytest.raises(ValueError, match="boundary face count"):
        geometry.read_mesh(_corrupt(text, "BFACES", 5, None))
    # grid points 0, 1, 2 lie on one line, so they span no face
    with pytest.raises(ValueError, match="not a once-counted tet face"):
        geometry.read_mesh(_corrupt(text, "BFACES", 5, lambda line: "0 1 2 1\n"))

    def swap(line):
        a, b, c, d = line.split()
        return f"{a} {c} {b} {d}\n"

    with pytest.raises(ValueError, match="non-positive oriented tetrahedron volume"):
        geometry.read_mesh(_corrupt(text, "TETS", 3, swap))
    monkeypatch.setattr(geometry, "_VERTEX_BUDGET", mesh.num_vertices - 1)
    with pytest.raises(ValueError, match="vertex budget"):
        geometry.read_mesh(text)


# ---------------------------------------------------------------------------
# oracles: the loop-based topology builders that the array code replaced;
# vertex and tet order feed every downstream solve, so they must agree bitwise
# ---------------------------------------------------------------------------


def _det_orientation(verts, tets, period=None):
    """Swap corners 1 and 2 where np.linalg.det gives a negative volume.

    The determinant is the one ``tet_volumes`` takes: of E on a 3-coordinate
    chart (periodic-unwrapped on the torus), of [E | centroid] on the sphere.
    """
    x = verts[tets]
    if period is not None:
        d = x - x[:, :1]
        x = x[:, :1] + (d - period * np.round(d / period))
    E = np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0], x[:, 3] - x[:, 0]], axis=2)
    if verts.shape[1] == 4:
        E = np.concatenate([E, x.mean(axis=1)[:, :, None]], axis=2)
    bad = np.linalg.det(E) < 0
    tets[bad] = tets[bad][:, [0, 2, 1, 3]]
    return tets


def _loop_kuhn_tets(m, idx):
    tets = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                i000, i100 = idx(i, j, k), idx(i + 1, j, k)
                i010, i110 = idx(i, j + 1, k), idx(i + 1, j + 1, k)
                i001, i101 = idx(i, j, k + 1), idx(i + 1, j, k + 1)
                i011, i111 = idx(i, j + 1, k + 1), idx(i + 1, j + 1, k + 1)
                tets += [(i000, i100, i110, i111), (i000, i110, i010, i111),
                         (i000, i010, i011, i111), (i000, i011, i001, i111),
                         (i000, i001, i101, i111), (i000, i101, i100, i111)]
    return np.array(tets, dtype=np.int64)


def _loop_boundary(vertices, tets):
    local = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1), (1, 2, 3, 0)]
    faces = np.concatenate([tets[:, [a, b, c]] for a, b, c, _ in local])
    opp = np.concatenate([tets[:, d] for *_, d in local])
    _, inv, counts = np.unique(np.sort(faces, axis=1), axis=0,
                               return_inverse=True, return_counts=True)
    on_bnd = counts[inv] == 1
    bfaces, bopp = faces[on_bnd], opp[on_bnd]
    v0 = vertices[bfaces[:, 0]]
    nrm = np.cross(vertices[bfaces[:, 1]] - v0, vertices[bfaces[:, 2]] - v0)
    flip = np.einsum("ij,ij->i", nrm, vertices[bopp] - v0) >= 0
    bfaces[flip] = bfaces[flip][:, [0, 2, 1]]
    return bfaces


def _loop_round_s3(refinement):
    verts = []
    for axis in range(4):
        for s in (1.0, -1.0):
            v = np.zeros(4)
            v[axis] = s
            verts.append(v)
    verts = np.array(verts)
    tets = np.array([(sa, 2 + sb, 4 + sc, 6 + sd) for sa in (0, 1) for sb in (0, 1)
                     for sc in (0, 1) for sd in (0, 1)], dtype=np.int64)
    for _ in range(refinement):
        edge_mid, new_verts = {}, [verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                mid = (verts[key[0]] + verts[key[1]]) / 2.0
                new_verts.append((mid / np.linalg.norm(mid))[None, :])
                edge_mid[key] = len(verts) + len(edge_mid)
            return edge_mid[key]

        new_tets = []
        for t in tets:
            v0, v1, v2, v3 = (int(v) for v in t)
            m01, m02, m03 = midpoint(v0, v1), midpoint(v0, v2), midpoint(v0, v3)
            m12, m13, m23 = midpoint(v1, v2), midpoint(v1, v3), midpoint(v2, v3)
            new_tets += [(v0, m01, m02, m03), (v1, m01, m12, m13),
                         (v2, m02, m12, m23), (v3, m03, m13, m23),
                         (m01, m02, m13, m03), (m01, m02, m12, m13),
                         (m02, m03, m13, m23), (m02, m12, m13, m23)]
        verts = np.concatenate(new_verts, axis=0)
        tets = np.array(new_tets, dtype=np.int64)
    return verts, _det_orientation(verts, tets), None


def _loop_preset(pid, refinement):
    """(vertices, tets, boundary faces or None) built by the loop oracles."""
    if pid == "round-s3":
        return _loop_round_s3(refinement)
    m = 4 * 2**refinement
    if pid in ("flat-t3", "bump-t3"):
        coords = np.array([[i / m, j / m, k / m]
                           for i in range(m) for j in range(m) for k in range(m)])
        tets = _loop_kuhn_tets(m, lambda i, j, k: ((i % m) * m + (j % m)) * m + (k % m))
        return coords, _det_orientation(coords, tets, period=1.0), None
    lin = np.linspace(-1.0, 1.0, m + 1)
    grid = np.meshgrid(lin, lin, lin, indexing="ij")
    coords = np.stack([g.ravel() for g in grid], axis=1)
    tets = _loop_kuhn_tets(m, lambda i, j, k: (i * (m + 1) + j) * (m + 1) + k)
    norm_2 = np.linalg.norm(coords, axis=1)
    norm_inf = np.abs(coords).max(axis=1)
    scale = np.where(norm_2 > 0, norm_inf / np.maximum(norm_2, 1e-300), 0.0)
    coords = coords * scale[:, None]
    tets = _det_orientation(coords, tets)
    if pid == "annulus":
        tets = tets[np.linalg.norm(coords[tets].mean(axis=1), axis=1) > 0.5]
        used = np.unique(tets)
        remap = -np.ones(len(coords), dtype=np.int64)
        remap[used] = np.arange(len(used))
        coords, tets = coords[used], remap[tets]
    return coords, tets, _loop_boundary(coords, tets)


@pytest.mark.parametrize("pid,refinement", [(p, r) for p in geometry.PRESET_IDS
                                            for r in (0, 1, 2)] + [("round-s3", 3)])
def test_preset_topology_matches_loop_oracle(pid, refinement):
    mesh, _ = preset(pid, refinement)
    verts, tets, bfaces = _loop_preset(pid, refinement)
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.tets.dtype == np.int64 and np.array_equal(mesh.tets, tets)
    if bfaces is None:
        assert mesh.boundary_faces.shape == (0, 3)
    else:
        assert np.array_equal(mesh.boundary_faces, bfaces)
        assert np.all(mesh.boundary_orientation == 1)
    pairs = tets[:, [0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]].reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    assert np.array_equal(mesh.edges(), np.unique(pairs, axis=0))
    mesh.validate()


def _recomputed_geometry_arrays(mesh):
    """Metric, volume and boundary densities by the formulas that recomputed E.

    These sampled the finished mesh: E from ``tet_edge_matrices`` and, on
    the sphere, the quadrature points from ``tet_corner_coords``.
    """
    E = geometry.tet_edge_matrices(mesh)
    nq = len(geometry.TET_QP)
    if mesh.vertices.shape[1] == 4:
        x = mesh.tet_corner_coords()
        metric = np.empty((mesh.num_tets, nq, 3, 3))
        ExE = np.einsum("tki,tkj->tij", E, E)
        for q in range(nq):
            xq = np.einsum("c,tcd->td", geometry.TET_QP[q], x)
            r2 = np.einsum("td,td->t", xq, xq)
            Ex = np.einsum("tk,tkj->tj", xq, E)
            metric[:, q] = (ExE - Ex[:, :, None] * Ex[:, None, :]
                            / r2[:, None, None]) / r2[:, None, None]
        return metric, np.sqrt(np.linalg.det(metric)), None
    G = np.einsum("tki,tkj->tij", E, E)
    metric = np.broadcast_to(G[:, None, :, :], (len(G), nq, 3, 3))
    density = np.repeat(np.sqrt(np.linalg.det(G))[:, None], nq, axis=1)
    bdens = None
    if mesh.boundary_faces.size:
        x = mesh.vertices[mesh.boundary_faces]
        e1, e2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
        g11 = np.einsum("ij,ij->i", e1, e1)
        g22 = np.einsum("ij,ij->i", e2, e2)
        g12 = np.einsum("ij,ij->i", e1, e2)
        area = np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))
        bdens = np.broadcast_to(area[:, None], (len(x), len(geometry.TRI_QP))).copy()
    return metric, density, bdens


@pytest.mark.parametrize("pid,refinement", [(p, r) for p in geometry.PRESET_IDS
                                            for r in (0, 1, 2)] + [("round-s3", 3)])
def test_preset_geometry_matches_the_finished_mesh_oracle(pid, refinement):
    # the builders hand their orientation pass's E to the sampler
    mesh, geom = preset(pid, refinement)
    metric, density, bdens = _recomputed_geometry_arrays(mesh)
    got = (geom.metric, geom.volume_density, geom.boundary_density)
    for g, w in zip(got, (metric, density, bdens)):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape and g.strides == w.strides
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


@pytest.mark.parametrize("pid", ["ball-negR", "round-s3"])
def test_face_keys_match_sorted_keys_on_every_permutation(pid):
    mesh, _ = preset(pid, 1)
    n = mesh.num_vertices
    big = 2**21 - 1  # the largest vertex count the keys are exact for
    rng = np.random.default_rng(5)
    cases = [(mesh.tets[:, geometry._TET_FACES].reshape(-1, 3), n),
             (rng.integers(0, big, size=(500, 3)), big),
             (np.array([[7, 7, 3], [0, 0, 0], [big - 1, 0, big - 1]]), big)]
    for faces, count in cases:
        a, b, c = np.sort(faces, axis=1).T
        expected = (a * count + b) * count + c
        for perm in itertools.permutations(range(3)):
            got = geometry._face_keys(faces[:, list(perm)], count)
            assert got.dtype == np.int64 and np.array_equal(got, expected)


def _bfs_subdomain(mesh, sel):
    """Domain parts, or the ValueError text, by breadth-first search."""
    vertex_set = np.flatnonzero(sel)
    graph = mesh.vertex_graph()
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(mesh.num_vertices, dtype=bool)
    stack = [int(vertex_set[0])]
    visited[vertex_set[0]] = True
    while stack:
        v = stack.pop()
        for w in indices[indptr[v]:indptr[v + 1]]:
            if sel[w] and not visited[w]:
                visited[w] = True
                stack.append(int(w))
    if not visited[vertex_set].all():
        return "selection is disconnected"
    frontier = np.zeros(mesh.num_vertices, dtype=bool)
    for v in vertex_set:
        if (~sel[indices[indptr[v]:indptr[v + 1]]]).any():
            frontier[v] = True
    frontier |= sel & mesh.vertex_flags
    interior = np.flatnonzero(sel & ~frontier)
    if interior.size == 0:
        return "selection has empty interior"
    return vertex_set, interior, np.flatnonzero(frontier)


@pytest.mark.parametrize("pid", ["ball-negR", "bump-t3"])
def test_extract_subdomain_matches_bfs_oracle(pid):
    mesh, _ = preset(pid, 1)
    rng = np.random.default_rng(11)
    x = mesh.vertices
    # random unions of one or two balls, a slab and (on the ball) everything
    selections = [x[:, 2] > 0.3, np.ones(mesh.num_vertices, bool)]
    for trial in range(30):
        centers = x[rng.integers(mesh.num_vertices, size=1 + trial % 2)]
        radius = rng.uniform(0.1, 0.9) / (1 + trial % 2)
        dist = np.linalg.norm(x[:, None, :] - centers[None], axis=2)
        selections.append((dist < radius).any(axis=1))
    outcomes = set()
    for sel in selections:
        if not sel.any() or (sel.all() and mesh.is_closed):
            continue
        expected = _bfs_subdomain(mesh, sel)
        try:
            dom = geometry.extract_subdomain(mesh, lambda _: sel)
        except ValueError as exc:
            assert str(exc) == expected
            outcomes.add(expected)
            continue
        got = (dom.vertex_set, dom.interior_set, dom.frontier_set)
        for g, w in zip(got, expected):
            assert g.dtype == np.int64 and np.array_equal(g, w)
        outcomes.add("ok")
    assert outcomes == {"ok", "selection is disconnected", "selection has empty interior"}
