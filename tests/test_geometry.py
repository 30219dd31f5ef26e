"""Mesh construction, domains, admissible fields, mesh file I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cywbench import geometry
from cywbench.geometry import ScalarField

from conftest import preset


def test_flat_torus_total_volume():
    # the unit 3-torus has volume exactly 1; Kuhn subdivision is exact
    mesh, _ = preset("flat-t3", 1)
    assert abs(geometry.tet_volumes(mesh).sum() - 1.0) < 1e-12


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


def _ball_domain(mesh, center, radius):
    def pred(v):
        d = mesh.displacement(np.broadcast_to(center, v.shape), v)
        return np.einsum("ij,ij->i", d, d) < radius**2

    return geometry.extract_subdomain(mesh, pred)


def test_construct_admissible_function_contract():
    mesh, _ = preset("flat-t3", 2)
    region = _ball_domain(mesh, [0.5, 0.5, 0.5], 0.3)
    base = ScalarField(
        2.0 + np.sin(2 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id
    )
    width = 2 * mesh.min_edge_length()
    level = 1.5
    S = geometry.construct_admissible_function(base, region, level, width, mesh)
    core = geometry.erode_region(mesh, region.vertex_set, width)
    assert np.all(S.values[core] == level)
    outside = ~region.mask(mesh.num_vertices)
    far = geometry.erode_region(mesh, np.flatnonzero(outside), width)
    assert np.allclose(S.values[far], base.values[far])
    lo = min(level, base.values.min())
    hi = max(level, base.values.max())
    assert S.values.min() >= lo - 1e-12 and S.values.max() <= hi + 1e-12


def test_construct_admissible_function_rejects_bad_width():
    mesh, _ = preset("flat-t3", 1)
    region = _ball_domain(mesh, [0.5, 0.5, 0.5], 0.3)
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
