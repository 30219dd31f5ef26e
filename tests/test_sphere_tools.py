"""Stereographic charts, symmetry conditions, integral obstructions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cywbench import sphere_tools as sph
from cywbench.geometry import ScalarField

from conftest import assembled, preset


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=4, max_size=4),
       st.sampled_from(["north", "south"]))
def test_stereo_roundtrip(raw, pole):
    v = np.asarray(raw)
    if np.linalg.norm(v) < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
    point = sph.SpherePoint(v / np.linalg.norm(v))
    tau_excluded = 1.0 if pole == "north" else -1.0
    if abs(point.tau - tau_excluded) < 1e-6:
        return
    x = sph.stereo_forward(point, pole)
    back = sph.stereo_inverse(x, pole)
    assert np.abs(back.ambient - point.ambient).max() < 1e-10


def test_stereo_forward_rejects_pole():
    north = sph.SpherePoint([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sph.stereo_forward(north, "north")
    assert np.allclose(sph.stereo_forward(north, "south"), 0.0)


def test_conformal_factor_value_at_origin():
    # Phi(0) = 2^{1/2} for n = 3 ((n-2)/2 = 1/2)
    assert abs(sph.conformal_factor_phi(np.zeros(3)) - np.sqrt(2.0)) < 1e-14


def test_sphere_point_rejects_non_unit():
    with pytest.raises(ValueError):
        sph.SpherePoint([1.0, 1.0, 0.0, 0.0])


def test_condition_a_requires_antipodal_pairing():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    with pytest.raises(ValueError):
        sph.check_condition_a(pts, lambda p: 1.0)


def test_condition_b_explicit_pairs():
    a = sph.SpherePoint([0.0, 0.0, 0.0, 1.0])
    b = sph.SpherePoint([0.0, 0.0, 0.0, -1.0])
    verdict = sph.check_condition_b(lambda p: float(p[-1] ** 2), [(a, b)])
    assert verdict.verdict.startswith("pass")
    verdict2 = sph.check_condition_b(lambda p: float(p[-1]), [(a, b)])
    assert verdict2.verdict == "fail"
    assert len(verdict2.witnesses) >= 1


def test_kw_obstruction_zero_for_constant_targets():
    # gradients of constant fields vanish identically, so the integral is 0
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    const = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    for H in sph.coordinate_fields(mesh):
        assert sph.kw_obstruction(const, one, H, ops) == 0.0


def test_obstructions_match_batched_inverse():
    # the closed-form metric inverse against np.linalg.inv, the path before it
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    x = mesh.vertices
    S = ScalarField(2.0 + x[:, 0] + 0.5 * x[:, 1] * x[:, 2], mesh.mesh_id)
    u = ScalarField(1.0 + 0.3 * x[:, 3] ** 2, mesh.mesh_id)
    a = np.array([1.0, -0.5, 0.25, 2.0])
    ginv = np.linalg.inv(geom.metric)
    gS = np.einsum("cd,tc->td", sph.BARY_GRAD, S.values[mesh.tets])
    up = np.abs(ops.quad_values(u.values)) ** ops.constants.p
    for H in sph.coordinate_fields(mesh):
        gH = np.einsum("cd,tc->td", sph.BARY_GRAD, H.values[mesh.tets])
        inner = np.einsum("td,tqde,te->tq", gH, ginv, gS) * up
        want = ops.integrate(inner)
        # three of the four integrals cancel to rounding level: scale by |integrand|
        assert abs(sph.kw_obstruction(S, u, H, ops) - want) <= 1e-12 * ops.integrate(abs(inner))
    mag = np.sqrt(np.maximum(np.einsum("td,tqde,te->tq", gS, ginv, gS), 0.0))
    want = float(np.linalg.norm(a)) * ops.integrate(mag)
    assert abs(sph.be_scale(S, a, ops) - want) <= 1e-12 * want


def test_be_obstruction_rejects_zero_direction():
    mesh, geom = preset("round-s3", 1)
    ops = assembled("round-s3", 1)
    with pytest.raises(ValueError):
        sph.be_obstruction(geom.scalar_curvature, np.zeros(4), mesh, ops)


def test_be_obstruction_small_for_constant_curvature():
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    scale = sph.be_scale(
        geom.scalar_curvature, np.array([1.0, 0, 0, 0]), ops
    )
    for i in range(4):
        a = np.zeros(4)
        a[i] = 1.0
        val = sph.be_obstruction(geom.scalar_curvature, a, mesh, ops)
        assert abs(val) <= 1e-6 * max(scale, 1.0)


def test_obstruction_report_structure():
    mesh, geom = preset("round-s3", 1)
    ops = assembled("round-s3", 1)
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    const = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    rep = sph.obstruction_report(const, one, geom.scalar_curvature, ops)
    assert set(rep.kw_values) == {"z0", "z1", "z2", "z3"}
    assert set(rep.be_values) == {"e0", "e1", "e2", "e3"}
    assert "basis_note" in rep.metadata


# ---------------------------------------------------------------------------
# batched CONDITION A against the per-point loop it replaced
# ---------------------------------------------------------------------------


def _loop_gradient(Q, P):
    """Per-point central differences of Q''(x) = Q(x/|x|), one Q call each."""
    g = np.empty(P.shape[0])
    for i in range(P.shape[0]):
        e = np.zeros(P.shape[0])
        e[i] = sph.FD_STEP
        xp, xm = P + e, P - e
        g[i] = (Q(xp / np.linalg.norm(xp)) - Q(xm / np.linalg.norm(xm))) / (
            2.0 * sph.FD_STEP)
    return g


def _loop_condition_a(points, Q):
    """Oracle: the scalar pair loop, pairing by nearest antipode."""
    _, idx = cKDTree(points).query(-points)
    return _loop_pairs(points, [(i, int(j)) for i, j in enumerate(idx) if i < j], Q)


def _loop_pairs(points, pairs, Q):
    """Oracle: the scalar loop over the given index pairs."""
    qvals = np.array([float(Q(p)) for p in points])
    qmax = float(np.abs(qvals).max())
    val_tol = sph.VALUE_TOL * (1.0 + qmax)
    grads = np.array([_loop_gradient(Q, p) for p in points])
    grad_tol = sph.GRAD_TOL * (1.0 + float(np.linalg.norm(grads, axis=1).max()))
    witnesses = []
    for i, j in pairs:
        tau_hat = (points[j] - points[i]) / np.linalg.norm(points[j] - points[i])
        gap_v = abs(qvals[i] - qvals[j])
        gsum = grads[i] + grads[j]
        gap_t = float(np.linalg.norm(gsum - (gsum @ tau_hat) * tau_hat))
        gap_a = abs(float((grads[i] - grads[j]) @ tau_hat))
        for kind, gap, tol in (("value-equality", gap_v, val_tol),
                               ("tangential-gradient", gap_t, grad_tol),
                               ("axis-gradient", gap_a, grad_tol)):
            if gap > tol:
                witnesses.append(((points[i], points[j]), kind, float(gap)))
                break
    return witnesses, val_tol, grad_tol


def _witness_key(witnesses):
    return [(a.ambient.tobytes(), b.ambient.tobytes(), kind)
            for (a, b), kind, _ in witnesses]


_ROT, _ = np.linalg.qr(np.random.default_rng(42).normal(size=(4, 4)))
_TARGETS = {  # name: (Q, verdict)
    "one": (lambda p: 1.0, "pass-iii"),
    "tau2": (lambda p: float(p[-1] ** 2), "pass-i"),
    "tau": (lambda p: float(p[-1]), "fail"),
    "cubic": (lambda p: float(p[0] * p[1] * p[2] + 0.5 * p[3] ** 2 - p[0] ** 3),
              "fail"),
    "rotated-tau2": (lambda p: float((_ROT.T @ p)[-1] ** 2), "pass-i"),
}


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_condition_a_matches_per_point_loop(name):
    mesh, _ = preset("round-s3", 2)
    Q, expected_verdict = _TARGETS[name]
    verdict = sph.check_condition_a(mesh.vertices, Q)
    witnesses, val_tol, grad_tol = _loop_condition_a(mesh.vertices, Q)
    assert verdict.verdict == expected_verdict
    assert (verdict.verdict == "fail") == bool(witnesses)
    assert _witness_key(verdict.witnesses) == [
        (a.tobytes(), b.tobytes(), kind) for (a, b), kind, _ in witnesses]
    gaps = np.array([gap for *_, gap in verdict.witnesses])
    expected = np.array([gap for *_, gap in witnesses])
    assert np.allclose(gaps, expected, rtol=1e-12, atol=0.0)
    assert verdict.metadata["value_tolerance"] == pytest.approx(val_tol, rel=1e-12)
    assert verdict.metadata["gradient_tolerance"] == pytest.approx(grad_tol, rel=1e-12)
    assert verdict.metadata["num_pairs"] == mesh.num_vertices // 2


@pytest.mark.parametrize("name", ["tau", "tau2", "cubic"])
def test_condition_a_sample_values_match_nearest_vertex_closure(name):
    mesh, _ = preset("round-s3", 2)
    values = np.array([_TARGETS[name][0](p) for p in mesh.vertices])
    tree = cKDTree(mesh.vertices)

    def nearest(z):
        _, i = tree.query(z)
        return float(values[i])

    batched = sph.check_condition_a(mesh.vertices, values)
    witnesses, val_tol, grad_tol = _loop_condition_a(mesh.vertices, nearest)
    assert _witness_key(batched.witnesses) == [
        (a.tobytes(), b.tobytes(), kind) for (a, b), kind, _ in witnesses]
    assert [gap for *_, gap in batched.witnesses] == [gap for *_, gap in witnesses]
    assert batched.metadata["value_tolerance"] == val_tol
    assert batched.metadata["gradient_tolerance"] == grad_tol
    closure = sph.check_condition_a(mesh.vertices, nearest)
    assert batched.verdict == closure.verdict
    assert batched.metadata == closure.metadata
    assert [(k, g) for _, k, g in batched.witnesses] == [
        (k, g) for _, k, g in closure.witnesses]


def test_condition_a_rejects_sample_values_of_wrong_length():
    mesh, _ = preset("round-s3", 1)
    with pytest.raises(ValueError):
        sph.check_condition_a(mesh.vertices, np.ones(mesh.num_vertices - 1))


def test_condition_b_empty_pairing_passes_without_witnesses():
    verdict = sph.check_condition_b(lambda p: float(p[-1]), [])
    assert verdict.verdict == "pass-ii"
    assert verdict.witnesses == []
    assert verdict.metadata["num_pairs"] == 0


def test_condition_b_rejects_coinciding_pair():
    a = sph.SpherePoint([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="degenerate pair"):
        sph.check_condition_b(lambda p: float(p[-1] ** 2), [(a, a)])


# ---------------------------------------------------------------------------
# CONDITION A on sample values: the array path against the sampled path
# ---------------------------------------------------------------------------


def _nearest_sample(points, values):
    """Q as the value of the nearest sample, one lookup per point."""
    tree = cKDTree(points)
    return lambda z: float(values[tree.query(z)[1]])


def _same_verdict(got, want):
    assert got.verdict == want.verdict
    assert got.metadata == want.metadata
    assert [(a.ambient.tobytes(), b.ambient.tobytes(), kind, gap)
            for (a, b), kind, gap in got.witnesses] == [
        (a.ambient.tobytes(), b.ambient.tobytes(), kind, gap)
        for (a, b), kind, gap in want.witnesses]


def _counted_samples(monkeypatch):
    calls = []
    samples = sph._samples

    def counted(values_of, points):
        calls.append(len(points))
        return samples(values_of, points)

    monkeypatch.setattr(sph, "_samples", counted)
    return calls


@pytest.mark.parametrize("refinement", [1, 2, 3])
@pytest.mark.parametrize("target", ["constant", "odd", "even", "random"])
def test_condition_a_array_path_matches_sampled_path(refinement, target, monkeypatch):
    mesh, _ = preset("round-s3", refinement)
    x = mesh.vertices
    a = np.array([0.3, -0.5, 0.1, 0.8])
    values = {"constant": np.full(len(x), 6.0), "odd": x[:, -1], "even": (x @ a) ** 2,
              "random": np.random.default_rng(refinement).normal(size=len(x))}[target]
    calls = _counted_samples(monkeypatch)
    got = sph.check_condition_a(x, values)
    assert calls == []  # the stencil stays inside the pairing tolerance
    want = sph.check_condition_a(x, _nearest_sample(x, values))
    assert calls == [len(x)]
    _same_verdict(got, want)
    assert got.verdict == {"constant": "pass-iii", "odd": "fail", "even": "pass-ii",
                           "random": "fail"}[target]
    for (p, q), _, _ in got.witnesses:
        assert isinstance(p, sph.SpherePoint) and p.ambient.shape == (4,)
        assert np.array_equal(p.ambient, -q.ambient)


def test_condition_a_dense_samples_take_the_sampled_path(monkeypatch):
    # a cap of samples spaced closer than the stencil's reach, and its antipodes
    rng = np.random.default_rng(7)
    cap = np.column_stack([rng.uniform(-4e-5, 4e-5, size=(40, 3)), np.ones(40)])
    cap /= np.sqrt(np.einsum("ij,ij->i", cap, cap))[:, None]
    points = np.concatenate([cap, -cap])
    spacing = cKDTree(points).query(points, k=2)[0][:, 1].min()
    assert 0.5 * spacing < np.arcsin(sph.FD_STEP)
    values = np.concatenate([cap[:, 0], cap[:, 0]])
    calls = _counted_samples(monkeypatch)
    got = sph.check_condition_a(points, values)
    assert calls == [80]
    want = sph.check_condition_a(points, _nearest_sample(points, values))
    _same_verdict(got, want)
    # the lookups reach other samples, so the gradients are not all zero
    assert got.verdict == "pass-i"


@pytest.mark.parametrize("name", ["tau", "cubic"])
def test_condition_b_witnesses_match_per_point_loop(name):
    mesh, _ = preset("round-s3", 2)
    Q, _ = _TARGETS[name]
    rng = np.random.default_rng(3)
    order = rng.permutation(mesh.num_vertices)
    points = mesh.vertices[order]
    pairing = [(sph.SpherePoint(points[k]), sph.SpherePoint(points[k + 1]))
               for k in range(0, len(points), 2)]
    verdict = sph.check_condition_b(Q, pairing)
    want, val_tol, grad_tol = _loop_pairs(points, np.arange(len(points)).reshape(-1, 2), Q)
    assert verdict.verdict == "fail"
    assert _witness_key(verdict.witnesses) == [
        (a.tobytes(), b.tobytes(), kind) for (a, b), kind, _ in want]
    gaps = np.array([gap for *_, gap in verdict.witnesses])
    assert np.allclose(gaps, [gap for *_, gap in want], rtol=1e-12, atol=0.0)
    assert all(type(gap) is float for *_, gap in verdict.witnesses)
    assert verdict.metadata["value_tolerance"] == pytest.approx(val_tol, rel=1e-12)
    assert verdict.metadata["gradient_tolerance"] == pytest.approx(grad_tol, rel=1e-12)
