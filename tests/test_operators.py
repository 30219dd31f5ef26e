"""Assembly, eigenpairs, conformal change, Li-Yau bound, exports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.io import mmread
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from cywbench import _kernels, geometry, operators
from cywbench.geometry import BARY_GRAD, TET_QP, TET_QW, TRI_QP, TRI_QW, ScalarField

from conftest import CST, assembled, preset


def _coo_scatter(local, cells, n):
    """The element-matrix scatter before the shared pattern, kept as an oracle."""
    nc = cells.shape[1]
    rows = np.repeat(cells, nc, axis=1).ravel()
    cols = np.tile(cells, (1, nc)).ravel()
    mat = coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def test_stiffness_annihilates_constants():
    for pid in ("flat-t3", "round-s3", "ball-negR"):
        ops = assembled(pid, 1)
        one = np.ones(ops.num_vertices)
        assert np.abs(ops.stiffness @ one).max() < 1e-11, pid


def test_mass_row_sums_equal_volume():
    ops = assembled("flat-t3", 1)
    one = np.ones(ops.num_vertices)
    assert abs(one @ (ops.mass @ one) - 1.0) < 1e-12
    assert np.allclose(ops.mass_lumped, np.asarray(ops.mass.sum(axis=1)).ravel())


def test_matrices_symmetric():
    ops = assembled("ball-negR", 1, "robin")
    for mat in (ops.stiffness, ops.mass, ops.curvature_mass, ops.boundary_mass):
        assert abs(mat - mat.T).max() < 1e-13


def test_torus_laplacian_eigenvalue():
    # first nonzero eigenvalue of -Delta on the unit 3-torus is (2 pi)^2;
    # the P1 Kuhn grid overestimates it but converges
    ops = assembled("flat-t3", 2)
    from scipy.sparse.linalg import eigsh

    vals = eigsh(ops.stiffness, k=2, M=ops.mass.tocsc(), sigma=-1.0,
                 which="LM", return_eigenvectors=False)
    lam1 = float(np.sort(vals)[1])
    assert abs(lam1 - (2 * math.pi) ** 2) / (2 * math.pi) ** 2 < 0.05


def test_ball_dirichlet_laplacian_eigenvalue():
    # first Dirichlet eigenvalue of the unit ball Laplacian is pi^2
    mesh, geom = preset("ball-negR", 2)
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.ones(len(v), bool) if False else
        np.einsum("ij,ij->i", v, v) < 2.0  # whole ball
    )
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)
    eig = operators.first_eigenpair(ops, operator="laplacian")
    assert abs(eig.eigenvalue - math.pi**2) / math.pi**2 < 0.05


def test_first_eigenpair_round_sphere():
    ops = assembled("round-s3", 2)
    eig = operators.first_eigenpair(ops)
    assert abs(eig.eigenvalue - 6.0) < 1e-9
    assert eig.sign_change_free
    assert eig.residual < 1e-10


@pytest.mark.parametrize("operator,mass", [("conformal", "consistent"),
                                           ("conformal-lumped", "lumped")])
def test_first_eigenpair_robin_matches_dense(operator, mass):
    # ball-negR has a far Gershgorin bound (about -1.8e7 at r2); the shift
    # certified below eta keeps the eigenpair accurate and the smallest
    ops = assembled("ball-negR", 1, "robin")
    L, M, _ = operators._pencil(ops, mass, operator)
    w = scipy.linalg.eigh(L.toarray(), M.toarray(), eigvals_only=True,
                          subset_by_index=[0, 1])
    eig = operators.first_eigenpair(ops, mass=mass, operator=operator)
    assert abs(eig.eigenvalue - w[0]) <= 1e-9 * abs(w[0])
    assert eig.residual < 1e-10
    assert eig.sign_change_free
    assert operators._certified_lu(L - (w[0] - 1e-6 * abs(w[0])) * M) is not None
    assert operators._certified_lu(L - 0.5 * (w[0] + w[1]) * M) is None


def _count_splu(monkeypatch):
    """Record the matrices ``operators`` factors; make ARPACK's own LU raise."""
    from scipy.sparse.linalg._eigen.arpack import arpack

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK factored the shifted matrix itself")

    factored = []

    def counted(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(arpack, "splu", refuse)
    monkeypatch.setattr(operators, "splu", counted)
    return factored


@pytest.mark.parametrize("pid,r,bc,operator,mass", [
    ("ball-negR", 1, "robin", "conformal", "consistent"),
    ("ball-negR", 1, "robin", "conformal-lumped", "lumped"),
    ("round-s3", 1, "closed", "conformal", "consistent"),
])
def test_first_eigenpair_shift_invert_reuses_the_certifying_factor(
        monkeypatch, pid, r, bc, operator, mass):
    ops = assembled(pid, r, bc)
    L, M, _ = operators._pencil(ops, mass, operator)
    w0 = scipy.linalg.eigh(L.toarray(), M.toarray(), eigvals_only=True,
                           subset_by_index=[0, 0])[0]
    factored = _count_splu(monkeypatch)
    eig = operators.first_eigenpair(ops, mass=mass, operator=operator)
    meta = eig.metadata
    assert len(factored) == meta["factorizations"] >= 1
    assert meta["certificate"] == "ldlt-inertia"
    assert meta["shift"] < eig.eigenvalue
    assert meta["shift_invert_solves"] > 0
    assert abs(eig.eigenvalue - w0) <= 1e-9 * abs(w0)


@pytest.mark.parametrize("operator,mass", [("conformal", "consistent"),
                                           ("conformal-lumped", "lumped")])
def test_first_eigenpair_gershgorin_fallback(monkeypatch, operator, mass):
    ops = assembled("ball-negR", 1, "robin")
    L, M, _ = operators._pencil(ops, mass, operator)
    w0 = scipy.linalg.eigh(L.toarray(), M.toarray(), eigvals_only=True,
                           subset_by_index=[0, 0])[0]
    m = np.asarray(M.sum(axis=1)).ravel()
    low = np.min((2.0 * L.diagonal() - np.asarray(abs(L).sum(axis=1)).ravel()) / m)
    factored = _count_splu(monkeypatch)
    monkeypatch.setattr(operators, "_certified_lu", lambda A: None)
    eig = operators.first_eigenpair(ops, mass=mass, operator=operator)
    assert eig.metadata["certificate"] == "gershgorin"
    assert eig.metadata["shift"] == low - 1.0
    assert len(factored) == 1
    assert abs(factored[0] - (L - (low - 1.0) * M)).max() == 0.0
    assert abs(eig.eigenvalue - w0) <= 1e-9 * abs(w0)


def test_apply_conformal_laplacian_constant_on_sphere():
    ops = assembled("round-s3", 1)
    one = ScalarField(np.ones(ops.num_vertices), preset("round-s3", 1)[0].mesh_id)
    out = operators.apply_conformal_laplacian(ops, one)
    # box 1 = R = 6 on the round sphere in the lumped pointwise form
    assert np.abs(out.values - 6.0).max() < 1e-9


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_yamabe_quotient_scale_invariant(scale):
    ops = assembled("round-s3", 1)
    rng = np.random.default_rng(3)
    u = ScalarField(1.0 + 0.3 * rng.uniform(-1, 1, ops.num_vertices),
                    preset("round-s3", 1)[0].mesh_id)
    su = ScalarField(scale * u.values, u.mesh_id)
    q1 = operators.yamabe_quotient(ops, u)
    q2 = operators.yamabe_quotient(ops, su)
    assert abs(q1 - q2) <= 1e-10 * abs(q1)


def test_yamabe_quotient_rejects_zero():
    ops = assembled("round-s3", 1)
    with pytest.raises(ValueError):
        operators.yamabe_quotient(
            ops, ScalarField(np.zeros(ops.num_vertices), "x")
        )


def test_sharp_sobolev_constant_value():
    # closed form pi * n(n-2) (Gamma(n/2)/Gamma(n))^{2/n} at n = 3
    expect = math.pi * 3.0 * (math.gamma(1.5) / math.gamma(3.0)) ** (2.0 / 3.0)
    assert abs(operators.sharp_sobolev_constant(3) - expect) < 1e-14
    assert abs(operators.sharp_sobolev_constant(3) - 5.477904089531332) < 1e-12


def test_conformal_change_identity_factor():
    mesh, geom = preset("flat-t3", 1)
    ops = assembled("flat-t3", 1)
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    gnew = operators.conformal_change(geom, one, ops)
    assert np.allclose(gnew.metric, geom.metric)
    assert np.abs(gnew.scalar_curvature.values).max() < 1e-9


def test_conformal_change_constant_factor_scaling_law():
    # u = c: the metric c^{p-2} g = c^4 g has R c^{-4} and, at the boundary,
    # h c^{-2}; with no flux given the boundary rows are recovered variationally
    mesh, geom = preset("ball-negR", 1)
    ops = assembled("ball-negR", 1, "robin")
    c = 2.0
    gnew = operators.conformal_change(
        geom, ScalarField(np.full(mesh.num_vertices, c), mesh.mesh_id), ops)
    R, h, bnd = geom.scalar_curvature.values, geom.mean_curvature.values, mesh.vertex_flags
    R_err = np.abs(gnew.scalar_curvature.values - R * c**-4).max() / np.abs(R * c**-4).max()
    h_err = (np.abs(gnew.mean_curvature.values - h * c**-2)[bnd].max()
             / np.abs(h * c**-2)[bnd].max())
    assert R_err <= 1e-12 and h_err <= 1e-12


def test_conformal_change_rejects_nonpositive():
    mesh, geom = preset("flat-t3", 1)
    ops = assembled("flat-t3", 1)
    bad = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    bad.values[0] = 0.0
    with pytest.raises(ValueError):
        operators.conformal_change(geom, bad, ops)


def test_stereographic_factor_flattens_sphere_patch():
    # u = (1 - tau)^{-1/2} is the stereographic conformal factor: u^{p-2} g
    # is flat away from the north pole, i.e. u is annihilated by the
    # conformal operator there.  Tested weakly on a southern patch; the
    # residual converges at roughly second order.
    prev = None
    for r in (2, 3):
        mesh, geom = preset("round-s3", r)
        ops = assembled("round-s3", r)
        tau = mesh.vertices[:, 3]
        u = np.minimum((1.0 - tau + 1e-300) ** -0.5, 2.0)
        B = CST.a * ops.stiffness + ops.curvature_mass
        s = np.clip((-0.2 - tau) / 0.6, 0.0, 1.0)
        psi = s**2 * (3 - 2 * s)  # smooth, supported in tau < -0.2
        num = abs(float(psi @ (B @ u)))
        den = float(
            np.sqrt(psi @ (ops.mass @ psi)) * np.sqrt(u @ (ops.mass @ u))
        )
        resid = num / den
        if prev is not None:
            assert resid < prev / 2.5
        prev = resid
    assert prev < 0.05


@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=1.2),
       h=st.floats(min_value=0.0, max_value=5.0))
def test_li_yau_bound_positive_nonneg_ricci(r, h):
    b = operators.li_yau_bound(operators.LiYauInputs(r, 0.0, h, 3))
    assert b > 0
    # shrinking the ball raises the bound (K = 0: bound ~ 1/r^2)
    b2 = operators.li_yau_bound(operators.LiYauInputs(r / 2.0, 0.0, h, 3))
    assert b2 > b


def test_li_yau_input_validation():
    with pytest.raises(ValueError):
        operators.LiYauInputs(-1.0, 0.0, 0.0, 3)
    with pytest.raises(ValueError):
        operators.LiYauInputs(0.5, 0.0, 0.0, 2)


def test_export_matrix_market_roundtrip(tmp_path):
    ops = assembled("flat-t3", 1)
    path = tmp_path / "stiff.mtx"
    operators.export_matrix_market(ops.stiffness, path)
    back = mmread(path).tocsr()
    assert abs(back - ops.stiffness).max() < 1e-15


def test_nonlinear_load_homogeneity():
    ops = assembled("round-s3", 1)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 1.5, ops.num_vertices)
    S = np.full(ops.num_vertices, 2.0)
    n1 = ops.nonlinear_load(u, S)
    n2 = ops.nonlinear_load(2.0 * u, S)
    # degree p-1 = 5 homogeneity of the critical nonlinearity
    assert np.allclose(n2, 32.0 * n1, rtol=1e-12)


@pytest.mark.parametrize("preset_id, radius", [("ball-negR", 0.55), ("bump-t3", 0.45)])
def test_free_quadrature_matches_whole_mesh(preset_id, radius):
    # a field that vanishes off the interior: the restricted sweeps are exact
    mesh, geom = preset(preset_id, 1)
    center = np.asarray(geom.metadata["marked_region_center"])
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.linalg.norm(mesh.displacement(
            np.broadcast_to(center, v.shape), v), axis=1) < radius)
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)
    free = dom.interior_set
    fq = ops.free_quadrature(free)
    assert fq is ops.free_quadrature(free.copy())
    assert fq.tets.size < mesh.num_tets
    u = np.zeros(mesh.num_vertices)
    u[free] = np.random.default_rng(3).uniform(0.0, 2.0, free.size)
    S = 2.0 + np.sin(2.0 * np.pi * mesh.vertices[:, 0])
    p = CST.p

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    whole = ops.nonlinear_load(u)
    close(fq.nonlinear_load(u[free]), whole[free])
    close(fq.nonlinear_load(u[free], fq.sample(S)), ops.nonlinear_load(u, S)[free])
    # vertices of no active tet receive exactly nothing
    assert not whole[np.setdiff1d(np.arange(mesh.num_vertices),
                                  mesh.tets[fq.tets])].any()
    uq = np.abs(ops.quad_values(u))
    close(fq.integrate(np.abs(fq.quad_values(u[free])) ** p * fq.sample(S)),
          ops.integrate(uq**p * ops.quad_values(S)))
    close(fq.lp_norm(u[free]), ops.lp_norm(u))
    w = uq ** (p - 2.0) * ops.quad_values(S)
    loc = _kernels.local_mass(geom.volume_density, w, TET_QP, TET_QW)
    ref = _coo_scatter(loc, mesh.tets, mesh.num_vertices)[free][:, free]
    W = fq.weighted_mass(w[fq.tets])
    assert W.shape == ref.shape
    assert abs(W - ref).max() <= 1e-13 * abs(ref).max()
    # the Jacobians of the local stage: A(beta) - W on the fixed pattern,
    # solved in the pattern's cached order
    b = np.random.default_rng(4).standard_normal(free.size)
    for beta in (0.0, -0.35):
        J = fq.matrix(fq.conformal_laplacian_matrix(beta).data - W.data)
        want = ops.conformal_laplacian_matrix(beta)[free][:, free] - W
        assert abs(J - want).max() <= 1e-13 * abs(want).max()
        x = fq.factor(J.data, splu)(b)
        assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("preset_id, refinement, bc_mode",
                         [("round-s3", 2, "closed"), ("ball-negR", 1, "robin"),
                          ("bump-t3", 1, "closed")])
def test_pattern_scatter_matches_coo_oracle(preset_id, refinement, bc_mode):
    mesh, geom = preset(preset_id, refinement)
    ops = assembled(preset_id, refinement, bc_mode)
    n, tets, faces, dens = mesh.num_vertices, mesh.tets, mesh.boundary_faces, geom.volume_density
    Rq = np.einsum("qc,tc->tq", TET_QP, geom.scalar_curvature.values[tets])
    oracles = {
        "stiffness": (_kernels.local_stiffness(geom.metric, dens, BARY_GRAD, TET_QW), tets),
        "mass": (_kernels.local_mass(dens, np.ones_like(dens), TET_QP, TET_QW), tets),
        "curvature_mass": (_kernels.local_mass(dens, Rq, TET_QP, TET_QW), tets),
    }
    if faces.size:
        bdens = geom.boundary_density
        hq = (2.0 * CST.a / CST.p_minus_2) * np.einsum(
            "qc,fc->fq", TRI_QP, geom.mean_curvature.values[faces])
        oracles["boundary_mass_plain"] = (
            _kernels.local_tri_mass(bdens, np.ones_like(bdens), TRI_QP, TRI_QW), faces)
        oracles["boundary_mass"] = (_kernels.local_tri_mass(bdens, hq, TRI_QP, TRI_QW), faces)
    for name, (local, cells) in oracles.items():
        got, want = getattr(ops, name), _coo_scatter(local, cells, n)
        assert got.has_canonical_format, name
        assert np.array_equal(got.indptr, want.indptr), name
        assert np.array_equal(got.indices, want.indices), name
        row_max = np.maximum.reduceat(np.abs(want.data), want.indptr[:-1])
        row_of = np.repeat(np.arange(n), np.diff(want.indptr))
        assert (np.abs(got.data - want.data) <= 1e-15 * row_max[row_of]).all(), name


def _unique_pattern(cells, nf):
    """The free-block pattern before the shared builder, kept as an oracle."""
    rows = np.repeat(cells, 4, axis=1).ravel()
    cols = np.tile(cells, (1, 4)).ravel()
    pairs = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys, slots = np.unique(rows[pairs] * nf + cols[pairs], return_inverse=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // nf, minlength=nf))))
    return dict(pairs=pairs, slots=slots, keys=keys, indices=keys % nf, indptr=indptr)


def test_free_quadrature_pattern_matches_unique_oracle():
    mesh, geom = preset("bump-t3", 1)
    center = np.asarray(geom.metadata["marked_region_center"])
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.linalg.norm(mesh.displacement(
            np.broadcast_to(center, v.shape), v), axis=1) < 0.45)
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)
    fq = ops.free_quadrature(dom.interior_set)
    assert (fq._cells < 0).any()
    want = _unique_pattern(fq._cells, fq.nf)
    for name, value in want.items():
        assert np.array_equal(getattr(fq._pattern, name), value), name


def _argsort_pattern(cells, n):
    """The pair pattern as one argsort of every pair key built it, kept as an oracle."""
    nc = cells.shape[1]
    rows = np.repeat(cells, nc, axis=1).ravel()
    cols = np.tile(cells, (1, nc)).ravel()
    pairs = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys = (rows * n + cols)[pairs]
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # each key's first place
    slots = np.empty_like(order)
    slots[order] = np.repeat(np.arange(first.size), np.diff(first, append=keys.size))
    keys = keys[first]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    return dict(pairs=pairs, slots=slots, keys=keys, indices=keys % n, indptr=indptr)


@pytest.mark.parametrize("refinement", [0, 1, 2])
@pytest.mark.parametrize("preset_id", ["round-s3", "ball-negR", "bump-t3", "annulus", "flat-t3"])
def test_pair_pattern_matches_argsort_oracle(preset_id, refinement, monkeypatch):
    """Every pattern that assemble and FreeQuadrature build, and every sum
    they scatter onto it, bitwise as the argsort construction gives them."""
    mesh, geom = preset(preset_id, refinement)
    inner = np.flatnonzero(~mesh.vertex_flags)  # none on annulus r0
    center = mesh.vertices[inner[0] if inner.size else 0]
    reach = np.linalg.norm(mesh.displacement(center[None, :], mesh.vertices), axis=1)
    radius = 0.75 * reach.max()
    dom = geometry.ball_domain(mesh, center, radius) if inner.size else None
    built, scattered = [], []

    class Recorded(operators._PairPattern):
        def __init__(self, cells, n):
            super().__init__(cells, n)
            built.append((cells, n, self))

        def scatter(self, local):
            out = super().scatter(local)
            scattered.append((self, local, out))
            return out

    monkeypatch.setattr(operators, "_PairPattern", Recorded)
    faces = bool(mesh.boundary_faces.size)
    modes = ["closed"] + ["robin"] * faces + ["dirichlet"] * (dom is not None)
    for bc_mode in modes:
        ops = operators.assemble(mesh, geom, CST, bc_mode=bc_mode, domain=dom)
    fq = ops.free_quadrature(np.flatnonzero(reach < radius) if dom is None
                             else dom.interior_set)
    assert (fq._cells < 0).any()
    fq.weighted_mass(np.ones_like(fq.density))
    # per mode the tets (K, M, M_R) and the faces (M_b, M_h), where there
    # are any; one free block
    assert len(built) == len(modes) * (1 + faces) + 1
    assert len(scattered) == len(modes) * (3 + 2 * faces) + 1
    oracles = {}
    for cells, n, pattern in built:
        want = oracles[id(pattern)] = _argsort_pattern(cells, n)
        for name, value in want.items():
            got = getattr(pattern, name)
            assert got.dtype == value.dtype and np.array_equal(got, value), name
    for pattern, local, out in scattered:
        want = oracles[id(pattern)]
        data = np.bincount(want["slots"], local.ravel()[want["pairs"]],
                           minlength=want["keys"].size)
        assert np.array_equal(out.indptr, want["indptr"])
        assert np.array_equal(out.indices, want["indices"])
        assert out.data.tobytes() == data.tobytes()


def _interior_rows_equal(got, want, interior):
    if want is None:
        return got is None
    if hasattr(want, "tocsr"):
        got, want = got.tocsr()[interior], want.tocsr()[interior]
        return (np.array_equal(got.indptr, want.indptr)
                and np.array_equal(got.indices, want.indices)
                and np.array_equal(got.data, want.data))
    return np.array_equal(got[interior], want[interior])


@pytest.mark.parametrize("preset_id", ["ball-negR", "bump-t3"])
def test_dirichlet_assembly_matches_whole_mesh_on_interior_rows(preset_id, monkeypatch):
    mesh, geom = preset(preset_id, 1)
    if preset_id == "ball-negR":
        # a cap through the mesh boundary whose unknowns include boundary
        # vertices, so the boundary matrices have nonzero interior rows
        sel = mesh.vertices[:, 0] > 0.2
        touches_out = (mesh.vertex_graph() != 0) @ ~sel
        dom = geometry.Domain(np.flatnonzero(sel), np.flatnonzero(sel & ~touches_out),
                              np.flatnonzero(sel & touches_out), mesh.mesh_id)
        assert mesh.vertex_flags[dom.interior_set].any()
    else:
        center = np.asarray(geom.metadata["marked_region_center"])
        dom = geometry.extract_subdomain(
            mesh, lambda v: np.linalg.norm(mesh.displacement(
                np.broadcast_to(center, v.shape), v), axis=1) < 0.45)
    whole = operators.assemble(mesh, geom, CST, bc_mode="closed")
    swept = []
    kernel = _kernels.local_stiffness

    def counting(metric, *args):
        swept.append(len(metric))
        return kernel(metric, *args)

    monkeypatch.setattr(_kernels, "local_stiffness", counting)
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)
    assert swept and swept[0] < mesh.num_tets
    interior = dom.interior_set
    for name in ("stiffness", "mass", "curvature_mass", "boundary_mass",
                 "boundary_mass_plain", "mass_lumped", "curvature_mass_lumped",
                 "boundary_mass_plain_lumped", "boundary_mass_lumped"):
        got, want = getattr(ops, name), getattr(whole, name)
        assert _interior_rows_equal(got, want, interior), name
    if mesh.boundary_faces.size:
        assert abs(whole.boundary_mass_plain[interior]).sum() > 0


# ---------------------------------------------------------------------------
# damped Newton on the diagonal problem F(x) = x^2 - c
# ---------------------------------------------------------------------------

_C = np.array([1.0, 4.0, 9.0])


def _square_residual(x):
    r = x * x - _C
    return r, float(np.linalg.norm(r))


def _square_step(x, r):
    return -r / (2.0 * x)


def _below(tol):
    return lambda x, r, norm: norm <= tol


def test_damped_newton_converges_on_diagonal_problem():
    res = operators.damped_newton(np.full(3, 5.0), _square_residual, _square_step,
                                  _below(1e-12))
    assert res.status == "converged"
    assert 0 < len(res.steps) <= 8
    assert np.allclose(res.x, np.sqrt(_C), rtol=0, atol=1e-12)
    norms = [s[0] for s in res.steps]
    assert norms == sorted(norms, reverse=True) and norms[-1] == res.norm
    assert np.array_equal(res.residual, res.x * res.x - _C)
    assert all(theta == 1.0 and clamped == 0 for _, theta, clamped in res.steps)


def test_damped_newton_max_iter():
    res = operators.damped_newton(np.full(3, 5.0), _square_residual, _square_step,
                                  _below(1e-12), max_iter=1)
    assert res.status == "max-iter" and len(res.steps) == 1


def test_damped_newton_singular_solve():
    def singular(x, r):
        raise RuntimeError("Factor is exactly singular")

    x0 = np.full(3, 5.0)
    res = operators.damped_newton(x0, _square_residual, singular, _below(1e-12))
    assert res.status == "singular" and res.steps == []
    assert np.array_equal(res.x, x0)


def test_damped_newton_stalls_without_descent():
    # an ascent direction: no halving lowers |x^2 - c|
    res = operators.damped_newton(np.full(3, 5.0), _square_residual,
                                  lambda x, r: r / (2.0 * x), _below(1e-12))
    assert res.status == "stalled" and res.steps == []


def test_damped_newton_counts_clamped_entries():
    # F(x) = x - b with b_1 < 0: the first full step leaves the cone x >= 0
    b = np.array([1.0, -1.0])

    def residual(x):
        return x - b, float(np.linalg.norm(x - b))

    def clamp(x):
        neg = int((x < 0).sum())
        return np.maximum(x, 0.0), neg

    res = operators.damped_newton(np.full(2, 2.0), residual, lambda x, r: -r,
                                  _below(1e-12), project=clamp)
    assert res.steps[0][2] == 1
    assert np.array_equal(res.x, [1.0, 0.0])
    assert res.status == "stalled"  # the clamped root is the best point in the cone

