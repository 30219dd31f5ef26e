"""Sub/super-solutions, gluing, monotone iteration, pipeline reports."""

from __future__ import annotations

import dataclasses
import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cywbench import geometry, global_iteration as gi, operators
from cywbench.geometry import ScalarField

from conftest import CST, assembled, preset


def _sphere_setup():
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    return mesh, geom, ops, S


def _cap_domain(mesh):
    c0 = mesh.vertices[0]
    return geometry.extract_subdomain(mesh, lambda v: v @ c0 > 0.5)


def test_verify_inequalities_trivial_pair():
    mesh, geom, ops, S = _sphere_setup()
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    rep = gi.verify_inequalities(one, one, S, ops)
    assert rep["pass"]
    assert rep["ordering_pass"]
    assert abs(rep["sub_weak_rows_max"]) < 1e-10
    assert abs(rep["super_strong_residual_min"]) < 1e-10


def test_verify_inequalities_rejects_fabricated_sub():
    # u = 1/2 on the flat torus with S = 90: the weak rows are exactly
    # -S u^5 m = -90/32 m, so the *negated* candidate (swapping sub/super
    # roles) misses by exactly 90/32 = 2.8125 per unit volume
    mesh, geom = preset("flat-t3", 1)
    ops = assembled("flat-t3", 1)
    S = ScalarField(np.full(mesh.num_vertices, 90.0), mesh.mesh_id)
    half = ScalarField(np.full(mesh.num_vertices, 0.5), mesh.mesh_id)
    rep = gi.verify_inequalities(half, half, S, ops)
    assert not rep["pass"]
    # the constant 1/2 is a genuine weak sub-solution here ...
    assert abs(rep["sub_weak_rows_max"] + 2.8125) < 1e-11
    assert rep["sub_pass"] if "sub_pass" in rep else True
    # ... but fails as a super-solution by exactly the same margin
    assert abs(rep["super_strong_residual_min"] + 2.8125) < 1e-11


def test_make_subsolution_zero_extension():
    mesh, geom, ops, S = _sphere_setup()
    dom = _cap_domain(mesh)
    vals = np.zeros(mesh.num_vertices)
    vals[dom.interior_set] = 0.7
    local = ScalarField(vals, mesh.mesh_id)
    sub = gi.make_subsolution(local, dom, ops, S)
    assert np.array_equal(sub.values[dom.interior_set], vals[dom.interior_set])
    assert np.all(sub.values[dom.frontier_set] == 0.0)
    assert np.all(sub.values[~dom.mask(mesh.num_vertices)] == 0.0)
    assert "weak_rows_max" in sub.metadata


def test_make_subsolution_rejects_negative():
    mesh, geom, ops, S = _sphere_setup()
    dom = _cap_domain(mesh)
    vals = np.zeros(mesh.num_vertices)
    vals[dom.interior_set] = -1.0
    with pytest.raises(ValueError):
        gi.make_subsolution(ScalarField(vals, mesh.mesh_id), dom, ops, S)


def test_scale_eigenfunction_rows_positive():
    mesh, geom, ops, S = _sphere_setup()
    eig = operators.first_eigenpair(ops, mass="lumped",
                                    operator="conformal-lumped")
    theta, phi_s = gi.scale_eigenfunction(eig, S, ops)
    assert theta > 0 and np.log2(theta) == int(np.log2(theta))  # dyadic
    rows = gi._lumped_rows(ops, phi_s.values, S.values)
    assert rows.min() > 0


def test_glue_supersolution_shortcut_branch():
    mesh, geom, ops, S = _sphere_setup()
    dom = _cap_domain(mesh)
    eig = operators.first_eigenpair(ops, mass="lumped",
                                    operator="conformal-lumped")
    _, phi_s = gi.scale_eigenfunction(eig, S, ops)
    u1 = ScalarField(0.3 * phi_s.values, mesh.mesh_id)
    up = gi.glue_supersolution(u1, phi_s, dom, gi.GluingConfig(), ops, S)
    assert up.metadata["branch"] == "eigenfunction-dominates"
    assert gi._strong_residual(ops, up.values, S.values).min() >= -1e-10
    assert np.all(up.values >= u1.values)


def test_glue_supersolution_blend_branch():
    mesh, geom, ops, S = _sphere_setup()
    dom = _cap_domain(mesh)
    eig = operators.first_eigenpair(ops, mass="lumped",
                                    operator="conformal-lumped")
    _, phi_s = gi.scale_eigenfunction(eig, S, ops)
    u1 = ScalarField(np.full(mesh.num_vertices, 0.9), mesh.mesh_id)
    up = gi.glue_supersolution(u1, phi_s, dom, gi.GluingConfig(), ops, S)
    assert up.metadata["branch"] == "blend-newton"
    assert gi._strong_residual(ops, up.values, S.values).min() >= -1e-10
    assert np.all(up.values >= u1.values)
    assert np.all(up.values >= phi_s.values)
    # where the gluing succeeds no vertex is certified
    assert gi._dominance_bound(ops, u1.values, dom, S.values) is None


@pytest.mark.parametrize("drift", [True, False])
def test_transition_cutoff_solves_its_band(drift):
    mesh, _ = preset("bump-t3", 1)
    gamma = 0.1
    w = gamma * np.sin(2 * np.pi * mesh.vertices[:, 0])
    hi, lo = w >= gamma / 2, w <= -gamma / 2
    band = ~(hi | lo)
    assert band.sum() == 128  # the planes x = 0 and x = 1/2
    chi = gi._transition_cutoff(assembled("bump-t3", 1), w, gamma, drift)
    assert np.all(chi[hi] == 1.0) and np.all(chi[lo] == 0.0)
    assert np.all((chi[band] > 0) & (chi[band] < 1))
    # each band plane sits halfway between a plane at 1 and a plane at 0
    assert np.allclose(chi[band], 0.5, atol=1e-12)


def test_gluing_config_validation():
    for gamma in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            gi.GluingConfig(gamma=gamma).validated()
    assert gi.GluingConfig(gamma=0.5).validated().gamma == 0.5


def test_monotone_iterate_trivial_fixed_point():
    mesh, geom, ops, S = _sphere_setup()
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    u, state = gi.monotone_iterate(one, one, S, ops)
    assert np.abs(u.values - 1.0).max() < 1e-10
    assert state.bracket_violations == 0
    # stated shift at s = 1: (p-1) S - R = 5*6 - 6 = 24
    assert abs(state.metadata["shift_stated"] - 24.0) < 1e-12
    assert state.shift_k >= state.metadata["shift_stated"]
    # the round-s3 stiffness has positive off-diagonal entries
    assert state.metadata["z_matrix"] is False
    # S is the lumped rows of u = 1 over the lumped mass, so u = 1 is an
    # exact fixed point: under Robin conditions on ball-negR (not a
    # Z-matrix) and on bump-t3 (a Z-matrix)
    for args, z_matrix in ((("ball-negR", 1, "robin"), False), (("bump-t3", 1), True)):
        ops = assembled(*args)
        one = ScalarField(np.ones(ops.num_vertices), ops.mesh.mesh_id)
        S = ScalarField(gi._lumped_rows(ops, one.values, 0.0) / ops.mass_lumped, ops.mesh.mesh_id)
        u, state = gi.monotone_iterate(one, one, S, ops)
        assert np.abs(u.values - 1.0).max() < 1e-10
        assert state.bracket_violations == 0
        assert state.metadata["z_matrix"] is z_matrix


def _gluing_jacobian(ops):
    """A gluing Newton Jacobian and right-hand side at a smooth positive u."""
    x = ops.mesh.vertices
    u = 1.0 + 0.5 * np.sin(2.0 * np.pi * x[:, 0]) ** 2
    S = 2.0 + np.sin(2.0 * np.pi * x[:, 1])
    return gi._lumped_jacobian(ops, u, S), -gi._lumped_rows(ops, u, S)


@pytest.mark.parametrize("preset_id,bc_mode", [("bump-t3", "closed"),
                                               ("ball-negR", "robin")])
def test_factor_matches_dense_solve_with_less_fill(preset_id, bc_mode, monkeypatch):
    ops = assembled(preset_id, 1, bc_mode)
    A, b = _gluing_jacobian(ops)
    factors = []
    splu = gi.splu

    def recorded(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(gi, "splu", recorded)
    x = ops.factor(A, gi.splu)(b)
    dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)
    # the cached minimum-degree order fills in less than COLAMD on A itself
    (lu,) = factors
    colamd = splu(A)
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_symmetric_order_is_computed_once(monkeypatch):
    mesh, geom = preset("bump-t3", 1)
    ops = operators.assemble(mesh, geom, CST)
    calls = []
    splu = operators.splu

    def counted(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(operators, "splu", counted)
    A, b = _gluing_jacobian(ops)
    first = ops.factor(A, gi.splu)(b)
    order = ops._order
    second = ops.factor(A, gi.splu)(b)
    assert calls == ["MMD_AT_PLUS_A"]
    assert np.array_equal(first, second)
    assert order is ops._order
    assert np.array_equal(np.sort(order), np.arange(ops.num_vertices))


def test_monotone_iterate_rejects_unordered_bracket():
    mesh, geom, ops, S = _sphere_setup()
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    half = ScalarField(np.full(mesh.num_vertices, 0.5), mesh.mesh_id)
    with pytest.raises((gi.PipelineError, ValueError)):
        gi.monotone_iterate(one, half, S, ops)


def test_negative_scalar_normalization_branches():
    mesh, geom = preset("ball-negR", 1)
    ops = assembled("ball-negR", 1)
    out = gi.negative_scalar_normalization(int(0), ops)
    assert out.metadata["branch"] == "already-negative"
    assert np.all(out.values == 1.0)


@pytest.mark.parametrize("preset_id, bc_mode, boundary", [
    ("bump-t3", "closed", False),
    ("annulus", "robin", True),
])
def test_dimple_is_the_first_amplitude_conformal_change_makes_negative(
        preset_id, bc_mode, boundary, monkeypatch):
    # a large constant R makes the search pass several amplitudes
    mesh, geom = preset(preset_id, 1)
    geom = dataclasses.replace(geom, scalar_curvature=ScalarField(
        np.full(mesh.num_vertices, 1e5), mesh.mesh_id))
    ops = operators.assemble(mesh, geom, CST, bc_mode=bc_mode)
    P = int(np.flatnonzero(mesh.vertex_flags == boundary)[0])
    change, calls = operators.conformal_change, []
    monkeypatch.setattr(operators, "conformal_change",
                        lambda *a, **k: calls.append(1) or change(*a, **k))
    v = gi.negative_scalar_normalization(P, ops)
    assert calls == [] and v.metadata["branch"] == "dimple"

    def curvature_at_P(s):
        # the oracle: the new metric's curvature, boundary flux (2/(p-2)) h v kept
        f = 1.0 - s * (np.arange(mesh.num_vertices) == P)
        flux = None if mesh.is_closed else 2.0 / CST.p_minus_2 * geom.mean_curvature.values * f
        return change(geom, ScalarField(f, mesh.mesh_id), ops,
                      boundary_flux=flux).scalar_curvature.values[P]

    s = v.metadata["s"]
    assert s > 0.9 and v.values[P] == 1.0 - s and curvature_at_P(s) < 0
    assert curvature_at_P(2.0 * s - 1.0) >= 0


@pytest.mark.parametrize("preset_id, bc_mode", [("ball-negR", "robin"), ("bump-t3", "closed")])
def test_verification_curvature_is_bitwise_conformal_change_off_the_boundary(
        preset_id, bc_mode):
    mesh, geom = preset(preset_id, 1)
    ops = assembled(preset_id, 1, bc_mode)
    u = 0.5 + np.random.default_rng(7).random(mesh.num_vertices)
    R = operators.conformal_change(geom, ScalarField(u, mesh.mesh_id), ops).scalar_curvature.values
    inside = ~mesh.vertex_flags
    assert gi._curvature(ops, u)[inside].tobytes() == R[inside].tobytes()
    # at the boundary conformal_change removes the flux, so prescribe reads only inside
    assert mesh.is_closed or not np.array_equal(gi._curvature(ops, u)[~inside], R[~inside])


def test_positive_mean_curvature_normalization_robin():
    mesh, geom = preset("ball-negR", 2)
    ops = assembled("ball-negR", 2, "robin")
    out = gi.positive_mean_curvature_normalization(ops)
    assert out.values.min() > 0
    bnd = mesh.vertex_flags
    h_new = out.metadata.get("h_new_min")
    assert h_new is None or h_new > 0


def test_prescribe_trivial_constant_sphere():
    mesh, geom = preset("round-s3", 1)
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    report = gi.prescribe(mesh, geom, S)
    assert report.metadata["accepted"]
    u = report.metadata["solution"]
    assert np.abs(u.values - 1.0).max() < 1e-10


def test_prescribe_constant_rescaled():
    # S = 24 constant on the sphere: exact solution u = (6/24)^{1/4}
    mesh, geom = preset("round-s3", 1)
    S = ScalarField(np.full(mesh.num_vertices, 24.0), mesh.mesh_id)
    report = gi.prescribe(mesh, geom, S)
    assert report.metadata["accepted"]
    u = report.metadata["solution"]
    assert np.abs(u.values - 0.25**0.25).max() < 1e-10


def test_prescribe_rejects_inadmissible_target():
    mesh, geom = preset("flat-t3", 1)
    S = ScalarField(np.sin(2 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "route-selection"
    assert err.value.report.verification["failed_stage"] == err.value.stage


def test_prescribe_refuses_a_negative_constant_target_with_its_report():
    mesh, geom = preset("round-s3", 1)
    S = ScalarField(np.full(mesh.num_vertices, -6.0), mesh.mesh_id)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "trivial-constant"
    assert err.value.report.verification["failed_stage"] == err.value.stage
    assert err.value.report.obstructions.verdict != "fail"


def test_prescribe_refused_at_condition_a_skips_assembly(monkeypatch):
    mesh, geom = preset("round-s3", 2)
    calls = []
    assemble = gi._operators.assemble
    monkeypatch.setattr(gi._operators, "assemble",
                        lambda *a, **k: calls.append(1) or assemble(*a, **k))
    odd = ScalarField(mesh.vertices[:, 3], mesh.mesh_id)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, odd)
    assert err.value.stage == "condition-a"
    assert err.value.report.verification["failed_stage"] == err.value.stage
    assert err.value.report.obstructions.witnesses
    assert calls == []
    gi.prescribe(mesh, geom, ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id))
    assert calls == [1]


def test_report_to_text_roundtrip_determinism():
    mesh, geom = preset("round-s3", 1)
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    r1 = gi.prescribe(mesh, geom, S)
    r2 = gi.prescribe(mesh, geom, S)
    t1 = gi.report_to_text(r1, timestamp=False)
    t2 = gi.report_to_text(r2, timestamp=False)
    assert t1 == t2
    assert t1.startswith("CYWREPORT 1\n")
    with_ts = gi.report_to_text(r1, timestamp=True)
    assert with_ts.splitlines()[1].startswith("timestamp ")
    # the timestamp line is the only difference
    assert "\n".join(with_ts.splitlines()[:1] + with_ts.splitlines()[2:]) + "\n" == t1


def _bump_admissible_target(radius, preset_id="bump-t3", base=None):
    mesh, geom = preset(preset_id, 1)
    center = np.array([0.5, 0.5, 0.5])
    region = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v - center, v - center) < radius**2)
    if base is None:
        base = 2.0 + np.sin(2.0 * np.pi * mesh.vertices[:, 0])
    base = ScalarField(np.broadcast_to(base, mesh.num_vertices).copy(), mesh.mesh_id)
    S = geometry.construct_admissible_function(
        base, region, 1.0, 2.0 * mesh.min_edge_length(), mesh)
    return mesh, geom, S


def test_prescribe_tags_empty_local_domain():
    # the eroded admissible region keeps no interior vertex
    mesh, geom, S = _bump_admissible_target(0.4)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "route-selection"
    assert "empty interior" in str(err.value)
    assert err.value.report.verification["failed_stage"] == err.value.stage


def test_prescribe_tags_local_solve_failure(monkeypatch):
    mesh, geom, S = _bump_admissible_target(0.45)

    def failing_gate(*args, **kwargs):
        raise RuntimeError("Newton polish did not reach the residual tolerance")

    monkeypatch.setattr(gi._local, "energy_gate", failing_gate)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "local-solve"
    assert isinstance(err.value.__cause__, RuntimeError)
    assert err.value.report.verification["failed_stage"] == err.value.stage


def test_prescribe_energy_gate_refusal_reports_the_gate(monkeypatch):
    mesh, geom, S = _bump_admissible_target(0.45)
    gate = gi._local.energy_gate
    monkeypatch.setattr(gi._local, "energy_gate",
                        lambda *a, **k: dataclasses.replace(gate(*a, **k), gate_pass=False))
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "energy-gate"
    report = err.value.report
    assert report.verification["failed_stage"] == err.value.stage
    assert report.thresholds.gate_pass is False and report.eig is None


def test_reports_do_not_share_the_callers_config():
    # two targets through one GluingConfig: the second must not rewrite the
    # first report's [glue] lines
    config = gi.GluingConfig()
    reports = []
    for base in (None, 40.0):
        mesh, geom, S = _bump_admissible_target(0.45, base=base)
        with pytest.raises(gi.PipelineError) as err:
            gi.prescribe(mesh, geom, S, config=config)
        assert err.value.stage == "glue_supersolution"
        reports.append(err.value.report)
    first = gi.report_to_text(reports[0], timestamp=False)
    assert "\ntheta 0.25\n" in first
    assert "\ntheta 0.125\n" in gi.report_to_text(reports[1], timestamp=False)
    assert config == gi.GluingConfig()


def test_eigen_refusal_names_the_normalization_sign_flip():
    # the dimple at vertex 101 takes the first eigenvalue from positive to
    # negative, which no conformal change does to the continuous problem
    mesh, geom, S = _bump_admissible_target(0.6)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "eigen"
    assert err.value.report.verification["failed_stage"] == "eigen"
    match = re.fullmatch(
        r"\[eigen\] first eigenvalue (\S+) not positive on this route; the dimple "
        r"normalization factor at vertex 101 was applied at consistent eigenvalue (\S+); "
        r"the continuous problem keeps the sign of the first eigenvalue under conformal change",
        str(err.value))
    assert match, str(err.value)
    after, before = map(float, match.groups())
    assert after < -4e4 and before > 0


def test_prescribe_tags_eigenfunction_scaling_failure():
    # on the flat torus the lumped first eigenvalue is zero up to rounding,
    # so no dyadic theta makes theta*phi a strict super-solution
    mesh, geom, S = _bump_admissible_target(0.45, "flat-t3")
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "eigen"
    match = re.fullmatch(
        r"\[eigen\] could not scale the eigenfunction to a super-solution: the lumped rows "
        r"of theta\*phi stay nonpositive somewhere after halving theta 200 times "
        r"\(lumped eta_1 = (\S+)\)", str(err.value))
    assert match, str(err.value)
    assert abs(float(match.group(1))) < 1e-9


def test_prescribe_runs_the_energy_gate_once(monkeypatch):
    mesh, geom, S = _bump_admissible_target(0.45)
    gate, continuation, calls = gi._local.energy_gate, gi._local.beta_continuation, []

    def counted(*args, **kwargs):
        calls.append(args[5])
        return gate(*args, **kwargs)

    def recomputing(*args, gate=None, **kwargs):
        return continuation(*args, **kwargs)

    def report_text():
        with pytest.raises(gi.PipelineError) as err:
            gi.prescribe(mesh, geom, S)
        return gi.report_to_text(err.value.report, timestamp=False)

    monkeypatch.setattr(gi._local, "energy_gate", counted)
    text = report_text()
    assert calls == [-0.1]
    # the text is that of a continuation that computes its own gate
    monkeypatch.setattr(gi._local, "beta_continuation", recomputing)
    assert report_text() == text
    assert calls == [-0.1] * 3


def test_prescribe_assembles_once_on_the_bracket_route(monkeypatch):
    # the local stage reads the interior rows of the closed assembly
    mesh, geom, S = _bump_admissible_target(0.45)
    assemble, calls = operators.assemble, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("bc_mode"))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(operators, "assemble", counted)
    monkeypatch.setattr(gi._local, "assemble", counted)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "glue_supersolution"
    assert calls == ["closed"]


def test_prescribe_returns_the_accepted_bracket_report(monkeypatch):
    # no input reaches an accepted bracket, so the three stages after the
    # eigenfunction scaling are stubbed on the bump-glue target
    mesh, geom, S = _bump_admissible_target(0.45)
    n = mesh.num_vertices
    u_plus = ScalarField(np.full(n, 2.0), mesh.mesh_id)
    u = ScalarField(np.ones(n), mesh.mesh_id)
    ineq = {"pass": True, "sub_weak_rows_max": -1.5}
    state = gi.IterationState(shift_k=2.5, iterates=[u_plus, u], residuals=[0.5, 0.0],
                              bracket_violations=0)
    calls = []

    def glue(local, phi_s, domain, config, ops, S_):
        calls.append(("glue", config.theta))
        return u_plus

    def verify(u_minus, u_plus_, S_, ops):
        calls.append(("verify", u_plus_ is u_plus))
        return ineq

    def iterate(u_minus, u_plus_, S_, ops):
        calls.append(("iterate", u_plus_ is u_plus))
        return u, state

    monkeypatch.setattr(gi, "glue_supersolution", glue)
    monkeypatch.setattr(gi, "verify_inequalities", verify)
    monkeypatch.setattr(gi, "monotone_iterate", iterate)
    report = gi.prescribe(mesh, geom, S)
    assert calls == [("glue", 0.25), ("verify", True), ("iterate", True)]
    assert report.pipeline_route == "not-lcf-in-O"
    assert report.iteration is state
    assert report.thresholds.gate_pass and report.eig.eigenvalue > 0
    ver = report.verification
    assert set(ver) == {"curvature_residual_rel", "min_u", "boundary_residual", "ineq_report"}
    assert ver["min_u"] == 1.0 and ver["boundary_residual"] == 0.0
    assert np.isfinite(ver["curvature_residual_rel"]) and ver["ineq_report"] is ineq
    meta = report.metadata
    assert set(meta) == {"accepted", "normalization_factors", "solution", "operators"}
    assert meta["accepted"] is (ver["curvature_residual_rel"] <= 1e-4)
    assert meta["solution"] is u and meta["operators"].geom is geom
    assert meta["normalization_factors"] == []  # neither normalization applies here
    lines = gi.report_to_text(report, timestamp=False).splitlines()
    block = lines.index("[iteration]")
    assert lines[block:block + 6] == ["[iteration]", "shift_k 2.5", "steps 1",
                                      "bracket_violations 0", "residual 0 0.5",
                                      "residual 1 0.0"]
    assert "ineq_report.pass True" in lines
    assert "ineq_report.sub_weak_rows_max -1.5" in lines
    assert "theta 0.25" in lines and lines[-1] == f"accepted {meta['accepted']}"


@functools.lru_cache(maxsize=None)
def _bump_glue_failure():
    """Mesh, gluing failure and gluing inputs of the criterion-07 target on bump-t3 r1."""
    mesh, geom, S = _bump_admissible_target(0.45)
    glue, inputs = gi.glue_supersolution, []

    def capture(*args):
        inputs.append(args)
        return glue(*args)

    with mock.patch.object(gi, "glue_supersolution", capture), \
            pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    return mesh, err.value, inputs[0]


def _counted_glue(args):
    """Error of ``glue_supersolution(*args)`` and its ``damped_newton`` and ``splu`` call counts."""
    with mock.patch.object(gi, "damped_newton", wraps=gi.damped_newton) as newton, \
            mock.patch.object(gi, "splu", wraps=gi.splu) as lu, \
            pytest.raises(gi.PipelineError) as err:
        gi.glue_supersolution(*args)
    return err.value, newton.call_count, lu.call_count


def test_glue_failure_carries_certificate():
    _, err, inputs = _bump_glue_failure()
    assert err.stage == "glue_supersolution"
    message = str(err)
    assert message.startswith("[glue_supersolution] Newton not run, as no dominating candidate "
                              "can pass the check; certificate: ")
    match = re.search(r"certificate: vertex (\d+) at \(([^)]*)\) has u_minus (\S+) >= s\* (\S+), "
                      r"so every dominating candidate has row <= bound (\S+)$", message)
    assert match, message
    assert int(match.group(1)) == 292 and match.group(2) == "0.5, 0.5, 0.5"
    u_minus, s_star, bound = map(float, match.group(3, 4, 5))
    assert u_minus >= s_star and bound < -1e-10
    assert err.report.verification["failure"] == message
    # the certificate refuses before the Newton and its factorizations
    direct, newton_calls, lu_calls = _counted_glue(inputs)
    assert str(direct) == message
    assert newton_calls == 0 and lu_calls == 0


@functools.lru_cache(maxsize=None)
def _uncertified_glue_failure():
    """Gluing failure on the bump-t3 r1 inputs with the local solution scaled by 0.3.

    There no vertex is certified, so the gluing Newton runs and fails.
    """
    mesh, _, (u1, phi_s, domain, config, ops, S) = _bump_glue_failure()
    u1 = ScalarField(0.3 * u1.values, mesh.mesh_id)
    assert gi._dominance_bound(ops, u1.values, domain, S.values) is None
    return (mesh, *_counted_glue((u1, phi_s, domain, dataclasses.replace(config), ops, S)))


def test_uncertified_glue_failure_runs_the_newton():
    _, err, newton_calls, lu_calls = _uncertified_glue_failure()
    assert err.stage == "glue_supersolution"
    assert newton_calls == 1 and lu_calls > 0
    # without a certificate the message is that of the Newton-first gluing
    assert str(err) == (
        "[glue_supersolution] Newton stalled after 22 steps, relative residual 1.643e-01; "
        "vertices below an envelope: 0; worst vertex 192 at (0.375, 0.0, 0.0) with "
        "strong-residual margin -9.047e+02; no per-vertex certificate")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1e3),
       density=st.floats(0.0, 1.0), pin=st.booleans())
def test_dominance_bound_caps_every_dominating_row(seed, scale, density, pin):
    # u = u_minus + w with w >= 0 dominates the sub-solution; its strong row
    # at the certified vertex cannot exceed the bound, whatever w is
    _, _, (u1, _, domain, _, ops, S) = _bump_glue_failure()
    j, _, bound = gi._dominance_bound(ops, u1.values, domain, S.values)
    u_minus = gi.make_subsolution(u1, domain, ops, S).values
    rng = np.random.default_rng(seed)
    w = scale * rng.random(ops.num_vertices) * (rng.random(ops.num_vertices) < density)
    if pin:
        w[j] = 0.0
    assert gi._strong_residual(ops, u_minus + w, S.values)[j] <= bound + 1e-9 * abs(bound)


def test_glue_failure_names_worst_vertex_coordinates():
    mesh, err, _, _ = _uncertified_glue_failure()
    match = re.search(r"worst vertex (\d+) at \(([^)]*)\) with strong-residual", str(err))
    assert match, str(err)
    k = int(match.group(1))
    coords = [float(c) for c in match.group(2).split(", ")]
    assert coords == mesh.vertices[k].tolist()
