"""Sub/super-solutions, gluing, monotone iteration, pipeline reports."""

from __future__ import annotations

import functools
import re

import numpy as np
import pytest

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


def test_gluing_config_validation():
    with pytest.raises(ValueError):
        gi.GluingConfig(gamma=-1.0).validated()


def test_monotone_iterate_trivial_fixed_point():
    mesh, geom, ops, S = _sphere_setup()
    one = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    u, state = gi.monotone_iterate(one, one, S, ops)
    assert np.abs(u.values - 1.0).max() < 1e-10
    assert state.bracket_violations == 0
    # stated shift at s = 1: (p-1) S - R = 5*6 - 6 = 24
    assert abs(state.metadata["shift_stated"] - 24.0) < 1e-12
    assert state.shift_k >= state.metadata["shift_stated"]
    # Robin conditions: S is the lumped rows of u = 1 over the lumped mass,
    # so u = 1 is an exact fixed point of the Robin iteration
    ops = assembled("ball-negR", 1, "robin")
    one = ScalarField(np.ones(ops.num_vertices), ops.mesh.mesh_id)
    S = ScalarField(gi._lumped_rows(ops, one.values, 0.0) / ops.mass_lumped, ops.mesh.mesh_id)
    u, state = gi.monotone_iterate(one, one, S, ops)
    assert np.abs(u.values - 1.0).max() < 1e-10
    assert state.bracket_violations == 0


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
    x = gi._factor(ops, A)(b)
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
    first = gi._factor(ops, A)(b)
    second = gi._factor(ops, A)(b)
    assert calls == ["MMD_AT_PLUS_A"]
    assert np.array_equal(first, second)
    order = ops.symmetric_order()
    assert order is ops.symmetric_order()
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


def _bump_admissible_target(radius):
    mesh, geom = preset("bump-t3", 1)
    center = np.array([0.5, 0.5, 0.5])
    region = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v - center, v - center) < radius**2)
    base = ScalarField(2.0 + np.sin(2.0 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id)
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


def test_prescribe_tags_local_solve_failure(monkeypatch):
    mesh, geom, S = _bump_admissible_target(0.45)

    def failing_gate(*args, **kwargs):
        raise RuntimeError("Newton polish did not reach the residual tolerance")

    monkeypatch.setattr(gi._local, "energy_gate", failing_gate)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    assert err.value.stage == "local-solve"
    assert isinstance(err.value.__cause__, RuntimeError)


@functools.lru_cache(maxsize=None)
def _bump_glue_failure():
    """The mesh and the gluing failure of the criterion-07 target on bump-t3 r1."""
    mesh, geom, S = _bump_admissible_target(0.45)
    with pytest.raises(gi.PipelineError) as err:
        gi.prescribe(mesh, geom, S)
    return mesh, err.value


def test_glue_failure_lists_each_attempt():
    _, err = _bump_glue_failure()
    assert err.stage == "glue_supersolution"
    message = str(err)
    attempts = message.split("attempts: ")[1].split("; ")
    assert len(attempts) == 9
    pattern = (r"\[(\d)\] gamma \S+ phi-scale \S+ Newton "
               r"(converged|stalled|singular|max-iter) after \d+ steps, "
               r"relative residual \S+")
    for k, attempt in enumerate(attempts):
        match = re.fullmatch(pattern, attempt)
        assert match and int(match.group(1)) == k, attempt
    assert "phi-scale 1 " in attempts[0] and "phi-scale 0.5 " in attempts[5]
    assert err.report.verification["failure"] == message


def test_glue_failure_names_worst_vertex_coordinates():
    mesh, err = _bump_glue_failure()
    match = re.search(r"worst vertex (\d+) at \(([^)]*)\) with strong-residual", str(err))
    assert match, str(err)
    k = int(match.group(1))
    coords = [float(c) for c in match.group(2).split(", ")]
    assert coords == mesh.vertices[k].tolist()
