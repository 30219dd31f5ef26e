"""Each output check of the benchmark accepts a right output and rejects a wrong one.

Run with ``python3 -m pytest perfbench/selftest.py``.  The name keeps the file
out of pytest's default discovery, so the repository's own test suite never
collects it.  The inputs are small presets, so the whole file takes a few
seconds plus one bump-t3 r1 prescription.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np
import pytest

from cywbench import geometry, global_iteration, local_yamabe, operators, sphere_tools
from cywbench.geometry import ScalarField

import checks
import tracing
import workloads
from checks import CST, CheckFailed


def _refusal(err):
    """A stand-in for a PipelineError whose report can be edited."""
    return SimpleNamespace(stage=err.stage, report=copy.deepcopy(err.report))


def _prescribe(mesh, geom, values):
    return workloads._prescribe_or_refusal(
        {"mesh": mesh, "geom": geom, "S": ScalarField(values, mesh.mesh_id)})


# ---------------------------------------------------------------------------
# sphere-s3
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere():
    return geometry.build_preset("round-s3", 2)


def test_constant_route_rejects_scaled_solution(sphere):
    mesh, geom = sphere
    report = _prescribe(mesh, geom, np.full(mesh.num_vertices, 3.0))
    checks.check_constant_route(report, 3.0)
    wrong = copy.deepcopy(report)
    wrong.metadata["solution"].values *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_constant_route(wrong, 3.0)


def test_odd_refusal_rejects_missing_and_non_antipodal_witness(sphere):
    mesh, geom = sphere
    values = mesh.vertices @ workloads.sphere_params(7)[1]
    err = _prescribe(mesh, geom, values)
    checks.check_odd_refusal(err, mesh.vertices, values)

    missing = _refusal(err)
    missing.report.obstructions.witnesses.pop()
    with pytest.raises(CheckFailed, match="fewer than"):
        checks.check_odd_refusal(missing, mesh.vertices, values)

    skewed = _refusal(err)
    (a, _), relation, gap = skewed.report.obstructions.witnesses[0]
    skewed.report.obstructions.witnesses[0] = ((a, a), relation, gap)
    with pytest.raises(CheckFailed, match="not antipodal"):
        checks.check_odd_refusal(skewed, mesh.vertices, values)

    with pytest.raises(CheckFailed, match="stage"):
        checks.check_odd_refusal(SimpleNamespace(stage="energy-gate", report=err.report),
                                 mesh.vertices, values)


def test_even_pass_rejects_refusal_and_witness(sphere):
    mesh, _ = sphere
    verdict = sphere_tools.check_condition_a(mesh.vertices, lambda p: float(p[-1]) ** 2)
    checks.check_even_pass(verdict)
    with pytest.raises(CheckFailed):
        checks.check_even_pass(dataclasses.replace(verdict, verdict="fail"))
    with pytest.raises(CheckFailed):
        checks.check_even_pass(dataclasses.replace(verdict, witnesses=[("pair", "value", 1.0)]))


def test_antipodal_value_gaps_counts_odd_but_not_even_values(sphere):
    mesh, _ = sphere
    tau = mesh.vertices[:, -1]
    assert checks.antipodal_value_gaps(mesh.vertices, tau, 1e-6) == int(
        (np.abs(tau) > 0.5e-6).sum() // 2)
    assert checks.antipodal_value_gaps(mesh.vertices, tau**2, 1e-6) == 0


# ---------------------------------------------------------------------------
# robin-eigen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("operator,mass", [("conformal", "consistent"),
                                           ("conformal-lumped", "lumped")])
def test_eigenpair_rejects_shifted_eigenvalue_and_sign_change(operator, mass):
    mesh, geom = geometry.build_preset("ball-negR", 0)
    ops = operators.assemble(mesh, geom, CST, bc_mode="robin")
    eig = operators.first_eigenpair(ops, mass=mass, operator=operator)
    L, M = checks.pencil(ops, operator)
    checks.check_eigenpair(eig, L, M)
    with pytest.raises(CheckFailed):
        checks.check_eigenpair(dataclasses.replace(eig, eigenvalue=eig.eigenvalue * (1 + 1e-6)),
                               L, M)
    flipped = copy.deepcopy(eig)
    k = int(np.argmax(flipped.eigenfunction.values))
    flipped.eigenfunction.values[k] *= -1.0
    with pytest.raises(CheckFailed):
        checks.check_eigenpair(flipped, L, M)


def test_eigenpair_rejects_wrong_exact_value():
    mesh, geom = geometry.build_preset("round-s3", 2)
    ops = operators.assemble(mesh, geom, CST)
    eig = operators.first_eigenpair(ops)
    L, M = checks.pencil(ops, "conformal")
    checks.check_eigenpair(eig, L, M, exact=6.0)
    with pytest.raises(CheckFailed, match="exact"):
        checks.check_eigenpair(eig, L, M, exact=6.0 * (1 + 1e-6))


# ---------------------------------------------------------------------------
# local-solve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def local_run():
    mesh, geom = geometry.build_preset("ball-negR", 1)
    domain = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v, v) < 0.8**2)
    args = (mesh, domain, geom, CST, 1.0, -0.1)
    gate = local_yamabe.energy_gate(*args)
    trace = local_yamabe.beta_continuation(*args)
    return mesh, geom, domain, gate, trace


def test_local_solution_rejects_scaled_solution(local_run):
    mesh, geom, domain, gate, trace = local_run
    checks.check_local_solution(gate, trace, mesh, geom, domain, 1.0)
    scaled = copy.deepcopy(trace)
    scaled.metadata["beta_zero_solution"].values *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_local_solution(gate, scaled, mesh, geom, domain, 1.0)


def test_local_solution_rejects_wrong_lambda_and_unconverged_trace(local_run):
    mesh, geom, domain, gate, trace = local_run
    with pytest.raises(CheckFailed):
        checks.check_local_solution(gate, trace, mesh, geom, domain, 1.0 + 1e-6)
    with pytest.raises(CheckFailed, match="converge"):
        checks.check_local_solution(gate, dataclasses.replace(trace, converged=False),
                                    mesh, geom, domain, 1.0)
    with pytest.raises(CheckFailed, match="gate"):
        checks.check_local_solution(dataclasses.replace(gate, gate_pass=False), trace,
                                    mesh, geom, domain, 1.0)


def test_quadrature_load_matches_the_program(local_run):
    mesh, geom, domain, _, trace = local_run
    u = trace.metadata["beta_zero_solution"].values
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=domain)
    load, lp_p = checks.quadrature_load(mesh, geom, u)
    np.testing.assert_allclose(load, ops.nonlinear_load(u), rtol=1e-12, atol=1e-15)
    assert lp_p == pytest.approx(ops.lp_norm(u) ** CST.p, rel=1e-12)


# ---------------------------------------------------------------------------
# bump-glue
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def glue_failure():
    inputs = workloads._bump_setup()
    return inputs, workloads._prescribe_or_refusal(inputs)


def test_glue_failure_check_accepts_the_known_fault_only(glue_failure):
    inputs, err = glue_failure
    assert isinstance(err, global_iteration.PipelineError)
    checks.check_glue_failure(err)
    assert workloads._bump_check(inputs, err, {}) is True

    with pytest.raises(CheckFailed, match="stage"):
        checks.check_glue_failure(SimpleNamespace(stage="monotone_iterate", report=err.report))
    negative = _refusal(err)
    negative.report.eig.eigenvalue = -negative.report.eig.eigenvalue
    with pytest.raises(CheckFailed, match="not positive"):
        checks.check_glue_failure(negative)
    loose = _refusal(err)
    loose.report.verification["sub_weak_rows_max"] = 1e-6
    with pytest.raises(CheckFailed, match="weak rows"):
        checks.check_glue_failure(loose)


def test_report_text_must_repeat(glue_failure):
    inputs, err = glue_failure
    memo = {"report_text": global_iteration.report_to_text(err.report, timestamp=False)
            + "x"}
    with pytest.raises(CheckFailed, match="differs"):
        workloads._bump_check(inputs, err, memo)


def _bracket_report(mesh, iterates, violations=0, scale=1.0):
    state = global_iteration.IterationState(
        shift_k=0.0,
        iterates=[ScalarField(np.full(mesh.num_vertices, v), mesh.mesh_id) for v in iterates],
        residuals=[0.0] * len(iterates),
        bracket_violations=violations,
    )
    u = ScalarField(np.full(mesh.num_vertices, iterates[-1] * scale), mesh.mesh_id)
    return global_iteration.SolveReport(
        pipeline_route="not-lcf-in-O", thresholds=None, eig=None, glue=None,
        iteration=state, verification={},
        metadata={"accepted": True, "solution": u, "normalization_factors": []},
    )


def test_bracket_solution_rejects_each_criterion_07_condition(sphere):
    mesh, geom = sphere
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    checks.check_bracket_solution(_bracket_report(mesh, [0.5, 1.0]), mesh, geom, S)
    with pytest.raises(CheckFailed, match="curvature residual"):
        checks.check_bracket_solution(_bracket_report(mesh, [0.5, 1.0], scale=1.001),
                                      mesh, geom, S)
    with pytest.raises(CheckFailed, match="decreases"):
        checks.check_bracket_solution(_bracket_report(mesh, [1.0, 0.5, 1.0]), mesh, geom, S)
    with pytest.raises(CheckFailed, match="violations"):
        checks.check_bracket_solution(_bracket_report(mesh, [0.5, 1.0], violations=1),
                                      mesh, geom, S)


def test_bracket_solution_rebuilds_the_working_geometry(sphere):
    mesh, geom = sphere
    x = mesh.vertices
    v = ScalarField(1.0 + 0.1 * x[:, 0] ** 2, mesh.mesh_id)
    work = operators.conformal_change(geom, v, operators.assemble(mesh, geom, CST))
    S = ScalarField(work.scalar_curvature.values.copy(), mesh.mesh_id)
    report = _bracket_report(mesh, [0.5, 1.0])
    report.metadata["normalization_factors"] = [v]
    checks.check_bracket_solution(report, mesh, geom, S)
    report.metadata["normalization_factors"] = []
    with pytest.raises(CheckFailed, match="curvature residual"):
        checks.check_bracket_solution(report, mesh, geom, S)


# ---------------------------------------------------------------------------
# the benchmark's own plumbing
# ---------------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**tracing.PASS_METRICS, "trace.pass_s": "s",
                         "trace.untraced_pass_s": "s", "trace.overhead_s": "s"}


def test_tracing_restores_every_wrapped_function():
    owners = [(o, a) for o, a, _, _ in tracing.TARGETS]
    owners += [(o, "splu") for o, _ in tracing.FACTOR_TARGETS]
    before = [o.__dict__[a] for o, a in owners]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(o.__dict__[a] is not b for (o, a), b in zip(owners, before))
        mesh, geom = geometry.build_preset("round-s3", 1)
        operators.first_eigenpair(operators.assemble(mesh, geom, CST))
    assert [o.__dict__[a] for o, a in owners] == before
    metrics = tracing.pass_metrics(tracer)
    assert metrics["geometry.build_preset_s"] > 0
    assert metrics["operators.assemble_calls"] == 1
    assert metrics["operators.first_eigenpair_calls"] == 1
    assert metrics["operators.arpack_solves"] > 0
    assert metrics["kernels.element_s"] > 0
