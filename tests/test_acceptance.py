"""Acceptance suite: thirteen numbered end-to-end criteria.

Each test prints one PASS/FAIL line.  Expensive pipeline runs are shared
through module-scoped fixtures.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cywbench import geometry, global_iteration as gi, local_yamabe, operators
from cywbench import sphere_tools as sph
from cywbench.geometry import ScalarField
from cywbench.local_yamabe import TestFunctionParams

from conftest import CST, assembled, preset


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[CRITERION {num:02d}] {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


def _bump_target():
    """Frozen well-supported admissible target on the bumped torus."""
    mesh, geom = preset("bump-t3", 2)
    center = np.array(geom.metadata["marked_region_center"])

    def pred(v):
        d = mesh.displacement(np.broadcast_to(center, v.shape), v)
        return np.einsum("ij,ij->i", d, d) < 0.40**2

    region = geometry.extract_subdomain(mesh, pred)
    base = ScalarField(
        2.0 + np.sin(2 * np.pi * mesh.vertices[:, 0]), mesh.mesh_id
    )
    S = geometry.construct_admissible_function(
        base, region, 1.0, 2 * mesh.min_edge_length(), mesh
    )
    return mesh, geom, S


def _run_bump_pipeline():
    mesh, geom, S = _bump_target()
    try:
        return None, gi.prescribe(mesh, geom, S)
    except gi.PipelineError as err:
        return err, err.report


@pytest.fixture(scope="module")
def bump_runs():
    """Two independent full-pipeline runs of the same configuration."""
    return _run_bump_pipeline(), _run_bump_pipeline()


@pytest.fixture(scope="module")
def trivial_sphere_report():
    mesh, geom = preset("round-s3", 2)
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    return gi.prescribe(mesh, geom, S)


@pytest.fixture(scope="module")
def ball_gate_setup():
    mesh, geom = preset("ball-negR", 2)
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v, v) < 0.55**2
    )
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)
    return mesh, geom, dom, ops


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_round_sphere_spectrum():
    errors = []
    for r in (1, 2, 3):
        ops = assembled("round-s3", r)
        eig = operators.first_eigenpair(ops)
        f = eig.eigenfunction.values
        dev = float(np.abs(f - f.mean()).max() / abs(f.mean()))
        ok = abs(eig.eigenvalue - 6.0) <= 0.05 * 6.0 and dev <= 0.02
        errors.append(max(abs(eig.eigenvalue - 6.0), 1e-9))
        if not ok:
            _report(1, False, f"refinement {r}: eta={eig.eigenvalue}, dev={dev}")
    # constants are exact eigenfunctions at every refinement, so the raw
    # error is eigensolver noise; monotonicity is asserted above that floor
    mono = all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))
    _report(1, mono, f"errors(floored)={errors}")


def test_criterion_02_trivial_prescription(trivial_sphere_report):
    rep = trivial_sphere_report
    u = rep.metadata["solution"]
    sup = float(np.abs(u.values - 1.0).max())
    resid = rep.verification["curvature_residual_rel"]
    ok = sup <= 1e-8 and resid <= 1e-10 and rep.metadata["accepted"]
    _report(2, ok, f"|u-1|={sup:.3e} residual={resid:.3e}")


def test_criterion_03_conformal_covariance():
    resids = []
    for r in (1, 2, 3):
        mesh, geom = preset("flat-t3", r)
        ops = assembled("flat-t3", r)
        x, y, z = mesh.vertices.T
        u = ScalarField(
            np.exp(0.3 * np.sin(2 * np.pi * x) + 0.2 * np.cos(2 * np.pi * y)),
            mesh.mesh_id,
        )
        phi = np.cos(2 * np.pi * z) + 2.0
        gnew = operators.conformal_change(geom, u, ops)
        onew = operators.assemble(mesh, gnew, CST)
        B_new = CST.a * onew.stiffness + onew.curvature_mass
        B_old = CST.a * ops.stiffness + ops.curvature_mass
        diff = B_new @ phi - u.values * (B_old @ (u.values * phi))
        num = math.sqrt(float(diff @ (diff / onew.mass_lumped)))
        den = math.sqrt(float((B_new @ phi) @ ((B_new @ phi) / onew.mass_lumped)))
        resids.append(num / den)
    orders = [math.log2(resids[i] / resids[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.0
    _report(3, ok, f"residuals={[f'{r:.3e}' for r in resids]} orders={orders}")


def test_criterion_04_energy_identity_and_homogeneity(ball_gate_setup):
    mesh, geom, dom, ops = ball_gate_setup
    lam, beta = 1.0, -0.1
    gate = local_yamabe.energy_gate(mesh, dom, geom, CST, lam, beta, ops=ops)
    init = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], beta,
                           gate.metadata["center"], gate.metadata["radius"]),
    )
    u = local_yamabe.solve_perturbed(mesh, dom, geom, CST, lam, beta, init,
                                     ops=ops, gate=gate)
    v = u.values
    lhs = (CST.a * float(v @ (ops.stiffness @ v))
           + float(v @ (ops.curvature_mass @ v))
           + beta * float(v @ (ops.mass @ v)))
    rhs = lam * ops.lp_norm(v) ** CST.p
    pairing = abs(lhs - rhs) / abs(rhs)
    # lambda-scaling homogeneity: u_{lam'} = (lam/lam')^{1/(p-2)} u_lam
    u2 = local_yamabe.solve_perturbed(mesh, dom, geom, CST, 2.0 * lam, beta,
                                      init, ops=ops, require_gate=False)
    predicted = 0.5 ** (1.0 / (CST.p - 2.0)) * v
    homog = float(np.abs(u2.values - predicted).max() / np.abs(predicted).max())
    ok = pairing <= 1e-8 and homog <= 1e-8
    _report(4, ok, f"pairing={pairing:.3e} homogeneity={homog:.3e}")


def test_criterion_05_gate_behavior(ball_gate_setup):
    mesh, geom, dom, ops = ball_gate_setup
    gate = local_yamabe.energy_gate(mesh, dom, geom, CST, 1.0, -0.1, ops=ops)
    sweep = gate.metadata["eps_sweep"]
    q_small = gate.metadata["q_per_eps"][min(sweep)]
    gap_ok = q_small < 0.99 * gate.T_est
    # beta-monotonicity at the winning epsilon, exact at quadrature level
    betas = [-0.05, -0.1, -0.2, -0.4, -0.8]
    qs = [gate.quotient_at_beta(b) for b in betas]
    mono_ok = all(qs[i + 1] <= qs[i] for i in range(len(qs) - 1))
    ok = gap_ok and mono_ok
    _report(5, ok, f"Q(min eps)={q_small:.4f} 0.99*T_est={0.99*gate.T_est:.4f} "
                   f"mono={mono_ok}")


def test_criterion_06_continuation_stability(ball_gate_setup):
    mesh, geom, dom, ops = ball_gate_setup
    trace = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.2,
                                           ops=ops)
    tail = float(np.abs(trace.solutions[-1].values
                        - trace.solutions[-2].values).max())
    positive = all(
        s.values[dom.interior_set].min() > 0 for s in trace.solutions
    )
    bound = trace.metadata["lp_bound"]
    within = all(lp <= 10.0 * bound for lp in trace.lp_norms)
    ok = trace.converged and tail <= 1e-8 and positive and within
    _report(6, ok, f"steps={len(trace.betas)} tail={tail:.3e} "
                   f"max_lp={max(trace.lp_norms):.4g} bound={bound:.4g}")


def test_criterion_07_bracket_and_monotonicity(bump_runs):
    err, report = bump_runs[0]
    if err is not None:
        _report(7, False, f"pipeline failed at stage {err.stage!r}: {err}")
    state = report.iteration
    iterates = [it.values for it in state.iterates]
    monotone = all(
        (iterates[k + 1] >= iterates[k] - 1e-12).all()
        for k in range(len(iterates) - 1)
    )
    ok = (state.bracket_violations == 0 and monotone
          and float(iterates[-1].min()) > 0
          and report.verification["curvature_residual_rel"] <= 1e-4)
    _report(7, ok, f"violations={state.bracket_violations} "
                   f"residual={report.verification['curvature_residual_rel']:.3e}")


def test_criterion_08_supersolution_soundness():
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    eig = operators.first_eigenpair(ops, mass="lumped",
                                    operator="conformal-lumped")
    _, phi_s = gi.scale_eigenfunction(eig, S, ops)
    c0 = mesh.vertices[0]
    dom = geometry.extract_subdomain(mesh, lambda v: v @ c0 > 0.5)
    # accepted outputs from both gluing branches
    subs = [
        ScalarField(0.3 * phi_s.values, mesh.mesh_id),   # shortcut branch
        ScalarField(np.full(mesh.num_vertices, 0.9), mesh.mesh_id),  # blend
    ]
    details = []
    ok = True
    for u1 in subs:
        up = gi.glue_supersolution(u1, phi_s, dom, gi.GluingConfig(), ops, S)
        rmin = float(gi._strong_residual(ops, up.values, S.values).min())
        dom_ok = bool((up.values >= u1.values).all())
        ok = ok and rmin >= -1e-10 and dom_ok
        details.append(f"{up.metadata['branch']}: rmin={rmin:.2e} dom={dom_ok}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_li_yau():
    mesh, geom = preset("round-s3", 4)
    pole = mesh.vertices[np.argmax(mesh.vertices[:, 3])]
    bounds, margins = [], []
    for rad in (0.8, 0.4, 0.2):
        dom = geometry.extract_subdomain(
            mesh,
            lambda v, rad=rad: np.arccos(np.clip(v @ pole, -1, 1)) < rad,
        )
        ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet",
                                 domain=dom)
        eig = operators.first_eigenpair(ops, operator="laplacian")
        bound = operators.li_yau_bound(
            operators.LiYauInputs(r_inj=rad, ricci_lower=0.0,
                                  h_min=2.0 / math.tan(rad), n=3)
        )
        bounds.append(bound)
        margins.append(eig.eigenvalue - bound)
    ok = all(m > 0 for m in margins) and bounds[0] < bounds[1] < bounds[2]
    _report(9, ok, f"bounds={[f'{b:.4f}' for b in bounds]} "
                   f"margins={[f'{m:.2f}' for m in margins]}")


def test_criterion_10_condition_a_classifier():
    mesh, _ = preset("round-s3", 2)
    pts = mesh.vertices

    def run(points):
        v_one = sph.check_condition_a(points, lambda p: 1.0)
        v_tau2 = sph.check_condition_a(points, lambda p: float(p[-1] ** 2))
        v_tau = sph.check_condition_a(points, lambda p: float(p[-1]))
        return v_one, v_tau2, v_tau

    v_one, v_tau2, v_tau = run(pts)
    base_ok = (v_one.verdict == "pass-iii" and v_tau2.verdict == "pass-i"
               and v_tau.verdict == "fail" and len(v_tau.witnesses) >= 1)
    # invariance under a fixed random global rotation of the samples
    rng = np.random.default_rng(42)
    A = rng.normal(size=(4, 4))
    Q_rot, _ = np.linalg.qr(A)
    rotated = pts @ Q_rot.T

    def run_rotated(Q):
        # the target rotates with the samples
        return sph.check_condition_a(rotated, lambda p: Q(Q_rot.T @ p))

    r_one = run_rotated(lambda p: 1.0)
    r_tau2 = run_rotated(lambda p: float(p[-1] ** 2))
    r_tau = run_rotated(lambda p: float(p[-1]))
    rot_ok = (r_one.verdict == v_one.verdict
              and r_tau2.verdict == v_tau2.verdict
              and r_tau.verdict == v_tau.verdict)
    ok = base_ok and rot_ok
    _report(10, ok, f"one={v_one.verdict} tau2={v_tau2.verdict} "
                    f"tau={v_tau.verdict}({len(v_tau.witnesses)} witnesses) "
                    f"rotation_invariant={rot_ok}")


def test_criterion_11_obstruction_vanishing(trivial_sphere_report):
    mesh, geom = preset("round-s3", 2)
    ops = assembled("round-s3", 2)
    u = trivial_sphere_report.metadata["solution"]
    S = ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    kw_ok = True
    kw_max = 0.0
    for H in sph.coordinate_fields(mesh):
        val = abs(sph.kw_obstruction(S, u, H, ops))
        kw_max = max(kw_max, val)
        kw_ok = kw_ok and val <= 1e-12
    gnew = operators.conformal_change(geom, u, ops)
    Rnew = gnew.scalar_curvature
    be_ok = True
    be_worst = 0.0
    for i in range(4):
        a = np.zeros(4)
        a[i] = 1.0
        # gradient scale degenerates when R is constant to roundoff, so
        # floor it with a machine-level fraction of the field magnitude
        floor = 1e-9 * ops.integrate(np.abs(ops.quad_values(Rnew.values)))
        scale = max(sph.be_scale(Rnew, a, ops), floor)
        val = abs(sph.be_obstruction(Rnew, a, mesh, ops))
        rel = val / scale
        be_worst = max(be_worst, rel)
        be_ok = be_ok and val <= 1e-3 * scale
    ok = kw_ok and be_ok
    _report(11, ok, f"max|kw|={kw_max:.2e} worst be/scale={be_worst:.2e}")


def test_criterion_12_robin_path():
    mesh, geom = preset("ball-negR", 2)
    region = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v, v) < 0.55**2
    )
    base = ScalarField(2.0 + 0.5 * mesh.vertices[:, 2], mesh.mesh_id)
    S = geometry.construct_admissible_function(
        base, region, 1.0, 2 * mesh.min_edge_length(), mesh
    )
    try:
        report = gi.prescribe(mesh, geom, S, bc_mode="robin")
    except gi.PipelineError as err:
        _report(12, False, f"pipeline failed at stage {err.stage!r}: {err}")
    boundary = report.verification["boundary_residual"]
    interior = report.verification["curvature_residual_rel"]
    ok = boundary <= 1e-6 and interior <= 1e-4
    _report(12, ok, f"boundary={boundary:.3e} interior={interior:.3e}")


def test_criterion_13_determinism(bump_runs):
    (_, rep1), (_, rep2) = bump_runs
    t1 = gi.report_to_text(rep1, timestamp=False)
    t2 = gi.report_to_text(rep2, timestamp=False)
    ok = t1 == t2 and len(t1) > 0
    _report(13, ok, f"bytes={len(t1)} identical={t1 == t2}")
