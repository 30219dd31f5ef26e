"""Energy gate, perturbed solves, continuation, punctured route."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cywbench import geometry, local_yamabe, operators
from cywbench.geometry import ScalarField
from cywbench.local_yamabe import TestFunctionParams

from conftest import CST, preset


def _ball_domain(radius=0.55):
    mesh, geom = preset("ball-negR", 2)
    dom = geometry.extract_subdomain(
        mesh, lambda v: np.einsum("ij,ij->i", v, v) < radius**2
    )
    return mesh, geom, dom


def _dirichlet_ops(mesh, geom, dom):
    return operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=dom)


@pytest.fixture(scope="module")
def gate_setup():
    mesh, geom, dom = _ball_domain()
    ops = _dirichlet_ops(mesh, geom, dom)
    gate = local_yamabe.energy_gate(mesh, dom, geom, CST, 1.0, -0.1, ops=ops)
    return mesh, geom, dom, ops, gate


def test_test_function_shape(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    center = gate.metadata["center"]
    tf = local_yamabe.test_function(
        mesh, dom, geom, TestFunctionParams(0.04, -0.1, center, 0.3)
    )
    assert np.all(tf.values[dom.frontier_set] == 0.0)
    assert np.all(tf.values[~dom.mask(mesh.num_vertices)] == 0.0)
    assert tf.values.min() >= 0.0
    # peak value at the center is eps^{-1/2}
    assert abs(tf.values[center] - 0.04**-0.5) < 1e-12


def test_test_function_rejects_exterior_center(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    outside = int(np.flatnonzero(~dom.mask(mesh.num_vertices))[0])
    with pytest.raises(ValueError):
        local_yamabe.test_function(
            mesh, dom, geom, TestFunctionParams(0.1, -0.1, outside, 0.3)
        )


def test_energy_gate_validation(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    with pytest.raises(ValueError):
        local_yamabe.energy_gate(mesh, dom, geom, CST, -1.0, -0.1, ops=ops)
    with pytest.raises(ValueError):
        local_yamabe.energy_gate(mesh, dom, geom, CST, 1.0, 0.5, ops=ops)


def test_energy_gate_passes_on_negative_curvature_ball(gate_setup):
    _, _, _, _, gate = gate_setup
    assert gate.gate_pass
    assert gate.Q_eps < gate.metadata["T_used"] < gate.T_est
    assert gate.T_est > gate.T_sharp  # discrete estimate sits above sharp


@settings(max_examples=20, deadline=None)
@given(b1=st.floats(min_value=-2.0, max_value=-1e-6),
       b2=st.floats(min_value=-2.0, max_value=-1e-6))
def test_quotient_monotone_in_beta(gate_setup, b1, b2):
    # at fixed epsilon the quotient is affine in beta with positive slope
    _, _, _, _, gate = gate_setup
    lo, hi = min(b1, b2), max(b1, b2)
    assert gate.quotient_at_beta(lo) <= gate.quotient_at_beta(hi) + 1e-12


def test_solve_perturbed_validation(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    good = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], -0.1,
                           gate.metadata["center"], gate.metadata["radius"]),
    )
    with pytest.raises(ValueError):
        local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, 0.0, good,
                                     ops=ops)
    bad = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    with pytest.raises(ValueError):
        local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, -0.1, bad,
                                     ops=ops)


def test_solve_perturbed_refuses_a_gate_at_another_beta_or_lambda(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    init = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], -0.1,
                           gate.metadata["center"], gate.metadata["radius"]),
    )
    for lam, beta in ((1.0, -0.2), (2.0, -0.1)):
        with pytest.raises(ValueError, match="another beta or lambda"):
            local_yamabe.solve_perturbed(mesh, dom, geom, CST, lam, beta, init,
                                         ops=ops, gate=gate)


def test_solve_perturbed_positive_and_residual(gate_setup):
    mesh, geom, dom, ops, gate = gate_setup
    init = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], -0.1,
                           gate.metadata["center"], gate.metadata["radius"]),
    )
    u = local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, -0.1, init,
                                     ops=ops, gate=gate)
    v = u.values
    assert v[dom.interior_set].min() > 0
    assert np.all(v[dom.frontier_set] == 0.0)
    assert u.metadata["newton_status"] == "converged"
    # residual of the discrete optimality system
    free = dom.interior_set
    r = (CST.a * (ops.stiffness @ v) + (ops.curvature_mass @ v)
         + (-0.1) * (ops.mass @ v) - ops.nonlinear_load(v))
    rel = np.abs(r[free]).max() / max(np.abs(ops.nonlinear_load(v)[free]).max(),
                                      1e-300)
    assert rel < 1e-9


def test_beta_continuation_validation(gate_setup):
    mesh, geom, dom, ops, _ = gate_setup
    with pytest.raises(ValueError):
        local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, 0.1, ops=ops)


def test_solve_flat_punctured_positive():
    # whole annulus: all vertices selected, frontier = both boundary shells
    mesh, geom = preset("annulus", 2)
    dom = geometry.extract_subdomain(mesh, lambda v: np.ones(len(v), bool))
    Q = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    u = local_yamabe.solve_flat_punctured(mesh, dom, Q, geom, CST)
    assert u.values[dom.interior_set].min() > 0
    assert np.all(u.values[dom.frontier_set] == 0.0)
    assert u.metadata["curved_relative_residual"] < 1e-9


@pytest.mark.parametrize("half_axis, q_slope",
                         [(None, 0.3), (0, 0.0), (0, 0.3), (2, 0.0), (2, 0.3)])
def test_solve_flat_punctured_converges_on_the_annulus(half_axis, q_slope):
    # the whole annulus, or its half where coordinate half_axis is positive;
    # with the L^2 projected gradient the Newton stalled at 3-4e-2 on all five
    mesh, geom = preset("annulus", 2)
    if half_axis is None:
        dom = geometry.extract_subdomain(mesh, lambda v: np.ones(len(v), bool))
    else:
        dom = geometry.extract_subdomain(mesh, lambda v: v[:, half_axis] > 0)
    Q = ScalarField(1.0 + q_slope * mesh.vertices[:, 0], mesh.mesh_id)
    u = local_yamabe.solve_flat_punctured(mesh, dom, Q, geom, CST)
    assert u.metadata["newton_status"] == "converged"
    assert u.values[dom.interior_set].min() > 0
    assert np.all(u.values[dom.frontier_set] == 0.0)
    assert u.metadata["curved_relative_residual"] < 1e-9


def test_solve_flat_punctured_checks_the_puncture_gradient():
    mesh, geom = preset("flat-t3", 2)
    dom = geometry.ball_domain(mesh, (0.5, 0.5, 0.5), 0.4)
    d = mesh.vertices[dom.interior_set] - 0.5
    center = int(dom.interior_set[np.argmin(np.einsum("ij,ij->i", d, d))])
    punct = geometry.make_punctured_domain(mesh, dom, center, eps=1e-6)
    flat = ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    with pytest.raises(ValueError, match="puncture precondition failed"):
        local_yamabe.solve_flat_punctured(mesh, punct, flat, geom, CST)
    Q = ScalarField(1.0 + 0.3 * mesh.vertices[:, 0], mesh.mesh_id)
    u = local_yamabe.solve_flat_punctured(mesh, punct, Q, geom, CST)
    assert u.values[punct.interior_set].min() > 0
    assert np.all(u.values[punct.frontier_set] == 0.0)
    assert u.metadata["curved_relative_residual"] < 1e-9


def test_trace_report_format(gate_setup):
    mesh, geom, dom, ops, _ = gate_setup
    trace = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.2,
                                           ops=ops)
    text = local_yamabe.trace_to_report(trace)
    assert text.splitlines()[0].startswith("CYW")
    assert trace.converged
    assert all(b < 0 for b in trace.betas)
    # one entry per line: the beta = 0 field is summarized, not dumped
    lines = text.splitlines()[1:]
    assert lines[0] == "converged True"
    meta = [ln for ln in lines if ln.startswith("meta ")]
    assert sorted(ln.split()[1] for ln in meta) == sorted(trace.metadata)
    zero = trace.metadata["beta_zero_solution"].values
    assert (f"meta beta_zero_solution ScalarField(n={zero.size}, "
            f"min={float(zero.min())!r}, max={float(zero.max())!r}, ") in text
    number = r"[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?|nan|inf"
    row = rf"({number})( ({number})){{3}}"
    for ln in lines:
        assert (ln.startswith("converged ")
                or re.fullmatch(r"meta \S+ \S.*", ln)
                or ln == "columns beta lp_norm_p c2a_proxy relative_residual"
                or re.fullmatch(row, ln)), ln
    assert sum(bool(re.fullmatch(row, ln)) for ln in lines) == len(trace.betas)


def test_polish_failure_names_newton_status(gate_setup, monkeypatch):
    mesh, geom, dom, ops, gate = gate_setup
    init = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], -0.1,
                           gate.metadata["center"], gate.metadata["radius"]),
    )

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(local_yamabe, "splu", singular)
    with pytest.raises(RuntimeError, match=r"Newton polish singular after 0 steps"):
        local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, -0.1, init,
                                     ops=ops, require_gate=False, newton_only=True)


def test_a_failed_factorization_of_A_refuses_the_solve(gate_setup, monkeypatch):
    mesh, geom, dom, ops, gate = gate_setup
    init = local_yamabe.test_function(
        mesh, dom, geom,
        TestFunctionParams(gate.metadata["eps_star"], -0.1,
                           gate.metadata["center"], gate.metadata["radius"]),
    )

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(local_yamabe, "splu", singular)
    with pytest.raises(RuntimeError,
                       match=r"^factorization of A failed: Factor is exactly singular$"):
        local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, -0.1, init,
                                     ops=ops, require_gate=False)


# the local-solve benchmark inputs: a ball around each preset's marked centre
LOCAL_SOLVE_CASES = {"ball-negR": 0.55, "bump-t3": 0.40}


@pytest.fixture(scope="module")
def local_solve_traces():
    """Per local-solve case: inputs, the continuation, and its full-stall oracle.

    The oracle runs with ``HANDOFF_RESIDUAL = 0``, so its projected gradient
    only stops on an energy stall or a failed line search, before the Newton.
    """
    out = {}
    for preset_id, radius in LOCAL_SOLVE_CASES.items():
        mesh, geom = preset(preset_id, 2)
        center = np.asarray(geom.metadata["marked_region_center"])
        dom = geometry.extract_subdomain(
            mesh, lambda v: np.einsum("ij,ij->i", v - center, v - center) < radius**2)
        ops = _dirichlet_ops(mesh, geom, dom)
        trace = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.1, ops=ops)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local_yamabe, "HANDOFF_RESIDUAL", 0.0)
            oracle = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.1,
                                                    ops=ops)
        out[preset_id] = (mesh, geom, dom, ops, trace, oracle)
    return out


@pytest.mark.parametrize("preset_id", sorted(LOCAL_SOLVE_CASES))
def test_gradient_handoff_matches_full_stall_gradient(local_solve_traces, preset_id):
    *_, trace, oracle = local_solve_traces[preset_id]
    first, first_oracle = trace.solutions[0].metadata, oracle.solutions[0].metadata
    assert first["gradient_steps"] < first_oracle["gradient_steps"]
    assert abs(first["Q_min"] - first_oracle["Q_min"]) <= 1e-10 * first_oracle["Q_min"]
    u0 = trace.metadata["beta_zero_solution"].values
    v0 = oracle.metadata["beta_zero_solution"].values
    assert np.abs(u0 - v0).max() <= 1e-10 * np.abs(v0).max()


@pytest.mark.parametrize("preset_id", sorted(LOCAL_SOLVE_CASES))
def test_late_continuation_steps_take_no_newton_step(local_solve_traces, preset_id):
    *_, trace, _ = local_solve_traces[preset_id]
    late = [sol.metadata["newton_iterations"]
            for beta, sol in zip(trace.betas, trace.solutions) if abs(beta) <= 1e-4]
    assert late and late == [0] * len(late)
    # the beta = 0 polish starts from the secant prediction too
    assert trace.metadata["beta_zero_solution"].metadata["newton_iterations"] == 0


def test_secant_prediction_is_clamped_and_accepted(local_solve_traces):
    mesh, geom, dom, ops, trace, _ = local_solve_traces["ball-negR"]
    u = trace.solutions[2].values
    # raise the older solution on the interior layer next to the frontier, so
    # the extrapolation u + 0.5 (u - older) = u (1 - 1.5 w) goes negative there
    graph = mesh.vertex_graph()
    near = np.intersect1d(graph[dom.frontier_set].indices, dom.interior_set)
    w = np.zeros(mesh.num_vertices)
    w[near] = 1.0
    older = ScalarField(u * (1.0 + 3.0 * w), mesh.mesh_id)
    betas = [-0.1, -0.05]
    assert (u + 0.5 * (u - older.values)).min() < 0
    pred = local_yamabe._secant(betas, [older, ScalarField(u, mesh.mesh_id)], -0.025)
    assert pred.values.min() == 0.0 and np.all(pred.values[near] == 0.0)
    assert np.all(pred.values[dom.frontier_set] == 0.0)
    sol = local_yamabe.solve_perturbed(mesh, dom, geom, CST, 1.0, -0.025, pred, ops=ops,
                                       require_gate=False, newton_only=True)
    assert sol.values[dom.interior_set].min() > 0
    assert sol.metadata["newton_status"] == "converged"


def test_beta_continuation_uses_the_callers_gate(gate_setup, monkeypatch):
    mesh, geom, dom, ops, gate = gate_setup
    with pytest.raises(ValueError, match="another beta0 or lambda"):
        local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.2, ops=ops, gate=gate)

    def no_gate(*args, **kwargs):
        raise AssertionError("the caller's gate is recomputed")

    monkeypatch.setattr(local_yamabe, "energy_gate", no_gate)
    trace = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.1, ops=ops,
                                           gate=gate)
    assert trace.converged and trace.metadata["gate_Q_eps"] == gate.Q_eps


_SOLVE_CRITICAL = local_yamabe._solve_critical


def _l2_gradient_critical(ops, free, beta, lam, S, init, newton_only=False):
    """``_solve_critical`` with the projected gradient in the plain L^2 metric.

    The oracle for the A-metric gradient: the earlier version's loop, with
    gradient 2 r and a hand-off at a 1e-2 relative residual, followed by
    the program's own Newton.  Only the unweighted target (S None) is done.
    """
    if newton_only:
        return _SOLVE_CRITICAL(ops, free, beta, lam, S, init, newton_only=True)
    assert S is None
    p = ops.constants.p
    fq = ops.free_quadrature(free)
    A = fq.conformal_laplacian_matrix(beta)
    mL = ops.mass_lumped[free]

    def mass(u):
        return lam * fq.integrate(np.abs(fq.quad_values(u)) ** p)

    u = np.maximum(init[free], 0.0)
    torsion = np.abs(fq.factor(A.data, local_yamabe.splu)(mL))
    u = u + 0.3 * u.max() * torsion / torsion.max()
    u /= mass(u) ** (1.0 / p)
    t, J_prev = 1.0, None
    for steps in range(300):
        Au = A @ u
        J = float(u @ Au)
        if J_prev is not None and J_prev - J < 1e-12 * max(abs(J), 1.0):
            break
        J_prev = J
        r = Au - J * lam * fq.nonlinear_load(u, 1.0)
        if operators.dual_norm(r, mL) <= 1e-2 * operators.dual_norm(Au, mL):
            break
        step, improved = t, False
        for _ in range(40):
            cand = np.maximum(u - 2.0 * step * r, 0.0)
            dc = mass(cand)
            if dc > 0:
                cand = cand / dc ** (1.0 / p)
                if float(cand @ (A @ cand)) < J:
                    u, t, improved = cand, 1.5 * step, True
                    break
            step *= 0.5
        if not improved:
            break
    Q = float(u @ (A @ u)) / mass(u) ** (2.0 / p)
    start = np.zeros(ops.num_vertices)
    start[free] = u * Q ** (1.0 / (p - 2.0))
    u_full, info = _SOLVE_CRITICAL(ops, free, beta, lam, S, start, newton_only=True)
    uf = u_full[free]
    info["Q_min"] = float(uf @ (A @ uf)) / mass(uf) ** (2.0 / p)
    info["gradient_steps"] = steps
    return u_full, info


@pytest.mark.parametrize("preset_id", sorted(LOCAL_SOLVE_CASES))
def test_a_metric_gradient_matches_the_l2_gradient_oracle(local_solve_traces,
                                                         preset_id, monkeypatch):
    mesh, geom, dom, ops, trace, _ = local_solve_traces[preset_id]
    monkeypatch.setattr(local_yamabe, "_solve_critical", _l2_gradient_critical)
    l2 = local_yamabe.beta_continuation(mesh, dom, geom, CST, 1.0, -0.1, ops=ops)
    first, first_l2 = trace.solutions[0].metadata, l2.solutions[0].metadata
    assert first["gradient_steps"] < first_l2["gradient_steps"]
    assert abs(first["Q_min"] - first_l2["Q_min"]) <= 1e-10 * first_l2["Q_min"]
    u0 = trace.metadata["beta_zero_solution"].values
    v0 = l2.metadata["beta_zero_solution"].values
    assert np.abs(u0 - v0).max() <= 1e-10 * np.abs(v0).max()
