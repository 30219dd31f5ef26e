"""Sub/super-solution construction, monotone iteration, and prescription.

The global stage works in the lumped vertexwise discretization: the operator
row at vertex i is

    D(u)_i = (a K u)_i + P_i u_i - m_i S_i u_i^{p-1}

with m_i the lumped mass and P_i = m_i R_i, plus the lumped Robin term under
Robin conditions.  ``operators`` owns the Robin term of both discrete forms:
the lumped rows, Jacobians and iteration matrices and the consistent weak
rows here take it from ``AssembledOperators.add_robin``, the conformal
Laplacian from ``operators`` itself.  The bracket functions read the mesh,
geometry, constants and boundary mode from the operators they are given.
A fixed point of the monotone iteration makes the recomputed curvature
u^{1-p} (a K u + m R u)/m equal S exactly, which is what the verification
step measures.  Sub-solutions are exact zero extensions of local solutions,
verified in the assembled (consistent) weak form against the nonnegative
nodal test cone; super-solution candidates are gluings of the local solution
with the scaled first eigenfunction, root-found on the lumped rows by
``operators.damped_newton`` and verified pointwise in the lumped strong
form.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import splu

from . import geometry as _geometry
from . import local_yamabe as _local
from . import operators as _operators
from . import sphere_tools as _sphere
from .constants import DimensionConstants
from .geometry import Domain, GeometrySpec, Mesh, ScalarField
from .operators import AssembledOperators, EigenResult, damped_newton, dual_norm

__all__ = [
    "GluingConfig",
    "IterationState",
    "SolveReport",
    "PipelineError",
    "make_subsolution",
    "scale_eigenfunction",
    "glue_supersolution",
    "verify_inequalities",
    "monotone_iterate",
    "negative_scalar_normalization",
    "positive_mean_curvature_normalization",
    "prescribe",
    "report_to_text",
]


class PipelineError(RuntimeError):
    """Stage-tagged pipeline failure."""

    def __init__(self, stage: str, message: str, report=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.report = report


@dataclass
class GluingConfig:
    """Gluing input ``gamma``; the pipeline fills in and reports the rest."""

    gamma: float = 1e-2
    theta: float = 1.0
    mollifier_width: Optional[float] = None
    beta_margin: Optional[float] = None

    def validated(self) -> "GluingConfig":
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        return self


@dataclass
class IterationState:
    shift_k: float
    iterates: list
    residuals: list
    bracket_violations: int
    metadata: dict = field(default_factory=dict)


@dataclass
class SolveReport:
    pipeline_route: str
    thresholds: Optional[object]
    eig: Optional[EigenResult]
    glue: Optional[GluingConfig]
    iteration: Optional[IterationState]
    verification: dict
    obstructions: Optional[object] = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# lumped rows
# ---------------------------------------------------------------------------


def _lumped_rows(ops: AssembledOperators, u: np.ndarray, S: np.ndarray) -> np.ndarray:
    """D(u) rows: weak lumped operator minus the vertexwise nonlinearity."""
    p = ops.constants.p
    r = (
        ops.constants.a * (ops.stiffness @ u)
        + ops.curvature_mass_lumped * u
        - ops.mass_lumped * S * np.abs(u) ** (p - 2.0) * u
    )
    return ops.add_robin(r, u, lumped=True)


def _lumped_jacobian(ops: AssembledOperators, u: np.ndarray, S: np.ndarray):
    p = ops.constants.p
    d = ops.curvature_mass_lumped - ops.mass_lumped * S * (p - 1.0) * np.abs(u) ** (p - 2.0)
    d = ops.add_robin(d, 1.0, lumped=True)
    return (ops.constants.a * ops.stiffness + diags(d)).tocsc()


def _factor(ops: AssembledOperators, A):
    """Solve with ``A`` factored in the operators' cached symmetric order.

    ``A`` has the stiffness pattern plus the diagonal.  It is permuted
    symmetrically into ``ops.symmetric_order()`` and factored there with no
    further column ordering; the returned solve takes and gives vectors in
    vertex numbering.
    """
    q = ops.symmetric_order()
    lu = splu(A[q][:, q].tocsc(), permc_spec="NATURAL")

    def solve(b):
        x = np.empty_like(b)
        x[q] = lu.solve(b[q])
        return x

    return solve


def _strong_residual(ops: AssembledOperators, u: np.ndarray, S: np.ndarray):
    return _lumped_rows(ops, u, S) / ops.mass_lumped


def _consistent_rows(ops: AssembledOperators, u: np.ndarray, S: np.ndarray):
    """Assembled weak-form rows: a K u + M_R u (+ robin) - quadrature load."""
    r = (
        ops.constants.a * (ops.stiffness @ u)
        + ops.curvature_mass @ u
        - ops.nonlinear_load(u, S)
    )
    return ops.add_robin(r, u)


# ---------------------------------------------------------------------------
# sub-solution
# ---------------------------------------------------------------------------


def make_subsolution(
    local_u: ScalarField,
    domain: Domain,
    ops: AssembledOperators,
    S: ScalarField,
) -> ScalarField:
    """Exact zero extension of the local solution.

    The output equals the local solution on the domain and is zero on the
    frontier and outside.  The discrete weak sub-solution inequality holds
    because the interior rows of the assembled form vanish to solver
    tolerance (the local solve's own optimality system), the frontier rows
    pick up only the nonpositive stiffness coupling to the interior values
    (the kink), and the outside rows are exactly zero.
    """
    v = local_u.values
    if v[domain.interior_set].min() < 0:
        raise ValueError("local solution negative on the domain interior")
    u = np.zeros(ops.num_vertices)
    u[domain.vertex_set] = v[domain.vertex_set]
    u[domain.frontier_set] = 0.0
    out = ScalarField(u, ops.mesh.mesh_id, {})
    wk = _consistent_rows(ops, u, S.values) / ops.mass_lumped
    out.metadata["weak_rows_max"] = float(wk.max())
    out.metadata["strong_residual_max"] = float(
        _strong_residual(ops, u, S.values).max()
    )
    return out


# ---------------------------------------------------------------------------
# eigenfunction scaling
# ---------------------------------------------------------------------------


def scale_eigenfunction(
    eig: EigenResult,
    S: ScalarField,
    ops: AssembledOperators,
):
    """Largest dyadic theta making theta*phi a strict pointwise super-solution.

    Uses the inequality eta_1 * min phi > 2 * 2^{p-2} theta^{p-2} * max S *
    (max phi)^{p-1} (factor-2 margin), then verifies the lumped rows
    vertexwise and keeps halving theta until they are strictly positive.
    """
    if eig.eigenvalue <= 0:
        raise ValueError("first eigenvalue must be positive for the scaling")
    phi = eig.eigenfunction.values
    if phi.min() <= 0:
        raise ValueError("eigenfunction must be positive everywhere")
    smax = float(S.values.max())
    if smax <= 0:
        raise ValueError("max S must be positive")
    p = ops.constants.p
    pm2 = p - 2.0
    bound = eig.eigenvalue * phi.min() / (
        2.0 * 2.0**pm2 * smax * phi.max() ** (p - 1.0)
    )
    m = max(0, math.ceil(-math.log2(bound) / pm2))
    for _ in range(200):
        theta = 2.0**-m
        phi_s = theta * phi
        rows = _lumped_rows(ops, phi_s, S.values)
        if (rows > 0).all():
            break
        m += 1
    else:
        raise RuntimeError("could not scale the eigenfunction to a super-solution")
    return theta, ScalarField(
        phi_s, eig.eigenfunction.mesh_id, {"theta": theta, "eigenvalue": eig.eigenvalue}
    )


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def _transition_cutoff(ops, w, gamma, drift):
    """Cutoff field: 1 where w >= gamma/2, 0 where w <= -gamma/2, PDE between.

    With ``drift`` the conductances carry the w-weighting of the drift
    equation, clamped at gamma/2 so they stay nonnegative (discrete maximum
    principle); otherwise the pure second-order equation is used.
    """
    K = ops.stiffness.tocoo()
    rows, cols, vals = K.row, K.col, K.data
    off = rows != cols
    r, c, v = rows[off], cols[off], vals[off]
    if drift:
        weight = np.maximum(0.5 * (w[r] + w[c]), gamma / 2.0)
    else:
        weight = np.ones_like(v)
    cond = np.maximum(-v * weight, 0.0)
    n = ops.num_vertices
    L = coo_matrix((cond, (r, c)), shape=(n, n)).tocsr()
    d = np.asarray(L.sum(axis=1)).ravel()
    L = (diags(d) - L).tocsr()

    hi = w >= gamma / 2.0
    lo = w <= -gamma / 2.0
    out = np.zeros(n)
    out[hi] = 1.0
    band = ~(hi | lo)
    if band.any():
        idx = np.flatnonzero(band)
        rhs = -(L @ out)[idx]
        Lb = L[idx][:, idx].tocsc()
        # regularize isolated band vertices with no conductance
        dz = Lb.diagonal() == 0
        if dz.any():
            Lb = (Lb + diags(np.where(dz, 1.0, 0.0))).tocsc()
        out[idx] = splu(Lb).solve(rhs)
    return np.clip(out, 0.0, 1.0)


def glue_supersolution(
    u1: ScalarField,
    phi_scaled: ScalarField,
    domain: Domain,
    config: GluingConfig,
    ops: AssembledOperators,
    S: ScalarField,
) -> ScalarField:
    """Super-solution dominating both the local solution and theta*phi.

    When theta*phi already dominates the local solution it is returned
    unchanged.  Otherwise the transition-cutoff blend of the two envelopes
    initializes ``operators.damped_newton`` on the lumped rows; the converged
    root is shifted by a tiny positive constant, which makes every row
    strictly positive up to 1e-10 slack.  On validation failure gamma is
    halved, then theta, for at most 8 rounds; the final ``PipelineError``
    lists each attempt's gamma, phi scale, Newton status, steps and relative
    residual.
    """
    config.validated()
    mesh = ops.mesh
    phi = phi_scaled.values.copy()
    u1v = u1.values
    Sv = S.values
    gamma = config.gamma
    config.mollifier_width = 2.5 * mesh.min_edge_length()
    # shrink gamma until both margin constraints hold against the recorded
    # beta margin: 20*lam*g + 2*g^2*sup|R| < beta/2 and
    # 31*lam*(phi+g)^{p-2}*g < beta/2
    if config.beta_margin is not None and config.beta_margin > 0:
        pm2 = ops.constants.p - 2.0
        lam_loc = float(np.abs(Sv[domain.vertex_set]).max())
        supR = float(np.abs(ops.geom.scalar_curvature.values).max())
        half = 0.5 * config.beta_margin
        for _ in range(200):
            c1 = 20.0 * lam_loc * gamma + 2.0 * gamma**2 * supR
            c2 = 31.0 * lam_loc * float((phi + gamma).max()) ** pm2 * gamma
            if c1 < half and c2 < half:
                break
            gamma *= 0.5
        config.gamma = gamma

    mL = ops.mass_lumped

    def rows_and_norm(u):
        r = _lumped_rows(ops, u, Sv)
        return r, dual_norm(r, mL)

    def newton_step(u, r):
        return _factor(ops, _lumped_jacobian(ops, u, Sv))(-r)

    def mollified(f):
        return _geometry.mollify(ScalarField(f, mesh.mesh_id), mesh, config.mollifier_width).values

    worst = (None, 0.0)
    phi_scale = 1.0
    attempts = []
    for attempt in range(9):
        if (phi >= u1v).all():
            return ScalarField(
                phi, mesh.mesh_id, {"branch": "eigenfunction-dominates", "theta_used": float(phi_scaled.metadata.get("theta", 0.0))}
            )
        chi1 = _transition_cutoff(ops, u1v - phi - gamma, gamma, drift=True)
        chi_top = _transition_cutoff(ops, u1v - phi, gamma, drift=False)
        chi1 = np.clip(mollified(chi1), 0.0, 1.0)
        chi_top = np.clip(np.maximum(mollified(chi_top), chi1), 0.0, 1.0)
        chi2 = chi_top - chi1
        chi3 = 1.0 - chi_top
        blend = chi1 * u1v + chi2 * (phi + gamma) + chi3 * phi
        init = np.maximum.reduce([blend, phi, u1v]) + gamma / 4.0

        # the stopping scale stays that of the initial blend
        scale = max(dual_norm(mL * Sv * np.abs(init) ** (ops.constants.p - 1.0), mL),
                    dual_norm(ops.constants.a * (ops.stiffness @ init), mL), 1e-300)
        res = damped_newton(init, rows_and_norm, newton_step,
                            lambda u, r, rn: rn <= 1e-12 * scale, max_iter=80)
        u_star, rel = res.x, res.norm / scale
        attempts.append(f"gamma {gamma:.3e} phi-scale {phi_scale:g} Newton {res.status} "
                        f"after {len(res.steps)} steps, relative residual {rel:.3e}")
        shift = 1e-13 * float(np.abs(u_star).max())
        u_plus = u_star + shift
        rows = _strong_residual(ops, u_plus, Sv)
        ok = (
            rel <= 1e-10
            and rows.min() >= -1e-10
            and (u_plus >= u1v - 1e-12).all()
            and (u_plus >= phi - 1e-12).all()
            and u_plus.min() > 0
        )
        if ok:
            config.gamma = gamma
            return ScalarField(
                u_plus,
                mesh.mesh_id,
                {
                    "branch": "blend-newton",
                    "gamma_used": gamma,
                    "shift": shift,
                    "newton_relative_residual": rel,
                    "strong_residual_min": float(rows.min()),
                },
            )
        k = int(np.argmin(rows))
        if worst[0] is None or rows[k] < worst[1]:
            worst = (k, float(rows[k]))
        if attempt < 4:
            gamma *= 0.5
        else:
            phi *= 0.5
            phi_scale *= 0.5
    coords = ", ".join(repr(float(c)) for c in mesh.vertices[worst[0]])
    raise PipelineError(
        "glue_supersolution",
        f"auto-tune exhausted; worst vertex {worst[0]} at ({coords}) with "
        f"strong-residual margin {worst[1]:.3e}; attempts: "
        + "; ".join(f"[{k}] {a}" for k, a in enumerate(attempts)),
    )


# ---------------------------------------------------------------------------
# verification and monotone iteration
# ---------------------------------------------------------------------------


def verify_inequalities(
    u_minus: ScalarField,
    u_plus: ScalarField,
    S: ScalarField,
    ops: AssembledOperators,
) -> dict:
    """Weak/pointwise sub- and super-solution report (pure report, no raise).

    The sub-solution side is judged in the assembled weak form against the
    nonnegative nodal test cone (the zero-extension kink has no pointwise
    analogue); the super-solution side is judged in the pointwise lumped
    strong form.  Both densities are reported for each field.
    """
    um, up = u_minus.values, u_plus.values
    Sv = S.values
    sub_weak = _consistent_rows(ops, um, Sv) / ops.mass_lumped
    sup_weak = _consistent_rows(ops, up, Sv) / ops.mass_lumped
    sub_strong = _strong_residual(ops, um, Sv)
    sup_strong = _strong_residual(ops, up, Sv)
    p = ops.constants.p
    sub_scale = max(1.0, float(np.abs(Sv * np.abs(um) ** (p - 1.0)).max()))
    sup_scale = max(1.0, float(np.abs(Sv * np.abs(up) ** (p - 1.0)).max()))
    report = {
        "sub_weak_rows_max": float(sub_weak.max()),
        "sub_strong_residual_max": float(sub_strong.max()),
        "sub_pass": bool(sub_weak.max() <= 1e-10 * sub_scale),
        "super_weak_rows_min": float(sup_weak.min()),
        "super_strong_residual_min": float(sup_strong.min()),
        "super_pass": bool(sup_strong.min() >= -1e-10 * sup_scale),
        "ordering_pass": bool(
            (um >= -1e-12).all() and (um <= up + 1e-12).all()
        ),
        "u_minus_nontrivial": bool(np.any(um > 0)),
        "bc_mode": ops.bc_mode,
    }
    if ops.bc_mode == "robin":
        bnd = ops.mesh.vertex_flags
        report["robin_sub_rows_max"] = float(sub_strong[bnd].max())
        report["robin_super_rows_min"] = float(sup_strong[bnd].min())
    report["pass"] = bool(
        report["sub_pass"]
        and report["super_pass"]
        and report["ordering_pass"]
        and report["u_minus_nontrivial"]
    )
    return report


def monotone_iterate(
    u_minus: ScalarField,
    u_plus: ScalarField,
    S: ScalarField,
    ops: AssembledOperators,
):
    """Shifted monotone iteration from the sub-solution inside the bracket.

    The shift k is the maximum over vertices, over s in [min u_-, max u_+],
    of d/ds (S s^{p-1} - R s): for S_i >= 0 the inner maximum sits at the top
    of the interval, for S_i < 0 at the bottom.  This makes the iteration
    matrix an M-matrix and the update map order-preserving on the bracket.
    One automatic doubling of k is attempted on a bracket violation beyond
    the 1e-12 slack.
    """
    um, up = u_minus.values, u_plus.values
    Sv = S.values
    mL = ops.mass_lumped
    Rv = ops.curvature_mass_lumped / mL
    cst = ops.constants
    p = cst.p
    s_lo = max(0.0, float(um.min()))
    s_hi = float(up.max())
    s_star = np.where(Sv >= 0.0, s_hi, s_lo)
    k_stated = max(0.0, float(((p - 1.0) * Sv * s_star ** (p - 2.0) - Rv).max()))
    k = k_stated

    for k_round in range(2):
        A = ops.add_robin(cst.a * ops.stiffness + diags(mL * (Rv + k)), lumped=True)
        solve = _factor(ops, A)
        u = um.copy()
        iterates = [ScalarField(u.copy(), u_minus.mesh_id)]
        residuals = [float(np.abs(_strong_residual(ops, u, Sv)).max())]
        violations = 0
        ok = True
        for _ in range(500):
            rhs = mL * (Sv * np.abs(u) ** (p - 2.0) * u + k * u)
            u_next = solve(rhs)
            if (u_next < u - 1e-12).any() or (u_next > up + 1e-12).any():
                violations += 1
                ok = False
                break
            step = float(np.abs(u_next - u).max())
            u = u_next
            iterates.append(ScalarField(u.copy(), u_minus.mesh_id))
            residuals.append(float(np.abs(_strong_residual(ops, u, Sv)).max()))
            if step <= 1e-10:
                break
        if ok:
            break
        k *= 2.0
    state = IterationState(
        shift_k=k,
        iterates=iterates,
        residuals=residuals,
        bracket_violations=violations,
        metadata={
            "shift_stated": k_stated,
            "k_doublings": k_round,
        },
    )
    if not ok:
        raise PipelineError(
            "monotone_iterate",
            "bracket violation persisted after doubling the shift",
        )
    if u.min() <= 0:
        raise PipelineError("monotone_iterate", "limit not strictly positive")
    # relative residual of the limit
    scale = max(dual_norm(mL * Sv * u ** (p - 1.0), mL), 1e-300)
    state.metadata["final_relative_residual"] = (
        dual_norm(_lumped_rows(ops, u, Sv), mL) / scale
    )
    return ScalarField(u, u_minus.mesh_id, {"iterations": len(iterates) - 1}), state


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def negative_scalar_normalization(P: int, ops: AssembledOperators) -> ScalarField:
    """Positive conformal factor making the curvature negative at vertex P.

    A small dimple at P (v = 1 - s * hat_P) makes the recomputed curvature
    at P negative through the concavity term while leaving v = 1 outside the
    vertex star, so boundary data and remote signs are untouched.  s is
    grown geometrically against the conformal_change recheck oracle.
    """
    geom, mesh = ops.geom, ops.mesh
    n = ops.num_vertices
    Rv = geom.scalar_curvature.values
    if Rv[P] < 0:
        return ScalarField(np.ones(n), mesh.mesh_id, {"branch": "already-negative"})
    eta = _operators.first_eigenpair(ops).eigenvalue
    if eta <= 0:
        raise PipelineError(
            "negative_scalar_normalization", "first eigenvalue not positive"
        )
    hat = np.zeros(n)
    hat[P] = 1.0
    h_before = (
        geom.mean_curvature.values.copy() if geom.mean_curvature is not None else None
    )
    s = 0.5
    for _ in range(20):
        v = 1.0 - s * hat
        if v.min() > 0:
            flux = None
            if not mesh.is_closed:
                pm2 = ops.constants.p_minus_2
                hv = h_before if h_before is not None else np.zeros(n)
                flux = (2.0 / pm2) * hv * v
            new_geom = _operators.conformal_change(
                geom, ScalarField(v, mesh.mesh_id), ops, boundary_flux=flux
            )
            if new_geom.scalar_curvature.values[P] < 0:
                meta = {"branch": "dimple", "s": s, "vertex": P}
                if h_before is not None:
                    meta["boundary_sign_preserved"] = bool(
                        np.array_equal(
                            np.sign(h_before[mesh.vertex_flags]),
                            np.sign(
                                new_geom.mean_curvature.values[mesh.vertex_flags]
                            ),
                        )
                    )
                return ScalarField(v, mesh.mesh_id, meta)
        s = 0.5 * (s + 1.0) if v.min() > 0 else 0.5 * s
        if 1.0 - s <= 1e-8:
            break
    raise PipelineError(
        "negative_scalar_normalization", "dimple amplitude search exhausted"
    )


def positive_mean_curvature_normalization(ops: AssembledOperators) -> ScalarField:
    """Positive factor v = 1 + t*w with recomputed boundary mean curvature > 0.

    w solves the discrete Robin problem (aK + M_R + M_h) w = a M_b f with a
    boundary profile f raising the flux where h is nonpositive, so
    B_g v = (2/(p-2)) h + t f is known by construction and the new mean
    curvature is ((p-2)/2) v^{-p/2} B_g v.
    """
    if ops.bc_mode != "robin":
        raise ValueError("robin mode required")
    mesh = ops.mesh
    n = ops.num_vertices
    hv = ops.geom.mean_curvature.values
    bnd = mesh.vertex_flags
    if hv[bnd].min() > 0:
        return ScalarField(np.ones(n), mesh.mesh_id, {"branch": "already-positive"})
    eig = _operators.first_eigenpair(ops)
    if eig.eigenvalue <= 0:
        raise PipelineError(
            "positive_mean_curvature_normalization",
            "Robin first eigenvalue not positive; route refused",
        )
    cst = ops.constants
    pm2 = cst.p_minus_2
    f = np.zeros(n)
    f[bnd] = (2.0 / pm2) * (1.0 - hv[bnd])
    rhs = cst.a * (ops.boundary_mass_plain @ f)
    w = splu(ops.conformal_laplacian_matrix().tocsc()).solve(rhs)
    t = 1.0
    for _ in range(60):
        v = 1.0 + t * w
        if v.min() > 0:
            flux = (2.0 / pm2) * hv * v + t * f
            h_new = (pm2 / 2.0) * np.where(bnd, v ** (-cst.p / 2.0) * flux, 0.0)
            if h_new[bnd].min() > 0:
                return ScalarField(
                    v,
                    mesh.mesh_id,
                    {
                        "branch": "robin-profile",
                        "t": t,
                        "boundary_flux": flux,
                        "h_new_min": float(h_new[bnd].min()),
                    },
                )
        t *= 0.5
    raise PipelineError(
        "positive_mean_curvature_normalization",
        "t-halving exhausted; route refused (positive boundary mean curvature "
        "hypothesis unattainable)",
    )


# ---------------------------------------------------------------------------
# prescription pipeline
# ---------------------------------------------------------------------------


def _is_constant(values: np.ndarray) -> bool:
    """Whether a vertex field is constant up to 1e-12 relative."""
    return float(values.max() - values.min()) <= 1e-12 * max(1.0, abs(float(values.max())))


def _constant_route(S, ops):
    """Exact constant conformal factor for constant S on a constant-R preset."""
    Sv = S.values
    c, lam = ops.geom.scalar_curvature.values[0], Sv[0]
    trivial = abs(lam - c) <= 1e-14 * max(abs(c), 1.0)
    if not trivial and (c <= 0 or lam <= 0):
        raise PipelineError(
            "trivial-constant",
            "constant route needs positive constant curvature and target",
        )
    u = np.full(ops.num_vertices, 1.0 if trivial else (c / lam) ** (1.0 / ops.constants.p_minus_2))
    Rnew = ops.apply_conformal_laplacian_vec(u) / u ** (ops.constants.p - 1.0)
    verification = {
        "curvature_residual_rel": float(np.abs(Rnew - Sv).max())
        / max(float(np.abs(Sv).max()), 1e-300),
        "min_u": float(u.min()),
        "boundary_residual": 0.0,
        "sup_norm_error_vs_one": float(np.abs(u - 1.0).max()) if trivial else None,
        "strong_rows_max_abs": float(np.abs(_strong_residual(ops, u, Sv)).max()),
    }
    return ScalarField(u, ops.mesh.mesh_id, {"route": "constant"}), verification


def _pick_region_domain(mesh, geom, S):
    """Domain for the local stage: the S-admissibility region metadata.

    Every failure, an empty domain included, is a ``route-selection``
    ``PipelineError``.
    """
    meta = S.metadata
    if "admissible_region" in meta:
        # the solve domain sits inside the region, eroded to where the
        # constructed function is exactly its constant level
        sel = _geometry.erode_region(
            mesh,
            np.asarray(meta["admissible_region"], dtype=np.int64),
            float(meta.get("admissible_width", 0.0)),
        )
        pred, lam = (lambda _: sel), float(meta["admissible_level"])
    elif not (_is_constant(S.values) and "marked_region_radius" in geom.metadata):
        raise PipelineError(
            "route-selection",
            "S is neither admissible-class (region metadata) nor constant "
            "on a preset with a marked region",
        )
    else:  # globally constant S on a marked-region preset
        center = np.asarray(geom.metadata["marked_region_center"])
        radius = float(geom.metadata["marked_region_radius"])

        def pred(v):
            d = mesh.displacement(np.broadcast_to(center, v.shape), v)
            return np.einsum("ij,ij->i", d, d) < radius**2

        lam = float(S.values[0])
    try:
        return _geometry.extract_subdomain(mesh, pred), lam
    except ValueError as err:
        raise PipelineError("route-selection", str(err)) from err


def _condition_a_on_field(mesh, S):
    """CONDITION A for a vertex field, via its callable when available."""
    func = S.metadata.get("ambient_func")
    verdict = _sphere.check_condition_a(mesh.vertices, S.values if func is None else func)
    verdict.metadata["sampler"] = ("nearest-vertex sampler (value relations only)"
                                   if func is None else "caller-supplied ambient function")
    return verdict


def prescribe(
    mesh: Mesh,
    geom: GeometrySpec,
    S: ScalarField,
    bc_mode: str = "closed",
    config: Optional[GluingConfig] = None,
) -> SolveReport:
    """Full prescription pipeline: route, local solve, bracket, iterate, verify.

    Routing follows the preset flags; the sphere route demands a CONDITION A
    pass and is refused with the obstruction verdict otherwise.
    """
    config = config or GluingConfig()
    cst = DimensionConstants(3)
    route = geom.metadata.get("routing", "not-lcf-in-O")
    Sv = S.values

    obstructions = None
    if route == "scenario-a-sphere":
        verdict = _condition_a_on_field(mesh, S)
        if verdict.verdict == "fail":
            report = SolveReport(
                pipeline_route="scenario-a-sphere",
                thresholds=None,
                eig=None,
                glue=config,
                iteration=None,
                verification={"min_u": 0.0, "refused": True},
                obstructions=verdict,
                metadata={"refusal": "CONDITION A failure"},
            )
            raise PipelineError(
                "condition-a",
                f"target refused: CONDITION A fails with "
                f"{len(verdict.witnesses)} witness pair(s)",
                report=report,
            )
        obstructions = verdict

    ops = _operators.assemble(mesh, geom, cst, bc_mode=bc_mode)
    if _is_constant(Sv) and float(
        np.abs(geom.scalar_curvature.values
               - geom.scalar_curvature.values[0]).max()
    ) <= 1e-12:
        u, verification = _constant_route(S, ops)
        return SolveReport(
            pipeline_route="trivial-constant",
            thresholds=None,
            eig=None,
            glue=config,
            iteration=None,
            verification=verification,
            obstructions=obstructions,
            metadata={"accepted": verification["min_u"] > 0, "solution": u},
        )

    # --- general bracket pipeline -----------------------------------------
    work_geom = geom
    work_ops = ops
    factors = []
    if bc_mode == "robin":
        v_h = positive_mean_curvature_normalization(work_ops)
        if v_h.metadata.get("branch") != "already-positive":
            work_geom = _operators.conformal_change(
                work_geom,
                v_h,
                work_ops,
                boundary_flux=v_h.metadata.get("boundary_flux"),
            )
            work_ops = _operators.assemble(mesh, work_geom, cst, bc_mode="robin")
            factors.append(v_h)

    domain, lam = _pick_region_domain(mesh, work_geom, S)
    if lam <= 0:
        raise PipelineError("route-selection", "admissible level must be positive")

    Rdom = work_geom.scalar_curvature.values[domain.vertex_set]
    if Rdom.max() >= 0 and route in ("scenario-a-sphere", "not-lcf-in-O"):
        center = domain.interior_set[0]
        v_neg = negative_scalar_normalization(int(center), work_ops)
        if v_neg.metadata.get("branch") != "already-negative":
            work_geom = _operators.conformal_change(work_geom, v_neg, work_ops)
            work_ops = _operators.assemble(mesh, work_geom, cst, bc_mode=bc_mode)
            factors.append(v_neg)

    # local stage: a bare solver error becomes a tagged pipeline failure
    try:
        if route in ("lcf-manifold", "lcf-in-O-manifold-not-lcf"):
            Qf = ScalarField(np.full(mesh.num_vertices, lam), mesh.mesh_id)
            local = _local.solve_flat_punctured(mesh, domain, Qf, work_geom, cst)
            thresholds = None
        else:
            dir_ops = _operators.assemble(
                mesh, work_geom, cst, bc_mode="dirichlet", domain=domain
            )
            thresholds = _local.energy_gate(
                mesh, domain, work_geom, cst, lam, -0.1, ops=dir_ops
            )
            if not thresholds.gate_pass and not thresholds.metadata.get(
                "advisory_only", False
            ):
                raise PipelineError(
                    "energy-gate",
                    f"Q_eps = {thresholds.Q_eps:.6g} >= T_used = "
                    f"{thresholds.metadata['T_used']:.6g}",
                )
            trace = _local.beta_continuation(
                mesh, domain, work_geom, cst, lam, -0.1, ops=dir_ops
            )
            local = trace.metadata.get("beta_zero_solution") or trace.solutions[-1]
    except PipelineError:
        raise
    except (ValueError, RuntimeError) as err:
        raise PipelineError("local-solve", str(err)) from err

    eig = _operators.first_eigenpair(
        work_ops, mass="lumped", operator="conformal-lumped"
    )
    if eig.eigenvalue <= 0:
        raise PipelineError(
            "eigen",
            f"first eigenvalue {eig.eigenvalue:.6g} not positive on this route",
        )
    u_minus = make_subsolution(local, domain, work_ops, S)
    theta, phi_s = scale_eigenfunction(eig, S, work_ops)
    config.theta = theta
    # margin beta = max over the region of (eta_1 phi - 2^{p-2} lam phi^{p-1})
    config.beta_margin = float(
        (
            eig.eigenvalue * phi_s.values
            - 2.0 ** (cst.p - 2.0) * lam * phi_s.values ** (cst.p - 1.0)
        )[domain.vertex_set].max()
    )

    def _failure_report(stage, message):
        return SolveReport(
            pipeline_route=route,
            thresholds=thresholds,
            eig=eig,
            glue=config,
            iteration=None,
            verification={
                "failed_stage": stage,
                "failure": message,
                "min_u": 0.0,
                "sub_weak_rows_max": u_minus.metadata["weak_rows_max"],
            },
            obstructions=obstructions,
            metadata={"accepted": False},
        )

    try:
        u_plus = glue_supersolution(local, phi_s, domain, config, work_ops, S)
        ineq = verify_inequalities(u_minus, u_plus, S, work_ops)
        if not ineq["pass"]:
            raise PipelineError("verify-inequalities", f"bracket invalid: {ineq}")
        u, state = monotone_iterate(u_minus, u_plus, S, work_ops)
    except PipelineError as err:
        if err.report is None:
            err.report = _failure_report(err.stage, str(err))
        raise

    # verification in the working geometry
    new_geom = _operators.conformal_change(work_geom, u, work_ops)
    Rnew = new_geom.scalar_curvature.values
    interior = (
        ~mesh.vertex_flags if bc_mode == "robin" else np.ones(mesh.num_vertices, bool)
    )
    res = float(np.abs((Rnew - Sv))[interior].max()) / max(
        float(np.abs(Sv).max()), 1e-300
    )
    boundary_res = 0.0
    if bc_mode == "robin":
        rows = _lumped_rows(work_ops, u.values, Sv)
        bnd = mesh.vertex_flags
        boundary_res = float(
            np.abs(rows[bnd] / (cst.a * work_ops.boundary_mass_plain_lumped[bnd])).max()
        )
    verification = {
        "curvature_residual_rel": res,
        "min_u": float(u.values.min()),
        "boundary_residual": boundary_res,
        "ineq_report": ineq,
    }
    return SolveReport(
        pipeline_route=route,
        thresholds=thresholds,
        eig=eig,
        glue=config,
        iteration=state,
        verification=verification,
        obstructions=obstructions,
        metadata={
            "accepted": bool(
                u.values.min() > 0
                and res <= 1e-4
                and (bc_mode != "robin" or boundary_res <= 1e-6)
            ),
            "normalization_factors": factors,
            "solution": u,
        },
    )


# ---------------------------------------------------------------------------
# CYWREPORT serialization
# ---------------------------------------------------------------------------


def report_to_text(report: SolveReport, timestamp: bool = True) -> str:
    """Serialize a SolveReport as versioned structured text (CYWREPORT 1).

    The timestamp line (when present) is the only line that differs between
    two runs of the same configuration.
    """
    lines = ["CYWREPORT 1"]
    if timestamp:
        lines.append(
            f"timestamp {datetime.datetime.now(datetime.timezone.utc).isoformat()}"
        )
    lines.append(f"route {report.pipeline_route}")
    th = report.thresholds
    if th is not None:
        lines.append("[thresholds]")
        for k in ("T_est", "T_sharp", "A_omega", "K0", "Q_eps", "gate_pass"):
            lines.append(f"{k} {getattr(th, k)!r}")
    if report.eig is not None:
        lines.append("[eigen]")
        lines.append(f"eigenvalue {report.eig.eigenvalue!r}")
        lines.append(f"residual {report.eig.residual!r}")
        lines.append(f"sign_change_free {report.eig.sign_change_free}")
    if report.glue is not None:
        lines.append("[glue]")
        for k in ("gamma", "theta", "mollifier_width", "beta_margin"):
            lines.append(f"{k} {getattr(report.glue, k)!r}")
    if report.iteration is not None:
        it = report.iteration
        lines.append("[iteration]")
        lines.append(f"shift_k {it.shift_k!r}")
        lines.append(f"steps {len(it.iterates) - 1}")
        lines.append(f"bracket_violations {it.bracket_violations}")
        for j, r in enumerate(it.residuals):
            lines.append(f"residual {j} {r!r}")
    lines.append("[verification]")
    for k in sorted(report.verification):
        v = report.verification[k]
        if isinstance(v, dict):
            for kk in sorted(v):
                lines.append(f"{k}.{kk} {v[kk]!r}")
        else:
            lines.append(f"{k} {v!r}")
    if report.obstructions is not None:
        lines.append("[obstructions]")
        ob = report.obstructions
        if hasattr(ob, "verdict"):
            lines.append(f"condition_a {ob.verdict}")
            lines.append(f"witnesses {len(ob.witnesses)}")
            note = ob.metadata.get("basis_note", "")
            lines.append(f"note {note}")
        if hasattr(ob, "kw_values"):
            for k in sorted(ob.kw_values):
                lines.append(f"kw {k} {ob.kw_values[k]!r}")
            for k in sorted(ob.be_values):
                lines.append(f"be {k} {ob.be_values[k]!r}")
    lines.append(f"accepted {report.metadata.get('accepted', False)}")
    return "\n".join(lines) + "\n"
