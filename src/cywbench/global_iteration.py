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
nodal test cone.  The super-solution is the scaled first eigenfunction
where that already dominates the local solution.  Otherwise a per-vertex
bound that rules out every dominating candidate, where one holds, refuses
the gluing before any Newton step; failing that, the gluing of the two is
root-found once on the lumped rows by ``operators.damped_newton`` and
checked pointwise in the lumped strong form.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field, replace
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
    """Stage-tagged pipeline failure; ``prescribe`` attaches its failure ``report``."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.report = None


@dataclass
class GluingConfig:
    """Gluing input ``gamma``; the pipeline fills in and reports the rest."""

    gamma: float = 1e-2
    theta: float = 1.0
    mollifier_width: Optional[float] = None
    beta_margin: Optional[float] = None

    def validated(self) -> "GluingConfig":
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 0")
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


def _strong_residual(ops: AssembledOperators, u: np.ndarray, S: np.ndarray):
    return _lumped_rows(ops, u, S) / ops.mass_lumped


def _curvature(ops: AssembledOperators, u: np.ndarray) -> np.ndarray:
    """Curvature of u^{p-2} g from the lumped rows: u^{1-p} (a K u + m R u)/m.

    Off the boundary, where ``conformal_change`` corrects nothing, this is
    bitwise its new scalar curvature.
    """
    return ops.apply_conformal_laplacian_vec(u) / u ** (ops.constants.p - 1.0)


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
    Raises an ``eigen`` ``PipelineError`` when 200 halvings do not get there.
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
        raise PipelineError(
            "eigen",
            f"could not scale the eigenfunction to a super-solution: the lumped "
            f"rows of theta*phi stay nonpositive somewhere after halving theta "
            f"200 times (lumped eta_1 = {eig.eigenvalue:.6g})",
        )
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
    unchanged.  Otherwise, where ``_dominance_bound`` certifies a vertex
    whose row no dominating candidate can lift to the check's -1e-10 slack,
    a ``PipelineError`` naming that certificate is raised before any Newton
    step.  Only then does the transition-cutoff blend of the two envelopes
    initialize one ``operators.damped_newton`` on the lumped rows; the
    converged root is shifted by a tiny positive constant, which makes every
    row strictly positive up to 1e-10 slack, and checked once.  A failed
    check raises a ``PipelineError`` naming the Newton status, the vertices
    below an envelope, the worst vertex and the certificate, if any.
    """
    config.validated()
    mesh = ops.mesh
    phi, u1v, Sv = phi_scaled.values, u1.values, S.values
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

    if (phi >= u1v).all():
        return ScalarField(
            phi, mesh.mesh_id, {"branch": "eigenfunction-dominates", "theta_used": float(phi_scaled.metadata.get("theta", 0.0))}
        )

    def at(i):
        return ", ".join(map(repr, mesh.vertices[i].tolist()))

    cert = _dominance_bound(ops, u1v, domain, Sv)
    certificate = "no per-vertex certificate" if cert is None else (
        f"certificate: vertex {cert[0]} at ({at(cert[0])}) has u_minus {float(u1v[cert[0]])!r} "
        f">= s* {cert[1]!r}, so every dominating candidate has row <= bound {cert[2]!r}")
    # the bound must clear the check's slack beyond its own rounding
    if cert is not None and cert[2] + 1e-9 * abs(cert[2]) < -1e-10:
        raise PipelineError("glue_supersolution", "Newton not run, as no dominating candidate "
                            "can pass the check; " + certificate)
    mL = ops.mass_lumped

    def rows_and_norm(u):
        r = _lumped_rows(ops, u, Sv)
        return r, dual_norm(r, mL)

    def newton_step(u, r):
        return ops.factor(_lumped_jacobian(ops, u, Sv), splu)(-r)

    def mollified(f):
        return _geometry.mollify(ScalarField(f, mesh.mesh_id), mesh, config.mollifier_width).values

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
    shift = 1e-13 * float(np.abs(u_star).max())
    u_plus = u_star + shift
    rows = _strong_residual(ops, u_plus, Sv)
    below = int(((u_plus < u1v - 1e-12) | (u_plus < phi - 1e-12)).sum())
    if rel <= 1e-10 and rows.min() >= -1e-10 and below == 0 and u_plus.min() > 0:
        return ScalarField(u_plus, mesh.mesh_id, {
            "branch": "blend-newton", "gamma_used": gamma, "shift": shift,
            "newton_relative_residual": rel, "strong_residual_min": float(rows.min())})

    k = int(np.argmin(rows))
    raise PipelineError(
        "glue_supersolution",
        f"Newton {res.status} after {len(res.steps)} steps, relative residual {rel:.3e}; "
        f"vertices below an envelope: {below}; worst vertex {k} at ({at(k)}) with "
        f"strong-residual margin {rows[k]:.3e}; " + certificate,
    )


def _dominance_bound(ops, u1, domain, S):
    """(i, s*_i, b_i) at the interior vertex with the most negative b_i < -1e-10.

    Where stiffness row i has no positive off-diagonal, S_i > 0 and u1_i -
    1e-12 >= s*_i, every u >= max(u1 - 1e-12, 0) has strong row i at most b_i
    = f_i(u1_i - 1e-12) / m_i, as f_i(s) = c_i s - m_i S_i s^{p-1} falls past s*_i.
    """
    K, m, p = ops.stiffness.tocoo(), ops.mass_lumped, ops.constants.p
    z = np.bincount(K.row, (K.row != K.col) & (K.data > 0), ops.num_vertices) == 0
    c = ops.add_robin(ops.constants.a * K.diagonal() + ops.curvature_mass_lumped, 1.0, lumped=True)
    i = domain.interior_set[z[domain.interior_set] & (S[domain.interior_set] > 0)]
    s_star = (np.maximum(c[i], 0.0) / ((p - 1.0) * m[i] * S[i])) ** (1.0 / (p - 2.0))
    s = u1[i] - 1e-12
    b = (c[i] * s - m[i] * S[i] * s ** (p - 1.0)) / m[i]
    b = np.where(s >= s_star, b, np.inf)
    if not (b < -1e-10).any():
        return None
    j = int(np.argmin(b))
    return int(i[j]), float(s_star[j]), float(b[j])


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
    of the interval, for S_i < 0 at the bottom.  Only where the stiffness has
    no positive off-diagonal entry, recorded as ``metadata["z_matrix"]``, does
    this make the iteration matrix an M-matrix and the update map
    order-preserving on the bracket.  One automatic doubling of k is attempted
    on a bracket violation beyond the 1e-12 slack.
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
        solve = ops.factor(A, splu)
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
            "z_matrix": bool((A - diags(A.diagonal())).max() <= 0),
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
    vertex star, so boundary data and remote signs are untouched.  The
    amplitude runs through s = 1 - 2^-k, k = 1..20, and the first s whose
    curvature (``_curvature``) at P is negative is kept; that is bitwise the
    curvature ``conformal_change`` gives there, as the dimple keeps the
    boundary flux (2/(p-2)) h v and so needs no boundary correction.  The
    dimple's metadata keeps the consistent first eigenvalue it started from
    (``eta_before``), which ``prescribe`` names if the eigenvalue it finds
    afterwards is not positive.
    """
    n = ops.num_vertices
    if ops.geom.scalar_curvature.values[P] < 0:
        return ScalarField(np.ones(n), ops.mesh.mesh_id, {"branch": "already-negative"})
    eta = _operators.first_eigenpair(ops).eigenvalue
    if eta <= 0:
        raise PipelineError(
            "negative_scalar_normalization", "first eigenvalue not positive"
        )
    hat = np.zeros(n)
    hat[P] = 1.0
    for k in range(1, 21):
        s = 1.0 - 2.0**-k
        v = 1.0 - s * hat
        if _curvature(ops, v)[P] < 0:
            return ScalarField(v, ops.mesh.mesh_id,
                               {"branch": "dimple", "s": s, "vertex": P, "eta_before": eta})
    raise PipelineError(
        "negative_scalar_normalization", "dimple amplitude search exhausted"
    )


def positive_mean_curvature_normalization(ops: AssembledOperators) -> ScalarField:
    """Positive factor v = 1 + t*w with recomputed boundary mean curvature > 0.

    w solves the discrete Robin problem (aK + M_R + M_h) w = a M_b f with a
    boundary profile f raising the flux where h is nonpositive, so
    B_g v = (2/(p-2)) h + t f is known by construction and the new mean
    curvature is ((p-2)/2) v^{-p/2} B_g v.  As for the dimple, ``eta_before``
    is the consistent first eigenvalue the factor started from.
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
                        "eta_before": eig.eigenvalue,
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
    Rnew = _curvature(ops, u)
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
    """Domain and level of the local stage, where S is a positive constant.

    An admissible S (``construct_admissible_function``) gives its recorded
    core and level; a constant S on a preset with a marked region gives the
    marked ball (``geometry.ball_domain``) and that constant.  Every
    route-selection refusal is made here, as a ``route-selection``
    ``PipelineError``: no such region, a core or ball that is not a valid
    domain (an empty one included), and a nonpositive level.
    """
    meta = S.metadata
    try:
        if "admissible_core" in meta:
            core = meta["admissible_core"]
            domain = _geometry.extract_subdomain(mesh, lambda _: core)
            lam = float(meta["admissible_level"])
        elif _is_constant(S.values) and "marked_region_radius" in geom.metadata:
            domain = _geometry.ball_domain(mesh, geom.metadata["marked_region_center"],
                                           geom.metadata["marked_region_radius"])
            lam = float(S.values[0])
        else:
            raise PipelineError(
                "route-selection",
                "S is neither admissible-class (region metadata) nor constant "
                "on a preset with a marked region",
            )
    except ValueError as err:
        raise PipelineError("route-selection", str(err)) from err
    if lam <= 0:
        raise PipelineError("route-selection", "admissible level must be positive")
    return domain, lam


def _conformal_step(ops: AssembledOperators, v: ScalarField, factors: list,
                    boundary_flux=None) -> AssembledOperators:
    """Operators of the metric v^{p-2} g; ``v`` is appended to ``factors``."""
    geom = _operators.conformal_change(ops.geom, v, ops, boundary_flux=boundary_flux)
    factors.append(v)
    return _operators.assemble(ops.mesh, geom, ops.constants, bc_mode=ops.bc_mode)


def prescribe(
    mesh: Mesh,
    geom: GeometrySpec,
    S: ScalarField,
    bc_mode: str = "closed",
    config: Optional[GluingConfig] = None,
) -> SolveReport:
    """Full prescription pipeline: route, local solve, bracket, iterate, verify.

    Routing follows the preset flags; the sphere route demands a CONDITION A
    pass and is refused with the obstruction verdict otherwise.  The general
    route applies at most two conformal normalizations, each by one
    ``_conformal_step``, and then works on the operators of that one metric:
    the energy gate and the continuation read only the domain's interior
    rows and columns, bitwise those of a Dirichlet assembly.  An accepted
    bracket is verified by ``_curvature`` off the boundary and, under Robin
    conditions, by the boundary rows.

    The one ``SolveReport`` is created at entry, with a copy of ``config``
    as its ``glue`` (reports never share it with the caller), and filled in
    stage by stage: each stage writes its result into it once.  A returned
    report's metadata holds the ``solution`` and the ``operators`` assembled
    for the input geometry.  Every ``PipelineError`` it raises carries the
    same report as ``err.report``: the results of the stages that finished,
    with ``failed_stage`` and ``failure`` in its verification.
    """
    report = SolveReport(
        pipeline_route=geom.metadata.get("routing", "not-lcf-in-O"), thresholds=None,
        eig=None, glue=replace(config or GluingConfig()), iteration=None, verification={},
        metadata={"accepted": False},
    )
    cst = DimensionConstants(3)
    route = report.pipeline_route
    Sv = S.values
    try:
        if route == "scenario-a-sphere":
            report.obstructions = ob = _sphere.check_condition_a(mesh.vertices, Sv)
            ob.metadata["sampler"] = "nearest-vertex sampler (value relations only)"
            if ob.verdict == "fail":
                raise PipelineError(
                    "condition-a",
                    f"target refused: CONDITION A fails with "
                    f"{len(ob.witnesses)} witness pair(s)",
                )

        ops = _operators.assemble(mesh, geom, cst, bc_mode=bc_mode)
        if _is_constant(Sv) and float(
            np.abs(geom.scalar_curvature.values
                   - geom.scalar_curvature.values[0]).max()
        ) <= 1e-12:
            u, report.verification = _constant_route(S, ops)
            report.pipeline_route = "trivial-constant"
            report.metadata.update(accepted=report.verification["min_u"] > 0,
                                   solution=u, operators=ops)
            return report

        # --- general bracket pipeline -------------------------------------
        work_ops, factors = ops, []
        if bc_mode == "robin":
            v_h = positive_mean_curvature_normalization(work_ops)
            if v_h.metadata["branch"] != "already-positive":
                work_ops = _conformal_step(work_ops, v_h, factors,
                                           v_h.metadata["boundary_flux"])

        domain, lam = _pick_region_domain(mesh, work_ops.geom, S)

        Rdom = work_ops.geom.scalar_curvature.values[domain.vertex_set]
        if Rdom.max() >= 0 and route in ("scenario-a-sphere", "not-lcf-in-O"):
            v_neg = negative_scalar_normalization(int(domain.interior_set[0]), work_ops)
            if v_neg.metadata["branch"] != "already-negative":
                work_ops = _conformal_step(work_ops, v_neg, factors)

        # local stage: a bare solver error becomes a tagged pipeline failure
        try:
            if route == "lcf-manifold":
                Qf = ScalarField(np.full(mesh.num_vertices, lam), mesh.mesh_id)
                local = _local.solve_flat_punctured(mesh, domain, Qf, work_ops.geom, cst)
            else:
                report.thresholds = gate = _local.energy_gate(
                    mesh, domain, work_ops.geom, cst, lam, -0.1, ops=work_ops
                )
                if not gate.gate_pass:
                    raise PipelineError(
                        "energy-gate",
                        f"Q_eps = {gate.Q_eps:.6g} >= T_used = "
                        f"{gate.metadata['T_used']:.6g}",
                    )
                trace = _local.beta_continuation(
                    mesh, domain, work_ops.geom, cst, lam, -0.1, ops=work_ops,
                    gate=gate
                )
                local = trace.metadata.get("beta_zero_solution") or trace.solutions[-1]
        except PipelineError:
            raise
        except (ValueError, RuntimeError) as err:
            raise PipelineError("local-solve", str(err)) from err

        u_minus = make_subsolution(local, domain, work_ops, S)
        # kept for a failure report; the accepted return replaces it
        report.verification["sub_weak_rows_max"] = u_minus.metadata["weak_rows_max"]
        report.eig = eig = _operators.first_eigenpair(
            work_ops, mass="lumped", operator="conformal-lumped"
        )
        if eig.eigenvalue <= 0:
            message = f"first eigenvalue {eig.eigenvalue:.6g} not positive on this route"
            for v in factors:
                where = f" at vertex {v.metadata['vertex']}" if "vertex" in v.metadata else ""
                message += (f"; the {v.metadata['branch']} normalization factor{where} was "
                            f"applied at consistent eigenvalue {v.metadata['eta_before']:.6g}")
            if factors:
                message += ("; the continuous problem keeps the sign of the first "
                            "eigenvalue under conformal change")
            raise PipelineError("eigen", message)
        report.glue.theta, phi_s = scale_eigenfunction(eig, S, work_ops)
        # margin beta = max over the region of (eta_1 phi - 2^{p-2} lam phi^{p-1})
        report.glue.beta_margin = float(
            (
                eig.eigenvalue * phi_s.values
                - 2.0 ** (cst.p - 2.0) * lam * phi_s.values ** (cst.p - 1.0)
            )[domain.vertex_set].max()
        )
        u_plus = glue_supersolution(local, phi_s, domain, report.glue, work_ops, S)
        ineq = verify_inequalities(u_minus, u_plus, S, work_ops)
        if not ineq["pass"]:
            raise PipelineError("verify-inequalities", f"bracket invalid: {ineq}")
        u, report.iteration = monotone_iterate(u_minus, u_plus, S, work_ops)

        # verification in the working geometry: the curvature off the
        # boundary, the Robin rows on it
        bnd = mesh.vertex_flags
        res = float(np.abs(_curvature(work_ops, u.values) - Sv)[~bnd].max()) / max(
            float(np.abs(Sv).max()), 1e-300
        )
        boundary_res = 0.0
        if bc_mode == "robin":
            rows = _lumped_rows(work_ops, u.values, Sv)
            boundary_res = float(
                np.abs(rows[bnd] / (cst.a * work_ops.boundary_mass_plain_lumped[bnd])).max()
            )
        report.verification = {
            "curvature_residual_rel": res,
            "min_u": float(u.values.min()),
            "boundary_residual": boundary_res,
            "ineq_report": ineq,
        }
        report.metadata.update(
            accepted=bool(u.values.min() > 0 and res <= 1e-4
                          and (bc_mode != "robin" or boundary_res <= 1e-6)),
            normalization_factors=factors, solution=u, operators=ops,
        )
        return report
    except PipelineError as err:
        report.verification.update(failed_stage=err.stage, failure=str(err), min_u=0.0)
        err.report = report
        raise


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
        lines.append(f"condition_a {ob.verdict}")
        lines.append(f"witnesses {len(ob.witnesses)}")
        lines.append(f"note {ob.metadata.get('basis_note', '')}")
    lines.append(f"accepted {report.metadata.get('accepted', False)}")
    return "\n".join(lines) + "\n"
