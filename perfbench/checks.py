"""Output checks of the pipeline benchmark.

Every check recomputes what it asserts, from a closed form, from the
assembled matrices with a dense solver, or from the benchmark's own
quadrature; none compares against a stored copy of earlier output.  A check
raises :class:`CheckFailed` naming the first property that does not hold.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.sparse import diags
from scipy.spatial import cKDTree

from cywbench import operators
from cywbench import sphere_tools
from cywbench.constants import DimensionConstants
from cywbench.geometry import TET_QP, TET_QW

CST = DimensionConstants(3)

CONSTANT_ROUTE_TOL = 1e-12
ANTIPODE_TOL = 1e-9
EIGEN_TOL = 1e-8
LOCAL_TOL = 1e-8
SUB_WEAK_TOL = 1e-10  # verify_inequalities' sub-solution tolerance at scale 1
CURVATURE_TOL = 1e-4
MONOTONE_SLACK = 1e-12


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _dual_norm(r: np.ndarray, m: np.ndarray) -> float:
    return math.sqrt(float(r @ (r / m)))


# ---------------------------------------------------------------------------
# sphere-s3
# ---------------------------------------------------------------------------


def check_constant_route(report, level: float, background: float = 6.0) -> None:
    """Constant S on the round sphere: u = (R/S)^{1/(p-2)} in closed form."""
    _require(report.pipeline_route == "trivial-constant",
             f"route {report.pipeline_route!r}, expected trivial-constant")
    _require(report.metadata.get("accepted") is True, "report not accepted")
    u = report.metadata["solution"].values
    expected = (background / level) ** (1.0 / CST.p_minus_2)
    err = float(np.abs(u - expected).max()) / expected
    _require(err <= CONSTANT_ROUTE_TOL,
             f"u differs from (R/S)^(1/(p-2)) = {expected!r} by {err:.3e} relative")


def antipodal_value_gaps(vertices: np.ndarray, values: np.ndarray, tol: float) -> int:
    """Number of antipodal vertex pairs whose values differ by more than tol."""
    dist, partner = cKDTree(vertices).query(-vertices)
    _require(float(dist.max()) <= ANTIPODE_TOL, "mesh vertices are not antipodally paired")
    i = np.arange(len(vertices))
    first = i < partner
    return int((np.abs(values[i[first]] - values[partner[first]]) > tol).sum())


def check_odd_refusal(err, vertices: np.ndarray, values: np.ndarray) -> None:
    """An odd target is refused at CONDITION A with antipodal witnesses.

    The witness count is at least the number of antipodal vertex pairs whose
    values differ by more than the stated value tolerance.
    """
    _require(err.stage == "condition-a", f"refused at stage {err.stage!r}, expected condition-a")
    verdict = err.report.obstructions
    _require(verdict.verdict == "fail", f"verdict {verdict.verdict!r}, expected fail")
    for (a, b), _relation, _gap in verdict.witnesses:
        gap = float(np.linalg.norm(np.asarray(a.ambient) + np.asarray(b.ambient)))
        _require(gap <= ANTIPODE_TOL, f"witness pair is not antipodal (|P + P'| = {gap:.3e})")
    tol = sphere_tools.VALUE_TOL * (1.0 + float(np.abs(values).max()))
    needed = antipodal_value_gaps(vertices, values, tol)
    _require(needed > 0, "odd target has no antipodal value gap")
    _require(len(verdict.witnesses) >= needed,
             f"{len(verdict.witnesses)} witnesses, fewer than the {needed} "
             "antipodal pairs with a value gap")


def check_even_pass(verdict) -> None:
    """An even target passes CONDITION A without witnesses."""
    _require(verdict.verdict != "fail", "even target refused at CONDITION A")
    _require(not verdict.witnesses, f"{len(verdict.witnesses)} witnesses for an even target")


# ---------------------------------------------------------------------------
# robin-eigen
# ---------------------------------------------------------------------------


def pencil(ops, operator: str):
    """The (L, M) pencil of ``first_eigenpair``, built from the assembled matrices."""
    a = ops.constants.a
    robin = ops.bc_mode == "robin"
    if operator == "conformal":
        L = a * ops.stiffness + ops.curvature_mass
        if robin:
            L = L + ops.boundary_mass
        M = ops.mass
    elif operator == "conformal-lumped":
        d = ops.curvature_mass_lumped + (ops.boundary_mass_lumped if robin else 0.0)
        L = a * ops.stiffness + diags(d)
        M = diags(ops.mass_lumped)
    else:
        raise ValueError(f"no pencil for operator {operator!r}")
    return L.tocsr(), M.tocsr()


def check_eigenpair(eig, L, M, exact=None) -> None:
    """Smallest eigenpair: dense eigh agreement, residual, no sign change."""
    eta = float(eig.eigenvalue)
    dense = float(scipy.linalg.eigh(L.toarray(), M.toarray(), eigvals_only=True,
                                    subset_by_index=[0, 0])[0])
    _require(abs(eta - dense) <= EIGEN_TOL * abs(dense),
             f"eta {eta!r} differs from the dense eigh value {dense!r}")
    if exact is not None:
        _require(abs(eta - exact) <= EIGEN_TOL * abs(exact),
                 f"eta {eta!r} differs from the exact value {exact!r}")
    _require(eig.residual <= EIGEN_TOL, f"reported residual {eig.residual:.3e}")
    phi = eig.eigenfunction.values
    m = np.asarray(M.sum(axis=1)).ravel()
    Mphi = M @ phi
    res = _dual_norm(L @ phi - eta * Mphi, m) / _dual_norm(Mphi, m)
    _require(res <= EIGEN_TOL, f"recomputed residual {res:.3e}")
    tol = 1e-10 * float(np.abs(phi).max())
    _require(bool((phi >= -tol).all() or (phi <= tol).all()), "eigenvector changes sign")


# ---------------------------------------------------------------------------
# local-solve
# ---------------------------------------------------------------------------


def quadrature_load(mesh, geom, u: np.ndarray):
    """Load F_i = int |u|^{p-2} u phi_i and int |u|^p by the P1 quadrature rule."""
    uq = u[mesh.tets] @ TET_QP.T  # (nt, nq)
    wq = TET_QW[None, :] * geom.volume_density
    load = np.bincount(
        mesh.tets.ravel(),
        weights=((wq * np.abs(uq) ** (CST.p - 2.0) * uq) @ TET_QP).ravel(),
        minlength=mesh.num_vertices,
    )
    return load, float((wq * np.abs(uq) ** CST.p).sum())


def check_local_solution(gate, trace, mesh, geom, domain, lam: float) -> None:
    """Converged continuation whose beta = 0 limit solves the Dirichlet problem."""
    _require(gate.gate_pass, "energy gate did not pass")
    _require(trace.converged, "continuation did not converge")
    sol = trace.metadata.get("beta_zero_solution")
    _require(sol is not None, "no beta = 0 solution")
    u = sol.values
    interior = domain.interior_set
    _require(float(u[interior].min()) > 0, "beta = 0 solution not positive on the interior")
    ops = operators.assemble(mesh, geom, CST, bc_mode="dirichlet", domain=domain)
    A = CST.a * ops.stiffness + ops.curvature_mass
    load, lp_p = quadrature_load(mesh, geom, u)
    m = ops.mass_lumped[interior]
    r = (A @ u - lam * load)[interior]
    rel = _dual_norm(r, m) / _dual_norm(lam * load[interior], m)
    _require(rel <= LOCAL_TOL, f"recomputed Dirichlet residual {rel:.3e}")
    energy = float(u @ (A @ u))
    gap = abs(energy - lam * lp_p) / abs(lam * lp_p)
    _require(gap <= LOCAL_TOL, f"energy identity off by {gap:.3e} relative")


# ---------------------------------------------------------------------------
# bump-glue
# ---------------------------------------------------------------------------


def check_glue_failure(err) -> None:
    """The known gluing failure: its stage and the report it leaves behind."""
    _require(err.stage == "glue_supersolution",
             f"failed at stage {err.stage!r}, expected glue_supersolution")
    rep = err.report
    _require(rep is not None and rep.eig is not None, "failure report carries no eigenpair")
    _require(rep.eig.eigenvalue > 0, f"eigenvalue {rep.eig.eigenvalue!r} not positive")
    _require(rep.eig.residual <= EIGEN_TOL, f"eigen residual {rep.eig.residual:.3e}")
    sub = rep.verification["sub_weak_rows_max"]
    _require(sub <= SUB_WEAK_TOL, f"sub-solution weak rows reach {sub:.3e}")


def check_bracket_solution(report, mesh, geom, S) -> None:
    """Criterion-07 conditions on a returned bracket-route report (closed mesh).

    The curvature residual is recomputed from the lumped rows in the working
    geometry, which the recorded normalization factors rebuild.
    """
    _require(report.metadata.get("accepted") is True, "report not accepted")
    state = report.iteration
    _require(state.bracket_violations == 0, f"{state.bracket_violations} bracket violations")
    its = [it.values for it in state.iterates]
    for k in range(len(its) - 1):
        _require(bool((its[k + 1] >= its[k] - MONOTONE_SLACK).all()),
                 f"iterate {k + 1} decreases")
    u = report.metadata["solution"].values
    _require(float(u.min()) > 0, "solution not positive")
    work = geom
    for v in report.metadata.get("normalization_factors", []):
        ops = operators.assemble(mesh, work, CST)
        work = operators.conformal_change(work, v, ops,
                                          boundary_flux=v.metadata.get("boundary_flux"))
    ops = operators.assemble(mesh, work, CST)
    Sv = S.values
    rows = (CST.a * (ops.stiffness @ u) + ops.curvature_mass_lumped * u
            - ops.mass_lumped * Sv * u ** (CST.p - 1.0))
    curvature_gap = rows / (ops.mass_lumped * u ** (CST.p - 1.0))
    res = float(np.abs(curvature_gap).max()) / float(np.abs(Sv).max())
    _require(res <= CURVATURE_TOL, f"recomputed curvature residual {res:.3e}")


def check_identical_text(first: str, text: str) -> None:
    """Reports of the same configuration are byte-identical (criterion 13)."""
    _require(text == first, "report text differs from the first pass")
