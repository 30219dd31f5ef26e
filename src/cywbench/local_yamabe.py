"""Local Dirichlet solves of the critical equation with an energy gate.

The local problem on a domain Omega is

    a*(-Laplace_g) u + (R_g + beta) u = lambda * u^{p-1},   u = 0 on the frontier,

solved by a projected gradient on the unit L^p sphere followed by one
Newton solve.  The gradient is taken in the inner product of the operator
A = a K + M_R + beta M, a Sobolev gradient (Neuberger, *Sobolev Gradients
and Differential Equations*, 2010), solved with the factor of A that seeds
the iteration; a step of 1 is the normalized inverse-iteration point.  It
is a descent direction only while A is positive definite, and the line
search accepts only steps that lower the quotient.  The equation is
(p-2)-homogeneous, so rescaling the constrained minimizer by
Q_min^{1/(p-2)} removes the Lagrange multiplier and the Newton runs on the
equation itself.  The projected gradient converges only linearly, so it
stops as soon as its relative constrained residual is below
``HANDOFF_RESIDUAL`` and leaves the rest to the Newton, which converges
quadratically from there (Deuflhard, *Newton Methods for Nonlinear
Problems*, 2004).  The Newton is ``operators.damped_newton`` with a
positivity clamp, and its status goes into the solution metadata.  The
continuation in beta starts each step after the second, and the beta = 0
polish, from a secant prediction along the solution path (Allgower and
Georg, *Introduction to Numerical Continuation Methods*, 2003); a prediction
that already meets the Newton test is accepted with 0 Newton steps.  The
energy gate compares the test-function quotient Q_eps against a discrete
Sobolev-quotient estimate T_est and admits the solve only when Q_eps <
T_used.

Every test function, iterate and Newton step vanishes off the interior
vertices of Omega.  The quadrature therefore runs only over the tets that
touch an interior vertex (``operators.FreeQuadrature``), on interior-sized
vectors; the other tets contribute exactly 0.  Only the interior rows and
columns of ``ops`` are read, so a whole-mesh assembly serves bitwise as
well as the Dirichlet one assembled when none is given.  The operator and
every Jacobian are data arrays on that object's fixed interior pattern, and
the torsion seed (whose factor the gradient reuses) and every Newton step
factor them in the pattern's cached minimum-degree order
(``FreeQuadrature.factor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from . import geometry as _geometry
from .constants import DimensionConstants
from .geometry import Domain, GeometrySpec, Mesh, ScalarField
from .operators import (AssembledOperators, assemble, damped_newton, dual_norm,
                        sharp_sobolev_constant)

__all__ = [
    "TestFunctionParams",
    "EnergyThresholds",
    "ContinuationTrace",
    "test_function",
    "energy_gate",
    "solve_perturbed",
    "beta_continuation",
    "solve_flat_punctured",
    "trace_to_report",
]

GATE_SAFETY = 0.99
# projected gradient hands off to Newton once ||Au - J F|| <= this * ||Au||;
# the A-metric gradient gets there in a few steps, and from a 1e-2 hand-off
# the Newton stalls on the whole annulus r2
HANDOFF_RESIDUAL = 1e-4
EPS_SWEEP = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
BETA_RATIO = 0.5  # beta_continuation's step: beta_k = beta0 * BETA_RATIO^k


@dataclass
class TestFunctionParams:
    epsilon: float
    beta: float
    center: int
    radius: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.beta > 0:
            raise ValueError("beta must be <= 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")


@dataclass
class EnergyThresholds:
    T_est: float
    T_sharp: float
    A_omega: float
    K0: float
    Q_eps: float
    gate_pass: bool
    metadata: dict = field(default_factory=dict)

    def quotient_at_beta(self, beta: float) -> float:
        """Re-evaluate the best test-function quotient at another beta.

        Uses the cached quadrature integrals of the winning epsilon, so the
        affine beta dependence is exact at the quadrature level.
        """
        A = self.metadata["q_grad_plus_curv"]
        B = self.metadata["q_mass_over_a"]
        C = self.metadata["q_lp_sq"]
        base_beta = self.metadata["beta"]
        return (A + (beta - base_beta) * B) / C


@dataclass
class ContinuationTrace:
    betas: list
    solutions: list
    lp_norms: list
    c2a_proxy: list
    converged: bool
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _chart_distance(mesh: Mesh, center: int) -> np.ndarray:
    """Distance of every vertex from a center vertex in the chart geometry."""
    c = mesh.vertices[center]
    if mesh.vertices.shape[1] == 4:
        dots = np.clip(mesh.vertices @ c, -1.0, 1.0)
        return np.arccos(dots)
    d = mesh.displacement(np.broadcast_to(c, mesh.vertices.shape), mesh.vertices)
    return np.linalg.norm(d, axis=1)


def _deep_interior_vertex(mesh: Mesh, domain: Domain):
    """Interior vertex farthest (graph distance) from the frontier, and depth."""
    graph = mesh.vertex_graph()
    dist = dijkstra(graph, directed=False, indices=domain.frontier_set, min_only=True)
    inside = domain.interior_set
    k = int(np.argmax(dist[inside]))
    return int(inside[k]), float(dist[inside][k])


def _get_ops(mesh, domain, geom, constants, ops):
    if ops is None:
        ops = assemble(mesh, geom, constants, bc_mode="dirichlet", domain=domain)
    return ops


# ---------------------------------------------------------------------------
# test functions and the energy gate
# ---------------------------------------------------------------------------


def test_function(
    mesh: Mesh, domain: Domain, geom: GeometrySpec, params: TestFunctionParams
) -> ScalarField:
    """Concentrating bubble with a cosine cutoff, vanishing on the frontier.

    u(x) = cos(pi*|x|/(2*radius)) / (eps + |x|^2)^{1/2} inside the radius,
    0 outside and on the frontier; |x| is the chart distance from the center
    vertex.  The value at the center is eps^{-1/2}.
    """
    interior = set(domain.interior_set.tolist())
    if params.center not in interior:
        raise ValueError("test-function center must be interior to the domain")
    d = _chart_distance(mesh, params.center)
    t = d / params.radius
    cut = np.where(t < 1.0, np.cos(0.5 * np.pi * np.clip(t, 0.0, 1.0)), 0.0)
    vals = cut / np.sqrt(params.epsilon + d**2)
    mask = domain.mask(mesh.num_vertices)
    vals[~mask] = 0.0
    vals[domain.frontier_set] = 0.0
    return ScalarField(
        vals,
        mesh.mesh_id,
        {
            "epsilon": params.epsilon,
            "center": params.center,
            "radius": params.radius,
        },
    )




def energy_gate(
    mesh: Mesh,
    domain: Domain,
    geom: GeometrySpec,
    constants: DimensionConstants,
    lam: float,
    beta: float,
    ops: Optional[AssembledOperators] = None,
) -> EnergyThresholds:
    """Energy-gap gate: pass iff the best test-function quotient < T_used.

    The quotient is [u^T K u + (1/a)u^T M_{R+beta} u] / ||u||_p^2, minimized
    over the epsilon sweep for a bubble centered at the deepest interior
    vertex.  T_used = 0.99 * T_est with T_est the discrete Sobolev-quotient
    estimate: the pure-gradient quotient minimized over the same family, so
    both sides carry the same resolution error and the gate measures the
    genuine curvature gain.  T_est is an upper-bound estimate, never an
    invariant.
    """
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if beta > 0:
        raise ValueError("beta must be <= 0")
    ops = _get_ops(mesh, domain, geom, constants, ops)
    a = constants.a
    n = constants.n

    Rvals = geom.scalar_curvature.values[domain.vertex_set]
    if beta == 0.0 and Rvals.max() >= 0:
        import warnings

        warnings.warn(
            "curvature is nonnegative somewhere on the domain at beta = 0: "
            "standing hypothesis of the perturbed local solve violated; "
            "gate result is advisory only"
        )

    center, depth = _deep_interior_vertex(mesh, domain)
    radius = depth
    fq = ops.free_quadrature(domain.interior_set)

    best = None
    per_eps = {}
    per_eps_pure = {}
    T_est = None
    for eps in EPS_SWEEP:
        tf = test_function(
            mesh, domain, geom, TestFunctionParams(eps, beta, center, radius)
        )
        u = tf.values
        grad_term = float(u @ (ops.stiffness @ u))
        curv_term = float(u @ (ops.curvature_mass @ u)) / a
        mass_term = float(u @ (ops.mass @ u)) / a
        lp_sq = fq.lp_norm(u[domain.interior_set]) ** 2
        q = (grad_term + curv_term + beta * mass_term) / lp_sq
        pure = grad_term / lp_sq
        per_eps[eps] = q
        per_eps_pure[eps] = pure
        T_est = pure if T_est is None else min(T_est, pure)
        if best is None or q < best[0]:
            best = (q, eps, grad_term + curv_term, mass_term, lp_sq)
    q_eps, eps_star, A_cache, B_cache, C_cache = best
    T_used = GATE_SAFETY * T_est
    T_sharp = sharp_sobolev_constant(n)

    A_omega = lam ** (2 - n) * a**n
    K0 = (1.0 / n) * lam ** ((2 - n) / 2.0) * a ** (n / 2.0) * T_est ** (n / 2.0)
    gate_pass = bool(q_eps < T_used)

    return EnergyThresholds(
        T_est=T_est,
        T_sharp=T_sharp,
        A_omega=A_omega,
        K0=K0,
        Q_eps=q_eps,
        gate_pass=gate_pass,
        metadata={
            "T_used": T_used,
            "lambda": lam,
            "beta": beta,
            "center": center,
            "radius": radius,
            "eps_sweep": list(EPS_SWEEP),
            "q_per_eps": per_eps,
            "q_pure_per_eps": per_eps_pure,
            "eps_star": eps_star,
            "q_grad_plus_curv": A_cache,
            "q_mass_over_a": B_cache,
            "q_lp_sq": C_cache,
        },
    )


# ---------------------------------------------------------------------------
# critical solver engine
# ---------------------------------------------------------------------------


def _clamp_negative(v: np.ndarray):
    """Positivity projection for ``damped_newton``: (clamped v, clamped entries)."""
    neg = int(np.count_nonzero(v < 0))
    return (np.maximum(v, 0.0) if neg else v), neg


def _solve_critical(
    ops: AssembledOperators,
    free: np.ndarray,
    beta: float,
    lam: float,
    S: Optional[np.ndarray],
    init: np.ndarray,
    newton_only: bool = False,
):
    """Minimize the constrained quotient, rescale, and solve by Newton.

    Solves  A u = N(u)  with  A = a K + M_R + beta M  (restricted rows) and
    N(u) = consistent load of lam*S*|u|^{p-2}u.  Iterates live on ``free``
    and vanish elsewhere, so every quadrature sweeps only the tets that
    touch ``free``.  Unless ``newton_only``, A is factored once, for the
    torsion seed and for the gradient (a failed factorization raises), and a
    projected gradient on the weighted unit L^p sphere runs until
    ||Au - J F|| <= HANDOFF_RESIDUAL * ||Au|| in the lumped dual norm (J the
    quotient, F the load), or until it stalls.  Its gradient is
    A^{-1}(Au - J F), the gradient in the A inner product: a descent
    direction only while A is positive definite, but the line search
    accepts a step only where the quotient decreases, so every accepted
    step descends.  The minimizer is rescaled by Q_min^{1/(p-2)} and handed to
    the Newton, and ``info["Q_min"]`` is the solution's quotient.  The
    Newton accepts its start with 0 steps when it already meets the
    residual test.  Returns (u_full, info).
    """
    p = ops.constants.p
    fq = ops.free_quadrature(free)
    A = fq.conformal_laplacian_matrix(beta)
    mL = ops.mass_lumped[free]
    Sq = 1.0 if S is None else fq.sample(S)

    def Nload(u):
        return lam * fq.nonlinear_load(u, Sq)

    def weighted_p_integral(u):
        return lam * fq.integrate(np.abs(fq.quad_values(u)) ** p * Sq)

    def jacobian(u):
        # data of A - N'(u) on the free-block pattern
        w = np.abs(fq.quad_values(u)) ** (p - 2.0) * Sq
        return A.data - fq.weighted_mass(lam * (p - 1.0) * w).data

    info = {}
    u = np.maximum(init[free].copy(), 0.0)
    if not np.any(u):
        raise ValueError("initial guess vanishes on the interior")

    if not newton_only:
        try:
            solve_A = fq.factor(A.data, splu)
        except RuntimeError as err:
            raise RuntimeError(f"factorization of A failed: {err}") from err
        # seed strictly positive: compactly supported inits trap the clamped
        # iteration at their support frontier (M-matrix rows stay negative)
        torsion = np.abs(solve_A(mL))
        if torsion.max() > 0:
            u = u + 0.3 * u.max() * torsion / torsion.max()

        # projected gradient on the weighted unit-L^p sphere
        den = weighted_p_integral(u)
        u /= den ** (1.0 / p)
        t = 1.0
        J_prev = None
        for steps in range(300):
            Au = A @ u
            J = float(u @ Au)
            F = Nload(u)
            if J_prev is not None and J_prev - J < 1e-12 * max(abs(J), 1.0):
                break
            J_prev = J
            r = Au - J * F
            if dual_norm(r, mL) <= HANDOFF_RESIDUAL * dual_norm(Au, mL):
                break
            grad = solve_A(r)  # step 1 lands on J A^{-1} F, then normalized
            step = t
            improved = False
            for _ in range(40):
                cand = np.maximum(u - step * grad, 0.0)
                dc = weighted_p_integral(cand)
                if dc <= 0:
                    step *= 0.5
                    continue
                cand = cand / dc ** (1.0 / p)
                Jc = float(cand @ (A @ cand))
                if Jc < J:
                    u, t = cand, step * 1.5
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        info["gradient_steps"] = steps
        Q_min = float(u @ (A @ u)) / weighted_p_integral(u) ** (2.0 / p)
        if Q_min <= 0:
            raise ValueError(
                "constrained quotient minimum is nonpositive: no positive "
                "rescaling of the minimizer solves the equation (sign "
                "hypothesis failed)"
            )
        # (p-2)-homogeneity: Q^{1/(p-2)} times a unit-mass critical point
        # of the quotient solves A u = N(u), with no multiplier left
        u = u * Q_min ** (1.0 / (p - 2.0))

    # Newton with backtracking and positivity clamp
    def residual(u):
        N = Nload(u)
        Au = A @ u
        r = Au - N
        scale = max(dual_norm(N, mL), dual_norm(Au, mL), 1e-300)
        return (r, scale), dual_norm(r, mL)

    res = damped_newton(
        u, residual,
        lambda u, r: fq.factor(jacobian(u), splu)(-r[0]),
        lambda u, r, rn: rn <= 1e-11 * r[1],
        project=_clamp_negative, max_iter=60)
    u = res.x
    rel = res.norm / res.residual[1]
    info["clamp_events"] = sum(step[2] for step in res.steps)
    if res.status == "singular" or rel > 1e-8:
        raise RuntimeError(
            f"Newton polish {res.status} after {len(res.steps)} steps "
            f"(relative residual {rel:.3e}, tolerance 1e-8)"
        )
    info["relative_residual"] = rel
    if not newton_only:
        # the quotient is scale-invariant: the critical multiplier of u
        info["Q_min"] = float(u @ (A @ u)) / weighted_p_integral(u) ** (2.0 / p)
    info["newton_iterations"] = len(res.steps)
    info["newton_status"] = res.status
    u_full = np.zeros(ops.num_vertices)
    u_full[free] = u
    return u_full, info


def solve_perturbed(
    mesh: Mesh,
    domain: Domain,
    geom: GeometrySpec,
    constants: DimensionConstants,
    lam: float,
    beta: float,
    init: ScalarField,
    ops: Optional[AssembledOperators] = None,
    require_gate: bool = True,
    gate: Optional[EnergyThresholds] = None,
    newton_only: bool = False,
) -> ScalarField:
    """Positive Dirichlet solution of the perturbed critical equation.

    Requires a passing energy gate unless ``require_gate=False``; the gate
    is computed on demand when not supplied, and a supplied one must be at
    (beta, lam).
    """
    if beta >= 0:
        raise ValueError("beta must be < 0 for the perturbed solve")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    v0 = init.values
    if (v0 < 0).any() or not np.any(v0):
        raise ValueError("init must be nonnegative and not identically zero")
    if np.any(v0[domain.frontier_set] != 0.0):
        raise ValueError("init must vanish on the frontier")
    ops = _get_ops(mesh, domain, geom, constants, ops)
    if require_gate:
        if gate is None:
            gate = energy_gate(mesh, domain, geom, constants, lam, beta, ops=ops)
        elif (gate.metadata["beta"], gate.metadata["lambda"]) != (beta, lam):
            raise ValueError("gate was computed at another beta or lambda")
        if not gate.gate_pass:
            raise RuntimeError(
                f"energy gate failed: Q_eps = {gate.Q_eps:.6g} >= "
                f"T_used = {gate.metadata['T_used']:.6g}"
            )
    u, info = _solve_critical(
        ops, domain.interior_set, beta, lam, None, v0, newton_only=newton_only
    )
    if u[domain.interior_set].min() <= 0:
        raise RuntimeError("solution not strictly positive on the interior")
    meta = {
        "lambda": lam,
        "beta": beta,
        **info,
    }
    return ScalarField(u, mesh.mesh_id, meta)


def _secant(betas: list, sols: list, beta_new: float) -> ScalarField:
    """Secant prediction of the solution at ``beta_new`` from the last two.

    u_k + (beta_new - beta_k)/(beta_k - beta_{k-1}) * (u_k - u_{k-1}),
    clamped at 0; both solutions vanish off the interior, so it does too.
    """
    u1, u0 = sols[-1].values, sols[-2].values
    t = (beta_new - betas[-1]) / (betas[-1] - betas[-2])
    return ScalarField(np.maximum(u1 + t * (u1 - u0), 0.0), sols[-1].mesh_id)


def beta_continuation(
    mesh: Mesh,
    domain: Domain,
    geom: GeometrySpec,
    constants: DimensionConstants,
    lam: float,
    beta0: float,
    ops: Optional[AssembledOperators] = None,
    gate: Optional[EnergyThresholds] = None,
) -> ContinuationTrace:
    """Continuation beta_k = beta0 * BETA_RATIO^k toward 0^-.

    The first solve starts from the gate's best bubble, the second from the
    first solution, and every later one, like the closing beta = 0 polish,
    from the clamped secant prediction through the last two solutions; a
    prediction that already meets the Newton test is accepted with 0 Newton
    steps.  Stops when |beta| < 1e-6 and the last two solutions differ by at
    most 1e-8 in max norm.  The L^p norms are monitored against the
    gate-derived bound; exceeding 10x the bound aborts with a concentration
    error.  ``gate`` is the energy gate at (lam, beta0) when the caller has
    it; it is computed otherwise.
    """
    if beta0 >= 0:
        raise ValueError("beta0 must be < 0")
    ops = _get_ops(mesh, domain, geom, constants, ops)
    if gate is None:
        gate = energy_gate(mesh, domain, geom, constants, lam, beta0, ops=ops)
    elif (gate.metadata["beta"], gate.metadata["lambda"]) != (beta0, lam):
        raise ValueError("gate was computed at another beta0 or lambda")
    if not gate.gate_pass:
        raise RuntimeError("energy gate failed at beta0")
    cst = constants
    n = cst.n
    # L^p mass bound: (T1/K0) * lam^{-n/2} a^{n/2} T^{n/2} with
    # T1/K0 = (Q_eps/T_est)^{n/2}
    T_est = gate.T_est
    ratio_levels = max(gate.Q_eps, 0.0) / T_est
    lp_bound = (
        ratio_levels ** (n / 2.0)
        * lam ** (-n / 2.0)
        * cst.a ** (n / 2.0)
        * T_est ** (n / 2.0)
    )

    center = gate.metadata["center"]
    radius = gate.metadata["radius"]
    init = test_function(
        mesh,
        domain,
        geom,
        TestFunctionParams(gate.metadata["eps_star"], beta0, center, radius),
    )

    free = domain.interior_set
    fq = ops.free_quadrature(free)
    betas, sols, lps, proxies = [], [], [], []
    beta = beta0
    current = init
    converged = False
    for k in range(10_000):
        sol = solve_perturbed(
            mesh,
            domain,
            geom,
            constants,
            lam,
            beta,
            current,
            ops=ops,
            require_gate=False,
            newton_only=(k > 0),
        )
        betas.append(beta)
        sols.append(sol)
        lp_p = fq.lp_norm(sol.values[free]) ** cst.p
        lps.append(lp_p)
        proxy = float(np.abs(sol.values).max()) + math.sqrt(
            float(sol.values @ (ops.stiffness @ sol.values))
        )
        proxies.append(proxy)
        if lp_bound > 0 and lp_p > 10.0 * lp_bound:
            raise RuntimeError(
                f"concentration failure: L^p mass {lp_p:.6g} exceeds 10x the "
                f"monitor bound {lp_bound:.6g}"
            )
        if k > 0:
            tail = float(np.abs(sol.values - sols[-2].values).max())
            if abs(beta) < 1e-6 and tail <= 1e-8:
                converged = True
                break
        beta *= BETA_RATIO
        current = sol if k == 0 else _secant(betas, sols, beta)
    beta_zero = None
    if converged:
        # record the unperturbed local solution: one Newton polish at beta = 0
        u0, info0 = _solve_critical(
            ops, free, 0.0, lam, None, _secant(betas, sols, 0.0).values,
            newton_only=True
        )
        if u0[free].min() > 0:
            beta_zero = ScalarField(u0, mesh.mesh_id, info0)
    return ContinuationTrace(
        betas=betas,
        solutions=sols,
        lp_norms=lps,
        c2a_proxy=proxies,
        converged=converged,
        metadata={
            "lambda": lam,
            "ratio": BETA_RATIO,
            "lp_bound": lp_bound,
            "gate_Q_eps": gate.Q_eps,
            "gate_T_est": T_est,
            "beta_zero_solution": beta_zero,
        },
    )


# ---------------------------------------------------------------------------
# flat punctured / annulus engine
# ---------------------------------------------------------------------------


def _vertex_gradient(mesh: Mesh, values: np.ndarray, vertex: int) -> np.ndarray:
    """Least-squares gradient of a vertex field at one vertex."""
    graph = mesh.vertex_graph()
    nbrs = graph.indices[graph.indptr[vertex] : graph.indptr[vertex + 1]]
    c = mesh.vertices[vertex]
    dx = mesh.displacement(np.broadcast_to(c, (len(nbrs), c.shape[0])),
                           mesh.vertices[nbrs])
    dq = values[nbrs] - values[vertex]
    g, *_ = np.linalg.lstsq(dx, dq, rcond=None)
    return g


def solve_flat_punctured(
    mesh: Mesh,
    domain_eps: Domain,
    Q_field: ScalarField,
    geom: GeometrySpec,
    constants: DimensionConstants,
) -> ScalarField:
    """Flat-model solve on a punctured (or annular) locally flat domain.

    Solves -a*Laplace_e u0 = Q u0^{p-1} with zero frontier data in the flat
    chart, then returns u = u0 / psi with psi the conformal flat factor.
    When the domain carries puncture metadata, a nonvanishing gradient of Q
    at the puncture is a precondition.
    """
    psi = geom.conformal_flat_factor
    if psi is None:
        raise ValueError(
            "routing error: geometry not locally conformally flat "
            "(no conformal flat factor present)"
        )
    Qv = Q_field.values
    if Qv[domain_eps.vertex_set].min() <= 0:
        raise ValueError("Q must be positive on the domain closure")

    if "puncture_vertex" in domain_eps.metadata:
        rho = int(domain_eps.metadata["puncture_vertex"])
        g = _vertex_gradient(mesh, Qv, rho)
        if np.linalg.norm(g) < 1e-6 * (1.0 + abs(Qv[rho])):
            raise ValueError(
                "puncture precondition failed: the gradient of Q vanishes at "
                "the puncture center (nonvanishing gradient required)"
            )

    # flat-chart operators: Euclidean metric, zero curvature coefficient
    metric, density, bdens = _geometry._flat_geometry_arrays(
        mesh, _geometry.tet_edge_matrices(mesh))
    geom_flat = GeometrySpec(
        metric=metric,
        volume_density=density,
        scalar_curvature=ScalarField(np.zeros(mesh.num_vertices), mesh.mesh_id),
        mean_curvature=None,
        boundary_density=bdens,
        preset_id=geom.preset_id,
        metadata={"flat_chart": True},
    )
    ops_flat = assemble(mesh, geom_flat, constants, bc_mode="dirichlet",
                        domain=domain_eps)
    init = test_function(
        mesh,
        domain_eps,
        geom_flat,
        TestFunctionParams(
            0.25,
            0.0,
            *_deep_interior_vertex(mesh, domain_eps),
        ),
    )
    u0, info = _solve_critical(
        ops_flat, domain_eps.interior_set, 0.0, 1.0, Qv, init.values
    )
    if u0[domain_eps.interior_set].min() <= 0:
        raise RuntimeError("flat solution not strictly positive on the interior")
    u = u0 / psi.values

    # curved residual diagnostic in the original geometry
    ops_curved = assemble(mesh, geom, constants, bc_mode="dirichlet",
                          domain=domain_eps)
    free = domain_eps.interior_set
    fq = ops_curved.free_quadrature(free)
    N = fq.nonlinear_load(u[free], fq.sample(Qv))
    rc = (ops_curved.conformal_laplacian_matrix() @ u)[free] - N
    mL = ops_curved.mass_lumped[free]
    info["curved_relative_residual"] = dual_norm(rc, mL) / max(dual_norm(N, mL), 1e-300)
    return ScalarField(u, mesh.mesh_id, info)


def _meta_text(value) -> str:
    """One-line text of a trace metadata value; a field is summarized."""
    if isinstance(value, ScalarField):
        v = value.values
        return (f"ScalarField(n={v.size}, min={float(v.min())!r}, "
                f"max={float(v.max())!r}, metadata={sorted(value.metadata)!r})")
    return repr(value)


def trace_to_report(trace: ContinuationTrace) -> str:
    """Serialize a continuation trace as versioned text, one entry per line."""
    lines = ["CYWTRACE 1", f"converged {trace.converged}"]
    for key in sorted(trace.metadata):
        lines.append(f"meta {key} {_meta_text(trace.metadata[key])}")
    lines.append("columns beta lp_norm_p c2a_proxy relative_residual")
    for b, lp, cx, sol in zip(
        trace.betas, trace.lp_norms, trace.c2a_proxy, trace.solutions
    ):
        rr = sol.metadata.get("relative_residual", float("nan"))
        lines.append(f"{b!r} {lp!r} {cx!r} {rr!r}")
    return "\n".join(lines) + "\n"
