"""Stereographic machinery and sphere obstruction checks.

Condition checking works on ambient samples of a sphere function Q: a
callable evaluated once per unit vector, or (CONDITION A) an array of values
at the samples, read as nearest-sample values.  Gradients are central finite
differences of the degree-0 homogeneous extension Q''(x) = Q(x/|x|), so they
are automatically tangential; a check evaluates all its points in one batch.
The pair relations are evaluated in frame-free form, as arrays over all
pairs: with tau_hat the unit vector from P toward P', a pair passes when

    Q(P) = Q(P'),
    the tau_hat-orthogonal part of grad Q''(P) + grad Q''(P') vanishes,
    (grad Q''(P) - grad Q''(P')) . tau_hat vanishes.

For antipodal pairs these reduce to grad Q''(P) = -grad Q''(P'), which
admits even coordinate polynomials and rejects odd ones.  The relations
depend only on the pair axis, never on a choice of orthonormal completion;
reports carry a note to that effect.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

from ._kernels import metric_adjugate
from .geometry import BARY_GRAD, Mesh, ScalarField, TET_QP, TET_QW, tet_edge_matrices
from .operators import AssembledOperators

__all__ = [
    "SpherePoint",
    "ConditionVerdict",
    "ObstructionReport",
    "stereo_forward",
    "stereo_inverse",
    "conformal_factor_phi",
    "check_condition_a",
    "check_condition_b",
    "kw_obstruction",
    "be_obstruction",
    "be_scale",
    "coordinate_fields",
    "obstruction_report",
]

FD_STEP = 1e-5
VALUE_TOL = 1e-6
GRAD_TOL = 1e-4
OBSTRUCTION_TOL = 1e-3  # the tolerance an ObstructionReport records

BASIS_NOTE = (
    "pair relations evaluated in frame-free form (depend only on the pair "
    "axis, not on an orthonormal completion)"
)


@dataclass
class SpherePoint:
    """A unit vector in ambient coordinates (xi_1..xi_n, tau)."""

    ambient: np.ndarray

    def __post_init__(self) -> None:
        self.ambient = np.asarray(self.ambient, dtype=np.float64)
        if abs(np.linalg.norm(self.ambient) - 1.0) > 1e-12:
            raise ValueError("sphere point must be a unit vector (within 1e-12)")

    @property
    def tau(self) -> float:
        return float(self.ambient[-1])

    @property
    def xi(self) -> np.ndarray:
        return self.ambient[:-1]


@dataclass
class ConditionVerdict:
    verdict: str  # pass-i | pass-ii | pass-iii | fail
    witnesses: list
    metadata: dict = field(default_factory=dict)


@dataclass
class ObstructionReport:
    kw_values: dict
    be_values: dict
    tolerance: float
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stereographic projections
# ---------------------------------------------------------------------------


def stereo_forward(point: SpherePoint, pole: str) -> np.ndarray:
    """Stereographic projection xi/(1 -+ tau) from the named pole."""
    tau = point.tau
    if pole == "north":
        denom = 1.0 - tau
    elif pole == "south":
        denom = 1.0 + tau
    else:
        raise ValueError("pole must be 'north' or 'south'")
    if abs(denom) < 1e-12:
        raise ValueError(f"point at the excluded {pole} pole")
    return point.xi / denom


def stereo_inverse(x: np.ndarray, pole: str) -> SpherePoint:
    """Inverse stereographic map; the origin maps to the opposite pole."""
    x = np.asarray(x, dtype=np.float64)
    r2 = float(x @ x)
    xi = 2.0 * x / (1.0 + r2)
    if pole == "north":
        tau = (r2 - 1.0) / (r2 + 1.0)
    elif pole == "south":
        tau = (1.0 - r2) / (r2 + 1.0)
    else:
        raise ValueError("pole must be 'north' or 'south'")
    return SpherePoint(np.concatenate([xi, [tau]]))


def conformal_factor_phi(x: np.ndarray, n: int = 3) -> float:
    """Phi(x) = (2/(1+|x|^2))^{(n-2)/2}; Phi^{p-2} is the metric factor."""
    x = np.asarray(x, dtype=np.float64)
    return float((2.0 / (1.0 + x @ x)) ** ((n - 2) / 2.0))


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


def _samples(values_of: Callable, points: np.ndarray):
    """Values of Q and central-difference gradients of Q''(x) = Q(x/|x|), from
    one ``values_of`` call on the points and their 2d normalized P +- FD_STEP e_i."""
    m, d = points.shape
    shifted = points[:, None, :] + FD_STEP * np.concatenate([np.eye(d), -np.eye(d)])
    # vecdot runs the dot kernel of np.linalg.norm, so rows match it bitwise
    shifted = shifted / np.sqrt(np.vecdot(shifted, shifted))[..., None]
    vals = values_of(np.concatenate([points, shifted.reshape(m * 2 * d, d)]))
    fd = vals[m:].reshape(m, 2, d)
    return vals[:m], (fd[:, 0] - fd[:, 1]) / (2.0 * FD_STEP)


def _pointwise(Q: Callable) -> Callable:
    """Batch form of a per-point callable: Q is called once per row."""
    return lambda X: np.array([float(Q(x)) for x in X])


RELATIONS = ("value-equality", "tangential-gradient", "axis-gradient")


def _check_pairs(points, values_of, pairs, metadata):
    """Shared relation checker: pairs is a (k, 2) array of indices into points."""
    radii = np.sqrt(np.vecdot(points, points))
    if (np.abs(radii - 1.0) > 1e-12).any():
        raise ValueError("sphere point must be a unit vector (within 1e-12)")
    qvals, grads = _samples(values_of, points)
    qmax = float(np.abs(qvals).max()) if len(qvals) else 0.0
    val_tol = VALUE_TOL * (1.0 + qmax)
    gmax = float(np.linalg.norm(grads, axis=1).max()) if len(grads) else 0.0
    grad_tol = GRAD_TOL * (1.0 + gmax)

    i, j = pairs[:, 0], pairs[:, 1]
    axis = points[j] - points[i]
    nrm = np.sqrt(np.vecdot(axis, axis))
    if (nrm < 1e-12).any():
        raise ValueError("degenerate pair: the two points coincide")
    tau_hat = axis / nrm[:, None]
    gsum = grads[i] + grads[j]
    tang = gsum - np.vecdot(gsum, tau_hat)[:, None] * tau_hat
    gaps = np.stack([
        np.abs(qvals[i] - qvals[j]),
        np.sqrt(np.vecdot(tang, tang)),
        np.abs(np.vecdot(grads[i] - grads[j], tau_hat)),
    ])
    # each pair reports the first relation it breaks, in RELATIONS order
    broken = gaps > np.array([val_tol, grad_tol, grad_tol])[:, None]
    witnesses = []
    for k in np.flatnonzero(broken.any(axis=0)):
        r = int(np.argmax(broken[:, k]))
        pair = (SpherePoint(points[i[k]].copy()), SpherePoint(points[j[k]].copy()))
        witnesses.append((pair, RELATIONS[r], float(gaps[r, k])))

    if witnesses:
        verdict = "fail"
    else:
        all_flat = gmax <= GRAD_TOL * (1.0 + qmax)
        constant = (qvals.max() - qvals.min()) <= val_tol if len(qvals) else True
        if all_flat and constant and len(qvals) and qvals.min() > 0:
            verdict = "pass-iii"
        elif all_flat:
            verdict = "pass-ii"
        else:
            verdict = "pass-i"
    metadata = dict(metadata)
    metadata.update(
        {
            "value_tolerance": val_tol,
            "gradient_tolerance": grad_tol,
            "basis_note": BASIS_NOTE,
            "num_pairs": len(pairs),
        }
    )
    return ConditionVerdict(verdict, witnesses, metadata)


def check_condition_a(
    points: np.ndarray,
    Q: Union[Callable[[np.ndarray], float], np.ndarray],
) -> ConditionVerdict:
    """Antipodal value/gradient symmetry check on sphere samples.

    ``points`` is an (m, d) array of unit vectors; every point must have an
    antipodal partner among the samples within half the minimum sample
    spacing.  ``Q`` is a callable, evaluated once per point, or an (m,)
    array of values at ``points`` read as nearest-sample values; their
    difference gradients vanish, so only the value relation can fail
    (``prescribe`` notes the form as the verdict's ``sampler``).
    """
    points = np.asarray(points, dtype=np.float64)
    tree = cKDTree(points)
    if callable(Q):
        values_of = _pointwise(Q)
    else:
        sampled = np.asarray(Q, dtype=np.float64).reshape(len(points))
        values_of = lambda X: sampled[tree.query(X)[1]]  # noqa: E731
    d2, _ = tree.query(points, k=2)
    pair_tolerance = 0.5 * float(d2[:, 1].min())
    dist, idx = tree.query(-points)
    bad = dist > pair_tolerance
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"unpaired vertex {k}: nearest antipode at distance {dist[k]:.3e} "
            f"exceeds pairing tolerance {pair_tolerance:.3e}"
        )
    first = np.flatnonzero(np.arange(len(idx)) < idx)
    pairs = np.column_stack([first, idx[first]])
    return _check_pairs(points, values_of, pairs, {"pairing": "antipodal"})


def check_condition_b(
    Q: Callable[[np.ndarray], float],
    pairing: Sequence,
) -> ConditionVerdict:
    """Paired-point symmetry check along caller-supplied pair axes.

    ``pairing`` is a sequence of (SpherePoint, SpherePoint) pairs; the axis
    of each relation is the unit vector from the first point to the second.
    ``Q`` is evaluated once per point.
    """
    pts = [p.ambient if isinstance(p, SpherePoint) else np.asarray(p, float)
           for a, b in pairing for p in (a, b)]
    points = np.array(pts).reshape(len(pts), -1) if pts else np.empty((0, 0))
    pairs = np.arange(len(pts)).reshape(-1, 2)
    return _check_pairs(points, _pointwise(Q), pairs, {"pairing": "explicit"})


# ---------------------------------------------------------------------------
# integral obstructions
# ---------------------------------------------------------------------------


def _warn_if_not_sphere(ops: AssembledOperators, what: str) -> None:
    if ops.geom.preset_id != "round-s3":
        warnings.warn(
            f"{what} evaluated on non-sphere preset "
            f"{ops.geom.preset_id!r}: advisory only"
        )


def _simplex_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """P1 gradients in local simplex coordinates, one covector per tet."""
    return np.einsum("cd,tc->td", BARY_GRAD, values[mesh.tets])


def kw_obstruction(
    S: ScalarField, u: ScalarField, H: ScalarField, ops: AssembledOperators
) -> float:
    """Kazdan-Warner integral: quadrature of <grad H, grad S>_g u^p dVol."""
    _warn_if_not_sphere(ops, "Kazdan-Warner obstruction")
    mesh = ops.mesh
    gH = _simplex_gradients(mesh, H.values)
    gS = _simplex_gradients(mesh, S.values)
    adj, det = metric_adjugate(ops.geom.metric)  # (3, 3, nt, nq), (nt, nq)
    inner = np.einsum("td,detq,te->tq", gH, adj, gS) / det
    up = np.abs(ops.quad_values(u.values)) ** ops.constants.p
    return ops.integrate(inner * up)


def be_obstruction(
    R_field: ScalarField, a: np.ndarray, mesh: Mesh, ops: AssembledOperators
) -> float:
    """Bourguignon-Ezin integral: quadrature of X_a(R) dVol on the sphere.

    X_a(z) = a - (a.z)z is pulled back to simplex coordinates by least
    squares through the chordal chart; X_a(R) needs no metric inverse since
    the vector is applied directly to the P1 field.
    """
    a = np.asarray(a, dtype=np.float64)
    if np.linalg.norm(a) == 0:
        raise ValueError("direction a must be nonzero")
    _warn_if_not_sphere(ops, "Bourguignon-Ezin obstruction")
    if mesh.vertices.shape[1] != a.shape[0]:
        raise ValueError("direction dimension must match the ambient chart")
    E = tet_edge_matrices(mesh)  # (nt, dim, 3)
    x = mesh.tet_corner_coords()  # (nt, 4, dim)
    gR = _simplex_gradients(mesh, R_field.values)  # (nt, 3)
    EtE_inv = np.linalg.inv(np.einsum("tki,tkj->tij", E, E))
    total = 0.0
    for q in range(TET_QP.shape[0]):
        lam = TET_QP[q]
        xq = np.einsum("c,tcd->td", lam, x)
        z = xq / np.linalg.norm(xq, axis=1, keepdims=True)
        Xa = a[None, :] - (z @ a)[:, None] * z
        sdot = np.einsum("tij,tkj,tk->ti", EtE_inv, E, Xa)
        integrand = np.einsum("ti,ti->t", gR, sdot)
        total += float(
            np.sum(TET_QW[q] * ops.geom.volume_density[:, q] * integrand)
        )
    return total


def be_scale(R_field: ScalarField, a: np.ndarray, ops: AssembledOperators) -> float:
    """Reference scale |a| * integral of |grad R|_g dVol (same quadrature)."""
    gR = _simplex_gradients(ops.mesh, R_field.values)
    adj, det = metric_adjugate(ops.geom.metric)
    mag = np.sqrt(np.maximum(np.einsum("td,detq,te->tq", gR, adj, gR) / det, 0.0))
    return float(np.linalg.norm(np.asarray(a, float))) * ops.integrate(mag)


def coordinate_fields(mesh: Mesh) -> list:
    """Ambient coordinate functions restricted to the mesh vertices."""
    return [
        ScalarField(mesh.vertices[:, i].copy(), mesh.mesh_id, {"coordinate": i})
        for i in range(mesh.vertices.shape[1])
    ]


def obstruction_report(
    S: ScalarField,
    u: ScalarField,
    R_field: ScalarField,
    ops: AssembledOperators,
) -> ObstructionReport:
    """Evaluate both obstructions for all ambient coordinate test data."""
    mesh = ops.mesh
    fields = coordinate_fields(mesh)
    kw = {f"z{i}": kw_obstruction(S, u, H, ops) for i, H in enumerate(fields)}
    axes = np.eye(mesh.vertices.shape[1])
    be = {f"e{i}": be_obstruction(R_field, a, mesh, ops) for i, a in enumerate(axes)}
    return ObstructionReport(
        kw_values=kw,
        be_values=be,
        tolerance=OBSTRUCTION_TOL,
        metadata={"basis_note": BASIS_NOTE},
    )
