"""The benchmark's workloads: cases built from the public API of cywbench.

Each case drives the modules the way one CLI command does.  ``setup``
builds fresh inputs (meshes, domains, targets) and is timed as set-up;
``operation`` is the command's work and is the timed part of a pass;
``check`` judges the outcome with the independent checks of
:mod:`checks`.  ``check`` returns True when the outcome is the known
gluing fault, which counts as a failed operation but not as a wrong output,
and raises :class:`checks.CheckFailed` on a wrong output.

Only ``sphere-s3`` depends on the seed, through inputs whose verdict is
known for every seed: the level of the second constant target and the axis
of the odd and even targets.  Seed 0 gives S = 3 and the axis tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cywbench import geometry, global_iteration, local_yamabe, operators, sphere_tools
from cywbench.geometry import ScalarField

import checks
from checks import CST, CheckFailed

SPHERE_REFINEMENT = 3
LOCAL_LAMBDA = 1.0
LOCAL_BETA0 = -0.1


@dataclass
class Case:
    name: str
    setup: Callable[[], dict]
    operation: Callable[[dict], object]
    check: Callable[[dict, object, dict], bool]


def ball_predicate(mesh, center, radius):
    """Vertex predicate: chart distance from ``center`` below ``radius``."""
    center = np.asarray(center, dtype=np.float64)

    def pred(v):
        d = mesh.displacement(np.broadcast_to(center, v.shape), v)
        return np.einsum("ij,ij->i", d, d) < radius**2

    return pred


def _prescribe_or_refusal(inp):
    try:
        return global_iteration.prescribe(inp["mesh"], inp["geom"], inp["S"])
    except global_iteration.PipelineError as err:
        return err


# ---------------------------------------------------------------------------
# sphere-s3
# ---------------------------------------------------------------------------


def sphere_params(seed: int):
    """(level, axis): the second constant target and the odd/even target axis."""
    if seed == 0:
        return 3.0, np.array([0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(abs(seed))
    axis = rng.normal(size=4)
    return float(rng.uniform(1.5, 12.0)), axis / np.linalg.norm(axis)


def _sphere_cases(seed: int):
    level, axis = sphere_params(seed)

    def constant_setup(value):
        def setup():
            mesh, geom = geometry.build_preset("round-s3", SPHERE_REFINEMENT)
            return {"mesh": mesh, "geom": geom,
                    "S": ScalarField(np.full(mesh.num_vertices, value), mesh.mesh_id)}
        return setup

    def constant_check(value):
        def check(inp, out, memo):
            if isinstance(out, Exception):
                raise CheckFailed(f"constant target refused: {out}")
            checks.check_constant_route(out, value)
            return False
        return check

    def odd_setup():
        mesh, geom = geometry.build_preset("round-s3", SPHERE_REFINEMENT)
        return {"mesh": mesh, "geom": geom,
                "S": ScalarField(mesh.vertices @ axis, mesh.mesh_id)}

    def odd_check(inp, out, memo):
        if not isinstance(out, global_iteration.PipelineError):
            raise CheckFailed("odd target was not refused")
        checks.check_odd_refusal(out, inp["mesh"].vertices, inp["S"].values)
        return False

    def even_setup():
        mesh, _ = geometry.build_preset("round-s3", SPHERE_REFINEMENT)
        return {"points": mesh.vertices}

    def even_operation(inp):
        return sphere_tools.check_condition_a(inp["points"], lambda p: float(p @ axis) ** 2)

    def even_check(inp, out, memo):
        checks.check_even_pass(out)
        return False

    return [
        Case("prescribe-S6", constant_setup(6.0), _prescribe_or_refusal, constant_check(6.0)),
        Case("prescribe-Sconst", constant_setup(level), _prescribe_or_refusal,
             constant_check(level)),
        Case("prescribe-odd", odd_setup, _prescribe_or_refusal, odd_check),
        Case("condition-a-even", even_setup, even_operation, even_check),
    ]


# ---------------------------------------------------------------------------
# robin-eigen
# ---------------------------------------------------------------------------


def _eigen_case(preset, refinement, bc_mode, operator, mass, exact=None):
    def setup():
        mesh, geom = geometry.build_preset(preset, refinement)
        return {"mesh": mesh, "geom": geom}

    def operation(inp):
        ops = operators.assemble(inp["mesh"], inp["geom"], CST, bc_mode=bc_mode)
        return ops, operators.first_eigenpair(ops, mass=mass, operator=operator)

    def check(inp, out, memo):
        ops, eig = out
        L, M = checks.pencil(ops, operator)
        checks.check_eigenpair(eig, L, M, exact=exact)
        return False

    return Case(f"eigen-{preset}-r{refinement}-{bc_mode}-{operator}", setup, operation, check)


def _eigen_cases(seed: int):
    return [
        _eigen_case("ball-negR", 1, "robin", "conformal", "consistent"),
        _eigen_case("ball-negR", 1, "robin", "conformal-lumped", "lumped"),
        _eigen_case("round-s3", 3, "closed", "conformal", "consistent", exact=6.0),
    ]


# ---------------------------------------------------------------------------
# local-solve
# ---------------------------------------------------------------------------


def _local_case(preset, refinement, radius):
    def setup():
        mesh, geom = geometry.build_preset(preset, refinement)
        center = geom.metadata["marked_region_center"]
        domain = geometry.extract_subdomain(mesh, ball_predicate(mesh, center, radius))
        return {"mesh": mesh, "geom": geom, "domain": domain}

    def operation(inp):
        args = (inp["mesh"], inp["domain"], inp["geom"], CST, LOCAL_LAMBDA, LOCAL_BETA0)
        return local_yamabe.energy_gate(*args), local_yamabe.beta_continuation(*args)

    def check(inp, out, memo):
        gate, trace = out
        checks.check_local_solution(gate, trace, inp["mesh"], inp["geom"], inp["domain"],
                                    LOCAL_LAMBDA)
        return False

    return Case(f"gate-solve-{preset}-r{refinement}", setup, operation, check)


def _local_cases(seed: int):
    return [_local_case("ball-negR", 2, 0.55), _local_case("bump-t3", 2, 0.40)]


# ---------------------------------------------------------------------------
# bump-glue
# ---------------------------------------------------------------------------


def admissible_target(preset, refinement, radius, base_fn):
    """Inputs whose S is ``base_fn`` flattened to 1 within ``radius`` of the marked centre."""
    mesh, geom = geometry.build_preset(preset, refinement)
    center = geom.metadata["marked_region_center"]
    region = geometry.extract_subdomain(mesh, ball_predicate(mesh, center, radius))
    base = ScalarField(base_fn(mesh.vertices), mesh.mesh_id)
    S = geometry.construct_admissible_function(base, region, 1.0,
                                               2.0 * mesh.min_edge_length(), mesh)
    return {"mesh": mesh, "geom": geom, "S": S}


def bump_base(x):
    return 2.0 + np.sin(2.0 * np.pi * x[:, 0])


def _bump_setup():
    return admissible_target("bump-t3", 1, 0.45, bump_base)


def _bump_check(inp, out, memo):
    known_fault = isinstance(out, global_iteration.PipelineError)
    if known_fault:
        checks.check_glue_failure(out)
        report = out.report
    else:
        checks.check_bracket_solution(out, inp["mesh"], inp["geom"], inp["S"])
        report = out
    text = global_iteration.report_to_text(report, timestamp=False)
    checks.check_identical_text(memo.setdefault("report_text", text), text)
    return known_fault


def _bump_cases(seed: int):
    return [Case("prescribe-bump-t3-r1", _bump_setup, _prescribe_or_refusal, _bump_check)]


WORKLOADS = {
    "sphere-s3": _sphere_cases,
    "robin-eigen": _eigen_cases,
    "local-solve": _local_cases,
    "bump-glue": _bump_cases,
}
