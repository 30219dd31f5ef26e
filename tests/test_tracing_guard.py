"""The traced benchmark's patch points exist in the program and are restored.

``perfbench/run.py --trace 1`` wraps functions by module and attribute
name; a rename in ``cywbench`` would break it, so this loads the tracer by
path and checks every target.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_exist_and_are_restored():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    targets += [(owner, "splu") for owner, _ in tracing.FACTOR_TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if attr not in owner.__dict__]
    assert not missing
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, before))
        from cywbench import _kernels
        _kernels.local_load(np.ones((2, 4)), np.ones((2, 4)), np.eye(4), np.ones(4))
    assert [span[0] for span in tracer.spans] == ["_kernels.local_load"]
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, before))


def test_traced_global_factorizations():
    from cywbench import geometry, global_iteration, operators
    from cywbench.constants import DimensionConstants

    tracing = _load_tracing()
    mesh, geom = geometry.build_preset("round-s3", 1)
    ops = operators.assemble(mesh, geom, DimensionConstants(3))
    one = geometry.ScalarField(np.ones(mesh.num_vertices), mesh.mesh_id)
    S = geometry.ScalarField(np.full(mesh.num_vertices, 6.0), mesh.mesh_id)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        global_iteration.monotone_iterate(one, one, S, ops)
    names = [span[0] for span in tracer.spans]
    assert names.count("superlu.factor:global_iteration") == 1
    assert "superlu.solve:global_iteration" in names
    # the symmetric order is the operators' own factorization
    assert names.count("superlu.factor:operators") == 1
