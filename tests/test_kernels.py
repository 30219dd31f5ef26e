"""Shapes, symmetry and accuracy of the element kernels."""

from __future__ import annotations

import numpy as np
import pytest

from cywbench import _kernels
from cywbench.geometry import BARY_GRAD, TET_QW

from conftest import preset

EPS = np.finfo(float).eps


def test_kernel_shapes_and_symmetry():
    rng = np.random.default_rng(11)
    nt, nq = 5, 4
    metric = np.tile(np.eye(3), (nt, nq, 1, 1))
    density = np.ones((nt, nq))
    grads = rng.normal(size=(4, 3))  # reference-cell shape gradients
    qw = np.full(nq, 1.0 / nq)
    loc = _kernels.local_stiffness(metric, density, grads, qw)
    assert loc.shape == (nt, 4, 4)
    assert np.allclose(loc, np.swapaxes(loc, 1, 2))
    # constants in the kernel: rows sum to zero iff grads sum to zero
    grads0 = grads - grads.mean(axis=0, keepdims=True)
    loc0 = _kernels.local_stiffness(metric, density, grads0, qw)
    assert np.abs(loc0.sum(axis=2)).max() < 1e-12


# ---------------------------------------------------------------------------
# the closed-form stiffness kernel against the batched-inverse kernel
# ---------------------------------------------------------------------------


def _inv_einsum_stiffness(metric, density, grads, qw):
    """The stiffness kernel before the closed form, kept as an oracle."""
    ginv = np.linalg.inv(metric)  # (nt, nq, 3, 3)
    flux = np.einsum("ci,tqij->tqcj", grads, ginv)  # (nt, nq, 4, 3)
    return np.einsum("q,tq,tqcj,dj->tcd", qw, density, flux, grads, optimize=True)


@pytest.mark.parametrize("preset_id, refinement",
                         [("round-s3", 2), ("ball-negR", 1), ("bump-t3", 1)])
@pytest.mark.parametrize("layout", ["as-built", "contiguous"])
def test_closed_form_stiffness_matches_inverse_oracle(preset_id, refinement, layout):
    _, geom = preset(preset_id, refinement)
    metric = geom.metric
    if layout == "contiguous":
        metric = np.ascontiguousarray(metric)
    got = _kernels.local_stiffness(metric, geom.volume_density, BARY_GRAD, TET_QW)
    want = _inv_einsum_stiffness(metric, geom.volume_density, BARY_GRAD, TET_QW)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    # both inverses are accurate to a few kappa * eps: the slivers of the
    # ball meshes (kappa up to 4.6e4) put LU itself ~8e-13 off the exact inverse
    kappa = np.linalg.cond(metric).max(axis=1)
    assert (err <= 1e-12 + 4.0 * EPS * kappa).all()
    assert err[kappa <= 1e3].max(initial=0.0) <= 1e-12


def test_closed_form_stiffness_ignores_strides_and_cell_count():
    # the flat presets pass a stride-0 view; a subset must reproduce the
    # whole set's element matrices bitwise (the Dirichlet assembly relies on it)
    _, geom = preset("ball-negR", 1)
    whole = _kernels.local_stiffness(geom.metric, geom.volume_density, BARY_GRAD, TET_QW)
    contiguous = _kernels.local_stiffness(np.ascontiguousarray(geom.metric),
                                          geom.volume_density, BARY_GRAD, TET_QW)
    assert np.array_equal(whole, contiguous)
    some = np.arange(5, len(whole), 7)
    part = _kernels.local_stiffness(geom.metric[some], geom.volume_density[some],
                                    BARY_GRAD, TET_QW)
    assert np.array_equal(part, whole[some])


def test_metric_adjugate_inverts_and_refuses_indefinite_metrics():
    _, geom = preset("round-s3", 2)
    adj, det = _kernels.metric_adjugate(geom.metric)
    ginv = np.moveaxis(adj / det, (0, 1), (-2, -1))
    assert np.allclose(ginv @ geom.metric, np.eye(3), atol=1e-12)
    assert np.allclose(det, np.linalg.det(geom.metric), rtol=1e-12, atol=0.0)
    # singular, det < 0, and det > 0 but indefinite
    for bad in (np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, -2.0]),
                np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0])):
        metric = np.array(geom.metric[:3])
        metric[1, 2] = bad
        with pytest.raises(ValueError, match="positive definite"):
            _kernels.local_stiffness(metric, geom.volume_density[:3], BARY_GRAD, TET_QW)
