"""Shapes and symmetry of the element kernels."""

from __future__ import annotations

import numpy as np

from cywbench import _kernels


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
