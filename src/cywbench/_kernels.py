"""Element-local assembly kernels, vectorized over cells with numpy.

The stiffness kernel inverts each 3x3 metric in closed form, by its
cofactors and determinant (:func:`metric_adjugate`), and refuses a metric
that is not positive definite at some quadrature point.  Every kernel
result for a cell is a fixed sequence of elementwise array products and
sums over that cell's inputs alone, so it does not depend on how many cells
are passed or on the strides of the arrays (the flat presets pass the
metric as a read-only view that repeats each tet's matrix).  A Dirichlet
assembly over a subset of the cells therefore reproduces the whole-mesh
element matrices bitwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["local_stiffness", "local_mass", "local_tri_mass", "local_load",
           "metric_adjugate"]


def metric_adjugate(metric):
    """Adjugate and determinant of symmetric 3x3 metrics ``metric`` (..., 3, 3).

    The adjugate is returned with the matrix axes first, (3, 3, ...), each
    entry a contiguous array; the inverse of ``metric[k]`` is
    ``adj[:, :, k] / det[k]``.  The cofactors are read from the upper
    triangle, so the adjugate is exactly symmetric.  Raises ``ValueError``
    where a metric is not positive definite, that is, by Sylvester's
    criterion, where one of its leading principal minors g00,
    g00 g11 - g01^2 (= adj22) and det is not > 0.
    """
    g = np.ascontiguousarray(np.moveaxis(metric, (-2, -1), (0, 1)))
    adj = np.empty(g.shape)
    adj[0, 0] = g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2]
    adj[0, 1] = adj[1, 0] = g[0, 2] * g[1, 2] - g[0, 1] * g[2, 2]
    adj[0, 2] = adj[2, 0] = g[0, 1] * g[1, 2] - g[0, 2] * g[1, 1]
    adj[1, 1] = g[0, 0] * g[2, 2] - g[0, 2] * g[0, 2]
    adj[1, 2] = adj[2, 1] = g[0, 1] * g[0, 2] - g[0, 0] * g[1, 2]
    adj[2, 2] = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
    det = g[0, 0] * adj[0, 0] + g[0, 1] * adj[1, 0] + g[0, 2] * adj[2, 0]
    if not ((g[0, 0] > 0) & (adj[2, 2] > 0) & (det > 0)).all():
        raise ValueError("metric is not positive definite at some quadrature point")
    return adj, det


def local_stiffness(metric, density, grads, qw):
    """Element stiffness matrices (nt, nc, nc) for the metric-weighted form.

    With the closed-form inverse the quadrature sum is taken first,
    H_t = sum_q qw_q density_tq adj(g_tq) / det(g_tq), and then
    K_t = grads H_t grads^T, one (nc x 3)(3 x 3)(3 x nc) product per cell,
    written out entry by entry.  Raises ``ValueError`` where a metric is
    not positive definite (see :func:`metric_adjugate`).
    """
    adj, det = metric_adjugate(metric)  # (3, 3, nt, nq), (nt, nq)
    scale = qw[None, :] * density / det
    H = sum(scale[:, q] * adj[..., q] for q in range(len(qw)))  # (3, 3, nt)
    F = [sum(g * H_i for g, H_i in zip(row, H)) for row in grads]  # rows of grads H
    nc = len(grads)
    out = np.empty((len(density), nc, nc))
    for c, d in zip(*np.triu_indices(nc)):
        out[:, c, d] = out[:, d, c] = sum(F[c][j] * grads[d, j] for j in range(3))
    return out


def local_mass(density, weight, qp, qw):
    """Element mass matrices (nt, nc, nc) with a per-quadrature-point weight."""
    scal = qw[None, :] * density * weight  # (nt, nq)
    return np.einsum("tq,qc,qd->tcd", scal, qp, qp, optimize=True)


def local_tri_mass(bdensity, weight, qp, qw):
    """Element boundary mass matrices (nb, 3, 3); same kernel, triangle rule."""
    return local_mass(bdensity, weight, qp, qw)


def local_load(density, weight, qp, qw):
    """Element load vectors (nt, nc) for a quadrature-sampled source."""
    scal = qw[None, :] * density * weight
    return np.einsum("tq,qc->tc", scal, qp, optimize=True)
