"""Element-local assembly kernels, vectorized over cells with numpy."""

from __future__ import annotations

import numpy as np

__all__ = ["local_stiffness", "local_mass", "local_tri_mass", "local_load"]


def local_stiffness(metric, density, grads, qw):
    """Element stiffness matrices (nt, nc, nc) for the metric-weighted form."""
    ginv = np.linalg.inv(metric)  # (nt, nq, 3, 3)
    flux = np.einsum("ci,tqij->tqcj", grads, ginv)  # (nt, nq, 4, 3)
    return np.einsum("q,tq,tqcj,dj->tcd", qw, density, flux, grads, optimize=True)


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
