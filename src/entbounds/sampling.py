"""Seeded random density matrices and the phase-fixed QR that makes Ginibre draws Haar."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density_matrix(dim_a: int, dim_b: int, seed=None) -> DensityMatrix:
    """Ginibre-induced random state: G G^dag normalized to unit trace."""
    side = dim_a * dim_b
    g = _ginibre(side, side, np.random.default_rng(seed))
    m = g @ g.conj().T
    return DensityMatrix(dim_a, dim_b, m / m.trace())


def haar_qr(g: np.ndarray) -> np.ndarray:
    """Q factor of Ginibre draws g, shape (..., rows, cols), with the phase fix.

    Each column of Q is multiplied by the phase of the matching diagonal
    entry of R, which makes the result Haar-distributed; the leading axes
    are a batch of independent draws.
    """
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]
