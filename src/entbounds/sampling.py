"""Seeded random density matrices and the phase-fixed QR that makes Ginibre draws Haar."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _ginibre_state(side: int, rng: np.random.Generator) -> np.ndarray:
    """The entries of a Ginibre-induced random state, not validated here."""
    g = _ginibre(side, side, rng)
    m = g @ g.conj().T
    return m / m.trace()


def random_density_matrix(dim_a: int, dim_b: int, seed=None) -> DensityMatrix:
    """Ginibre-induced random state: G G^dag normalized to unit trace."""
    return DensityMatrix(dim_a, dim_b, _ginibre_state(dim_a * dim_b, np.random.default_rng(seed)))


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
