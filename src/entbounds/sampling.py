"""Seeded random states, isometries and unitaries for tests and sweeps."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, PureState


def ensure_rng(seed) -> np.random.Generator:
    """Accept a Generator, a seed, or None and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density_matrix(
    dim_a: int, dim_b: int, seed=None, rank: int | None = None
) -> DensityMatrix:
    """Ginibre-induced random state: G G^dag normalized to unit trace."""
    rng = ensure_rng(seed)
    side = dim_a * dim_b
    g = _ginibre(side, rank if rank is not None else side, rng)
    m = g @ g.conj().T
    return DensityMatrix(dim_a, dim_b, m / m.trace())


def random_pure_state(dim_a: int, dim_b: int, seed=None) -> PureState:
    rng = ensure_rng(seed)
    v = _ginibre(dim_a * dim_b, 1, rng).reshape(-1)
    return PureState(dim_a, dim_b, v / np.linalg.norm(v))


def random_product_pure_state(dim_a: int, dim_b: int, seed=None) -> PureState:
    rng = ensure_rng(seed)
    a = _ginibre(dim_a, 1, rng).reshape(-1)
    b = _ginibre(dim_b, 1, rng).reshape(-1)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return PureState(dim_a, dim_b, np.kron(a, b))


def random_separable_state(
    dim_a: int, dim_b: int, seed=None, terms: int | None = None
) -> DensityMatrix:
    """Convex mixture of random product projectors (separable by construction)."""
    rng = ensure_rng(seed)
    if terms is None:
        terms = 2 * dim_a * dim_b
    weights = rng.dirichlet(np.ones(terms))
    side = dim_a * dim_b
    out = np.zeros((side, side), dtype=complex)
    for w in weights:
        amps = random_product_pure_state(dim_a, dim_b, rng).amplitudes
        out += w * np.outer(amps, amps.conj())
    return DensityMatrix(dim_a, dim_b, out)


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


def random_isometry(rows: int, cols: int, seed=None) -> np.ndarray:
    """rows x cols matrix V with V^dag V = identity (requires rows >= cols)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return haar_qr(_ginibre(rows, cols, ensure_rng(seed)))


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return random_isometry(dim, dim, seed)
