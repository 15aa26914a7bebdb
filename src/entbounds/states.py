"""Named states and parameterized families used throughout the package."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, PureState

_SQRT2 = np.sqrt(2.0)

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def bell_state(label: str) -> PureState:
    """One of the four Bell states of a two-qubit system."""
    amps = {
        "phi_plus": np.array([1, 0, 0, 1]) / _SQRT2,
        "phi_minus": np.array([1, 0, 0, -1]) / _SQRT2,
        "psi_plus": np.array([0, 1, 1, 0]) / _SQRT2,
        "psi_minus": np.array([0, 1, -1, 0]) / _SQRT2,
    }
    if label not in amps:
        raise ValueError(f"unknown Bell label {label!r}; choose from {BELL_LABELS}")
    return PureState(2, 2, amps[label])


def bell_basis() -> np.ndarray:
    """Unitary whose columns are the Bell states, in BELL_LABELS order."""
    return np.column_stack([bell_state(lab).amplitudes for lab in BELL_LABELS])


def phi_plus() -> PureState:
    return bell_state("phi_plus")


def maximally_mixed(dim_a: int, dim_b: int) -> DensityMatrix:
    side = dim_a * dim_b
    return DensityMatrix(dim_a, dim_b, np.eye(side) / side)


def product_state(vec_a, vec_b) -> PureState:
    a = np.asarray(vec_a, dtype=complex).reshape(-1)
    b = np.asarray(vec_b, dtype=complex).reshape(-1)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return PureState(len(a), len(b), np.kron(a, b))


def werner(weight: float) -> DensityMatrix:
    """Two-qubit Werner family: weight on the singlet plus white noise.

    NPPT exactly for weight > 1/3.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    singlet = bell_state("psi_minus").amplitudes
    proj = np.outer(singlet, singlet.conj())
    return DensityMatrix(2, 2, weight * proj + (1.0 - weight) * np.eye(4) / 4.0)


def isotropic_2x3(q: float) -> DensityMatrix:
    """2x3 family: q on an embedded EPR pair plus white noise on C2 x C3.

    PPT threshold at q = 1/4.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    amps = np.zeros(6, dtype=complex)
    amps[0] = 1.0 / _SQRT2  # |0>|0>
    amps[4] = 1.0 / _SQRT2  # |1>|1>
    proj = np.outer(amps, amps.conj())
    return DensityMatrix(2, 3, q * proj + (1.0 - q) * np.eye(6) / 6.0)
