"""Named states and parameterized families used throughout the package."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix

_SQRT2 = np.sqrt(2.0)

# Bell states as columns: phi_plus, phi_minus, psi_plus, psi_minus
_BELL = (
    np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]) / _SQRT2
).astype(complex)
_BELL.setflags(write=False)


def bell_basis() -> np.ndarray:
    """Unitary whose columns are phi_plus, phi_minus, psi_plus and psi_minus."""
    return _BELL.copy()


def _bell_projector(column: int) -> np.ndarray:
    amps = _BELL[:, column]
    return np.outer(amps, amps.conj())


def phi_plus() -> DensityMatrix:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt 2."""
    return DensityMatrix(2, 2, _bell_projector(0))


def maximally_mixed(dim_a: int, dim_b: int) -> DensityMatrix:
    side = dim_a * dim_b
    return DensityMatrix(dim_a, dim_b, np.eye(side) / side)


def werner(weight: float) -> DensityMatrix:
    """Two-qubit Werner family: weight on the singlet plus white noise.

    NPPT exactly for weight > 1/3.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return DensityMatrix(2, 2, weight * _bell_projector(3) + (1.0 - weight) * np.eye(4) / 4.0)


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
