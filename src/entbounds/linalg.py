"""Dense complex Hermitian linear algebra for small bipartite systems.

Basis convention: a bipartite system with local dimensions (dim_a, dim_b)
is indexed row-major with the A index major, i.e. basis vector
|i_A i_B> sits at flat index i_A * dim_b + i_B.  Every operation in the
package assumes this ordering.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionMismatchError, SizeCapError, StateValidityError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
NORM_TOL = 1e-12
DEFAULT_SIZE_CAP = 4096


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic record for the three density-matrix invariants."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    passed: bool


def _check_state(entries: np.ndarray) -> None:
    """Raise StateValidityError unless entries satisfy the three invariants.

    The passing path is a hermiticity check, a trace check and one
    Cholesky of entries - PSD_FLOOR*I, which succeeds iff the minimum
    eigenvalue exceeds PSD_FLOOR; eigvalsh runs only to fill the
    ValidationReport of a failure.
    """
    if not np.all(np.isfinite(entries)):
        raise StateValidityError("entries must be finite (no NaN or infinity)")
    herm = float(np.max(np.abs(entries - entries.conj().T)))
    trace_defect = float(abs(entries.trace() - 1.0))
    if herm <= HERMITICITY_TOL and trace_defect <= TRACE_TOL:
        try:
            np.linalg.cholesky(entries - PSD_FLOOR * np.eye(entries.shape[0]))
            return
        except np.linalg.LinAlgError:
            pass
    min_eig = float(np.linalg.eigvalsh((entries + entries.conj().T) / 2.0)[0])
    if herm > HERMITICITY_TOL:
        message = f"hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL:.0e}"
    elif trace_defect > TRACE_TOL:
        message = f"trace defect {trace_defect:.3e} exceeds {TRACE_TOL:.0e}"
    elif min_eig < PSD_FLOOR:
        message = f"minimum eigenvalue {min_eig:.3e} below {PSD_FLOOR:.0e}"
    else:
        return  # Cholesky failed within rounding of the floor
    report = ValidationReport(herm, trace_defect, min_eig, passed=False)
    raise StateValidityError(message, report=report)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite mixed state with explicit local dimensions.

    Invariants (enforced at construction unless check=False): finite
    entries, Hermitian within 1e-10 elementwise, unit trace within 1e-10,
    and smallest eigenvalue >= -1e-9.  Pass check=False only for
    diagnostic loads; such objects still get their shape validated.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise StateValidityError("local dimensions must be positive integers")
        entries = np.array(self.entries, dtype=complex)
        side = self.dim_a * self.dim_b
        if entries.shape != (side, side):
            raise StateValidityError(
                f"entries must be {side}x{side} for dims ({self.dim_a},{self.dim_b}), "
                f"got {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if check:
            _check_state(entries)

    @property
    def side(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True, eq=False)
class PureState:
    """A bipartite pure state as a unit-norm amplitude vector."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise StateValidityError("local dimensions must be positive integers")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.dim_a * self.dim_b,):
            raise StateValidityError(
                f"amplitude vector must have length {self.dim_a * self.dim_b}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if check:
            defect = abs(np.linalg.norm(amps) - 1.0)
            if defect > NORM_TOL:
                raise StateValidityError(
                    f"norm defect {defect:.3e} exceeds {NORM_TOL:.0e}"
                )

    def to_density_matrix(self) -> DensityMatrix:
        entries = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dim_a, self.dim_b, entries)


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Non-increasing Schmidt coefficients; squares sum to one."""

    coefficients: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        coeffs = np.array(self.coefficients, dtype=float).reshape(-1)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if check:
            if coeffs.size == 0 or np.any(coeffs < 0):
                raise StateValidityError("coefficients must be non-negative")
            if np.any(np.diff(coeffs) > 0):
                raise StateValidityError("coefficients must be non-increasing")
            defect = abs(float(np.sum(coeffs**2)) - 1.0)
            if defect > NORM_TOL:
                raise StateValidityError(
                    f"squared coefficients sum defect {defect:.3e} exceeds "
                    f"{NORM_TOL:.0e}"
                )


def kron_ab(
    entries_a: np.ndarray,
    dims_a: tuple[int, int],
    entries_b: np.ndarray,
    dims_b: tuple[int, int],
) -> np.ndarray:
    """Kronecker product regrouped across the A|B cut.

    The plain Kronecker product orders the joint basis as
    |a1 b1 a2 b2>; the bipartite convention needs |a1 a2 b1 b2>.
    """
    da1, db1 = dims_a
    da2, db2 = dims_b
    k = np.kron(entries_a, entries_b)
    side = da1 * db1 * da2 * db2
    t = k.reshape(da1, db1, da2, db2, da1, db1, da2, db2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return np.ascontiguousarray(t.reshape(side, side))


def tensor_power(rho: DensityMatrix, n: int, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if rho.side**n > cap:
        raise SizeCapError(rho.side**n, cap)
    entries = rho.entries
    da, db = rho.dim_a, rho.dim_b
    for _ in range(n - 1):
        entries = kron_ab(entries, (da, db), rho.entries, (rho.dim_a, rho.dim_b))
        da *= rho.dim_a
        db *= rho.dim_b
    return DensityMatrix(da, db, entries)


def partial_trace(rho: DensityMatrix, party: str) -> np.ndarray:
    """Trace out one party; returns the reduced matrix on the other."""
    t = rho.entries.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    if party == "A":
        return np.einsum("ijik->jk", t)
    if party == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose on the B indices only."""
    da, db = rho.dim_a, rho.dim_b
    t = rho.entries.reshape(da, db, da, db).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(rho.side, rho.side))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    if m.size == 0:
        return 0.0
    if float(np.max(np.abs(m - m.conj().T))) <= HERMITICITY_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """T(rho, sigma) = tr|rho - sigma| / 2."""
    if (rho.dim_a, rho.dim_b) != (sigma.dim_a, sigma.dim_b):
        raise DimensionMismatchError(
            f"dims ({rho.dim_a},{rho.dim_b}) vs ({sigma.dim_a},{sigma.dim_b})"
        )
    val = 0.5 * trace_norm(rho.entries - sigma.entries)
    return float(min(max(val, 0.0), 1.0))


def mix(rho: DensityMatrix, sigma: DensityMatrix, p: float) -> DensityMatrix:
    """Affine combination (1-p)*rho + p*sigma.

    For p in [0,1] the result is always a state.  Outside that range the
    combination can leave the positive cone; the resulting error carries
    the offending minimum eigenvalue in its report.
    """
    if (rho.dim_a, rho.dim_b) != (sigma.dim_a, sigma.dim_b):
        raise DimensionMismatchError(
            f"dims ({rho.dim_a},{rho.dim_b}) vs ({sigma.dim_a},{sigma.dim_b})"
        )
    if not -1.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [-1, 1], got {p}")
    entries = (1.0 - p) * rho.entries + p * sigma.entries
    return DensityMatrix(rho.dim_a, rho.dim_b, entries)


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    m = psi.amplitudes.reshape(psi.dim_a, psi.dim_b)
    return SchmidtForm(np.linalg.svd(m, compute_uv=False))
