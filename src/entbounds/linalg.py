"""Dense complex Hermitian linear algebra for small bipartite systems.

Basis convention: a bipartite system with local dimensions (dim_a, dim_b)
is indexed row-major with the A index major, i.e. basis vector
|i_A i_B> sits at flat index i_A * dim_b + i_B.  Every operation in the
package assumes this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StateValidityError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
# slack of every certified inequality (mixing bound, ball corridor, Lipschitz bound)
CERTIFICATION_TOL = 1e-9
DEFAULT_SIZE_CAP = 4096
# states per block of a stacked evaluation (ball, corridor, border and eta scans)
STACK_BLOCK = 256


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic record for the three density-matrix invariants."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    passed: bool


def _check_state(entries: np.ndarray) -> None:
    """Raise StateValidityError unless entries, one side x side matrix,
    satisfy the three invariants.  DensityMatrix is the only caller: an
    array built from validated states is not validated again.

    The passing path is a bound on the entries, checked before any sum
    of them can overflow, a hermiticity check, a trace check and one
    Cholesky of entries - PSD_FLOOR*I, which succeeds iff the minimum
    eigenvalue exceeds PSD_FLOOR; eigvalsh runs only to fill the
    ValidationReport of a failure.
    """
    if not np.all(np.isfinite(entries)):
        raise StateValidityError("entries must be finite (no NaN or infinity)")
    # no state's entry exceeds 1 in modulus; up to 2, the diagnostics below
    # name the invariant an entry breaks
    largest = float(np.abs(entries).max())
    if largest > 2.0:
        raise StateValidityError(f"entries must have modulus at most 1, got {largest:.3e}")
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

    Invariants (enforced at every construction): finite entries,
    Hermitian within 1e-10 elementwise, unit trace within 1e-10, and
    smallest eigenvalue >= -1e-9.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray

    def __post_init__(self) -> None:
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
        _check_state(entries)

    @property
    def side(self) -> int:
        return self.dim_a * self.dim_b


def partial_trace(rho: DensityMatrix, party: str) -> np.ndarray:
    """Trace out one party; returns the reduced matrix on the other."""
    t = rho.entries.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    if party == "A":
        return np.einsum("ijik->jk", t)
    if party == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def state_list(states) -> tuple[list[DensityMatrix], tuple[int, int]]:
    """A sequence of states of one shape as a list, with the shared
    (dim_a, dim_b); DimensionMismatchError for mixed shapes."""
    states = list(states)
    dims = {(s.dim_a, s.dim_b) for s in states}
    if len(dims) != 1:
        raise DimensionMismatchError(f"states of one shape expected, got dims {sorted(dims)}")
    return states, dims.pop()


def stack(states) -> tuple[np.ndarray, tuple[int, int]]:
    """The entries of a sequence of states of one shape as one
    (n, side, side) array, with the shared (dim_a, dim_b)."""
    states, dims = state_list(states)
    return np.array([s.entries for s in states]), dims


def blocks(items):
    """Consecutive slices of at most STACK_BLOCK items: a stacked
    evaluation over them holds a few block-sized arrays at a time."""
    for start in range(0, len(items), STACK_BLOCK):
        yield items[start : start + STACK_BLOCK]


def partial_transpose(entries: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose on the B indices only, of each matrix of an (n, side, side)
    stack of states of shape dims (dim_a, dim_b), such as stack gives."""
    dim_a, dim_b = dims
    t = entries.reshape(-1, dim_a, dim_b, dim_a, dim_b).transpose(0, 1, 4, 3, 2)
    return t.reshape(entries.shape)


def trace_norm(m: np.ndarray):
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|.

    m is one square matrix, which gives a float, or a stack
    (..., side, side), which gives an array of shape m.shape[:-2]; each
    matrix of a stack takes the route it would take alone.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("trace_norm expects a square matrix or a stack of them")
    # |conj(m) - m^T|, the entries of |m - m^H| transposed, in one
    # temporary the size of m that holds each step in place
    gap = m.conj()
    gap -= m.swapaxes(-1, -2)
    gap = np.abs(gap, out=gap).real.max(axis=(-2, -1), initial=0.0)
    hermitian = gap <= HERMITICITY_TOL
    if hermitian.all():
        norms = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    else:
        norms = np.empty(hermitian.shape)
        norms[hermitian] = np.abs(np.linalg.eigvalsh(m[hermitian])).sum(axis=-1)
        norms[~hermitian] = np.linalg.svd(m[~hermitian], compute_uv=False).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def _distance(diff: np.ndarray):
    """tr|diff| / 2 clamped to [0, 1], for one difference of states or a stack."""
    return np.minimum(np.maximum(0.5 * trace_norm(diff), 0.0), 1.0)


def trace_distances(rho: DensityMatrix, states) -> np.ndarray:
    """T(rho, sigma) for each sigma of a sequence of states of rho's shape,
    checked for that shape once and stacked in blocks of STACK_BLOCK."""
    states, dims = state_list(states)
    _same_dims(rho, *dims)
    stacks = (np.array([s.entries for s in block]) for block in blocks(states))
    return np.concatenate([_distance(rho.entries - entries) for entries in stacks])


def _same_dims(rho: DensityMatrix, dim_a: int, dim_b: int) -> None:
    if (rho.dim_a, rho.dim_b) != (dim_a, dim_b):
        raise DimensionMismatchError(f"dims ({rho.dim_a},{rho.dim_b}) vs ({dim_a},{dim_b})")


def mix(rho: DensityMatrix, sigma: DensityMatrix, p: float) -> DensityMatrix:
    """Affine combination (1-p)*rho + p*sigma.

    For p in [0,1] the result is always a state.  Outside that range the
    combination can leave the positive cone; the resulting error carries
    the offending minimum eigenvalue in its report.
    """
    _same_dims(rho, sigma.dim_a, sigma.dim_b)
    if not -1.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [-1, 1], got {p}")
    return DensityMatrix(rho.dim_a, rho.dim_b, _mix(rho.entries, sigma.entries, p))


def _mix(a: np.ndarray, b: np.ndarray, p):
    """(1-p) a + p b; p a float, or an array of shape (n, 1, 1) for a stack."""
    return (1.0 - p) * a + p * b
