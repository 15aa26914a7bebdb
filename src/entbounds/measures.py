"""Computable entanglement quantities and certified bound surrogates.

Everything is reported in base-2 units (ebits).  Exact closed forms carry
kind="exact"; surrogates standing in for the uncomputable asymptotic
rates carry kind="lower_bound" or kind="upper_bound" so that bound
directions are never silently mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError, StateValidityError
from .linalg import DensityMatrix, PureState, partial_transpose, schmidt_decompose
from .sampling import haar_qr
from .states import bell_basis

EIG_CLAMP_FLOOR = -1e-9
DEFAULT_EOF_BUDGET = 2000

KIND_EXACT = "exact"
KIND_LOWER = "lower_bound"
KIND_UPPER = "upper_bound"


@dataclass(frozen=True)
class MeasureValue:
    """A measure result tagged with its bound direction and producing method."""

    value: float
    kind: str
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if self.kind not in (KIND_EXACT, KIND_LOWER, KIND_UPPER):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValueError(f"measure values are finite, got {self.value}")
        if self.value < 0.0:
            raise ValueError(f"measure values are non-negative, got {self.value}")

    def as_record(self) -> dict:
        return {"value": self.value, "kind": self.kind, "method": self.method}


@dataclass(frozen=True)
class BellDiagonalProbs:
    """Four Bell-basis weights, non-negative and summing to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float).reshape(-1)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (4,):
            raise ValueError("exactly four probabilities required")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to one within 1e-12")


@dataclass(frozen=True)
class PptVerdict:
    ppt: bool
    margin: float


def _shannon(probs: np.ndarray) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p @ np.log2(p)) + 0.0)


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return _shannon(np.array([x, 1.0 - x]))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy of the eigenvalue spectrum of a PSD unit-trace matrix.

    Eigenvalues in [-1e-9, 0) are clamped to zero; anything lower raises.
    """
    m = np.asarray(rho, dtype=complex)
    sym = (m + m.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < EIG_CLAMP_FLOOR:
        raise StateValidityError(
            f"eigenvalue {eigs[0]:.3e} below clamp floor {EIG_CLAMP_FLOOR:.0e}"
        )
    # an eigenvalue a rounding error above 1 would push the sum below 0
    return max(_shannon(np.clip(eigs, 0.0, None)), 0.0)


def entropy_of_entanglement(psi: PureState) -> MeasureValue:
    """Shannon entropy (base 2) of the squared Schmidt coefficients."""
    squares = schmidt_decompose(psi).coefficients ** 2
    return MeasureValue(_shannon(squares), KIND_EXACT, "entropy_of_entanglement")


def is_ppt(rho: DensityMatrix) -> PptVerdict:
    """Positivity of the partial transpose, with the minimum eigenvalue as margin."""
    pt = partial_transpose(rho)
    margin = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])
    return PptVerdict(margin >= EIG_CLAMP_FLOOR, margin)


def log_negativity(rho: DensityMatrix) -> MeasureValue:
    """log2 of the trace norm of the partial transpose; zero iff PPT."""
    pt = partial_transpose(rho)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    value = float(np.log2(np.sum(np.abs(eigs))))
    return MeasureValue(max(value, 0.0), KIND_EXACT, "log_negativity")


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y).real


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def concurrence_2x2(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, s1 - s2 - s3 - s4).

    The s_i are the decreasing square-rooted eigenvalues of
    rho (YxY) rho* (YxY); they are computed here as the singular values
    of sqrt(rho) (YxY) conj(sqrt(rho)), which is the same spectrum with
    far better behavior near rank deficiency.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError("concurrence_2x2 requires a 2x2 system")
    root = _sqrtm_psd(rho.entries)
    z = root @ _YY @ root.conj()
    s = np.linalg.svd(z, compute_uv=False)
    return float(min(max(s[0] - s[1] - s[2] - s[3], 0.0), 1.0))


def eof_2x2(rho: DensityMatrix) -> MeasureValue:
    """Closed-form two-qubit entanglement of formation."""
    c = concurrence_2x2(rho)
    x = (1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    return MeasureValue(binary_entropy(x), KIND_EXACT, "eof_2x2")


def twirl_to_bell_diagonal(rho: DensityMatrix) -> BellDiagonalProbs:
    """Bell-basis diagonal weights of a two-qubit state.

    The twirl keeps the Bell-diagonal part and removes off-diagonals;
    the first entry is the fidelity with the maximally entangled state.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise DimensionMismatchError("twirl_to_bell_diagonal requires a 2x2 system")
    basis = bell_basis()
    diag = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, rho.entries, basis))
    clamped = np.where((diag < 0) & (diag >= EIG_CLAMP_FLOOR), 0.0, diag)
    if np.any(clamped < 0):
        raise StateValidityError(
            f"Bell weight {clamped.min():.3e} below clamp floor"
        )
    return BellDiagonalProbs(clamped / clamped.sum())


def hashing_yield(probs: BellDiagonalProbs) -> MeasureValue:
    """max(0, 1 - H(probs)): one-way distillation yield for Bell-diagonal states."""
    value = max(0.0, 1.0 - _shannon(probs.probs))
    return MeasureValue(value, KIND_LOWER, "hashing_yield")


def ed_lower(rho: DensityMatrix) -> MeasureValue:
    """Certified lower bound on the distillable rate.

    Two-qubit input: hashing yield of the twirled state.  Relabeling the
    four Bell weights only permutes the distribution and the yield
    depends on it through its entropy alone, so the best of the 24
    local relabelings equals the yield of the sorted weights computed
    here.  Other dimensions return 0, a valid but vacuous bound.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        return MeasureValue(0.0, KIND_LOWER, "ed_lower_vacuous")
    probs = twirl_to_bell_diagonal(rho)
    ordered = BellDiagonalProbs(np.sort(probs.probs)[::-1])
    return MeasureValue(hashing_yield(ordered).value, KIND_LOWER, "ed_lower_hashing")


def ec_upper(
    rho: DensityMatrix,
    k: int | None = None,
    budget: int = DEFAULT_EOF_BUDGET,
    seed: int = 0,
) -> MeasureValue:
    """Upper bound on the preparation cost via entanglement of formation."""
    if (rho.dim_a, rho.dim_b) == (2, 2):
        return MeasureValue(eof_2x2(rho).value, KIND_UPPER, "ec_upper_eof_2x2")
    general = eof_upper_general(rho, k=k, budget=budget, seed=seed)
    return MeasureValue(general.value, KIND_UPPER, "ec_upper_eof_search")


# ----------------------------------------------------------------------
# decomposition-search upper bound on the entanglement of formation
#
# A decomposition of rho into k unnormalized pure columns B (with
# B B^dag = rho) is parameterized as B = A W, where A is the fixed
# eigendecomposition square root and W is any r x k co-isometry
# (W W^dag = 1).  The objective
#     f(B) = sum_i [ q_i log2 q_i - sum_s sigma_is^2 log2 sigma_is^2 ]
# (q_i the column norms squared, sigma_is the column Schmidt values)
# equals the average output entanglement entropy of the ensemble.


def _xlog2x(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log2(x[mask])
    return out


def _column_entropies(cols: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Entropy contribution of each unnormalized column, batched.

    cols has shape (..., dim_a, dim_b).  For dim_a == 2 the two squared
    Schmidt values come from the trace and determinant of the 2x2 Gram
    matrix in closed form; larger systems go through batched
    eigendecompositions.
    """
    if dim_a == 2:
        g00 = np.sum(np.abs(cols[..., 0, :]) ** 2, axis=-1)
        g11 = np.sum(np.abs(cols[..., 1, :]) ** 2, axis=-1)
        g01 = np.sum(cols[..., 0, :] * cols[..., 1, :].conj(), axis=-1)
        t = g00 + g11
        det = np.maximum(g00 * g11 - np.abs(g01) ** 2, 0.0)
        disc = np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))
        s1 = (t + disc) / 2.0
        s2 = np.maximum((t - disc) / 2.0, 0.0)
        return _xlog2x(t) - _xlog2x(s1) - _xlog2x(s2)
    gram = cols @ np.conj(np.swapaxes(cols, -1, -2))
    w = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    q = np.sum(w, axis=-1)
    return _xlog2x(q) - np.sum(_xlog2x(w), axis=-1)


def _objective(b: np.ndarray, dim_a: int, dim_b: int) -> float:
    k = b.shape[1]
    return float(np.sum(_column_entropies(b.T.reshape(k, dim_a, dim_b), dim_a, dim_b)))


_PHASES = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
_THETAS = np.linspace(-np.pi / 2, np.pi / 2, 9)
# the 4 x 9 (phase, angle) grid, flattened row by row
_GRID_T, _GRID_P = (g.reshape(1, -1) for g in np.meshgrid(_THETAS, _PHASES))

SCORE_BLOCK = 256
SWEEP_LIMIT = 40
SWEEP_TOL = 1e-10
SEESAW_ITERS = 4000
SEESAW_TOL = 1e-15
SEESAW_STALL_EVERY = 200


def _pair_eval(u, v, thetas, phis, dim_a, dim_b):
    """Entropy of each rotated column pair.

    u, v hold one column per row, shape (R, d); thetas and phis
    broadcast to (R, n) and so does the result.
    """
    c = np.cos(thetas)[..., None]
    s = (np.sin(thetas) * np.exp(1j * phis))[..., None]
    u, v = u[:, None, :], v[:, None, :]
    u2 = c * u + s * v
    v2 = -np.conj(s) * u + c * v
    shape = u2.shape[:-1] + (dim_a, dim_b)
    return _column_entropies(u2.reshape(shape), dim_a, dim_b) + _column_entropies(
        v2.reshape(shape), dim_a, dim_b
    )


def _pair_move(u, v, dim_a, dim_b, f0):
    """Best two-column rotation of each row: a grid, then parabolic refinement.

    Returns the mask of rows whose best rotation lowers f0 by more than
    1e-15, and every row's two columns under its best rotation.
    """
    rows = np.arange(len(u))
    idx = np.argmin(_pair_eval(u, v, _GRID_T, _GRID_P, dim_a, dim_b), axis=1)
    point = [_GRID_T[0, idx], _GRID_P[0, idx]]  # angle, phase
    steps = [_THETAS[1] - _THETAS[0], np.pi / 4]
    for _ in range(2):
        for axis in (0, 1):
            h, x = steps[axis], point[axis]
            grid = [point[0][:, None], point[1][:, None]]
            grid[axis] = xs = np.stack([x - h, x, x + h], axis=1)
            v3 = _pair_eval(u, v, *grid, dim_a, dim_b)
            den = v3[:, 0] - 2.0 * v3[:, 1] + v3[:, 2]
            curved = den > 1e-18
            ratio = 0.5 * h * (v3[:, 0] - v3[:, 2]) / np.where(curved, den, 1.0)
            cand = x + np.where(curved, np.clip(ratio, -h, h), 0.0)
            grid[axis] = cand[:, None]
            cv = _pair_eval(u, v, *grid, dim_a, dim_b)[:, 0]
            j = np.argmin(v3, axis=1)
            low = v3[rows, j]
            took = cv < low
            point[axis] = np.where(took, cand, xs[rows, j])
            best = np.where(took, cv, low)
        steps = [h / 4.0 for h in steps]
    c = np.cos(point[0])[:, None]
    s = (np.sin(point[0]) * np.exp(1j * point[1]))[:, None]
    return best < f0 - 1e-15, c * u + s * v, -np.conj(s) * u + c * v


def _givens_polish(b, dim_a, dim_b):
    """Cyclic two-column rotations on a stack of decompositions (R, d, k).

    A row stops once a sweep lowers its objective by less than SWEEP_TOL
    and is left as it is from then on.
    """
    count, _, k = b.shape
    col = _column_entropies(b.transpose(0, 2, 1).reshape(count, k, dim_a, dim_b), dim_a, dim_b)
    total = np.sum(col, axis=-1)
    live = np.ones(count, dtype=bool)
    for _ in range(SWEEP_LIMIT):
        start = total.copy()
        for i, j in combinations(range(k), 2):
            f0 = col[:, i] + col[:, j]
            active = live & ~(f0 < 1e-15)
            if not active.any():
                continue
            at = slice(None) if active.all() else np.flatnonzero(active)
            moved, u2, v2 = _pair_move(b[at, :, i], b[at, :, j], dim_a, dim_b, f0[at])
            if not moved.any():
                continue
            if not moved.all():
                at = np.flatnonzero(active)[moved]
                u2, v2 = u2[moved], v2[moved]
            b[at, :, i] = u2
            b[at, :, j] = v2
            # column by column: on one 2 x dim_b column _column_entropies
            # works on numpy scalars, whose |g01| ** 2 can differ in the last
            # bit from the batched value, and each record must end exactly
            # as it would refined on its own
            col[at, i] = [_column_entropies(c.reshape(dim_a, dim_b), dim_a, dim_b) for c in u2]
            col[at, j] = [_column_entropies(c.reshape(dim_a, dim_b), dim_a, dim_b) for c in v2]
            total[at] = total[at] - f0[at] + col[at, i] + col[at, j]
        live &= ~(start - total < SWEEP_TOL)
        if not live.any():
            break
    return total, b


def _rank1_truncate(cols: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(cols)
    return s[..., 0][..., None, None] * (u[..., :, :1] @ vh[..., :1, :])


def _seesaw(a, k, dim_a, dim_b, w, score):
    """Alternate between decompositions B = A W and product-column targets.

    w is a sequence of R co-isometries r x k, one start per row.
    Each half-step solves its subproblem exactly (rank-1 truncation for
    the targets, an orthogonal Procrustes polar factor for W), so the
    column-to-product distance is non-increasing.  It collapses to
    machine zero exactly when a product-vector decomposition with k
    terms is reachable, which is what certifies separable inputs.  A row
    stops there, when SEESAW_STALL_EVERY iterations shrank that distance
    by less than 0.1%, or after SEESAW_ITERS iterations, and score(B)
    gives its value.  The rows
    after the first one valued below 1e-9 are never used, so they stop
    as soon as that value is known; the values up to it are returned.
    """
    w = np.stack(w)
    count = len(w)
    values = np.full(count, np.inf)
    prev = np.full(count, np.inf)
    live = np.arange(count)
    for it in range(SEESAW_ITERS):
        at = slice(None) if live.size == len(w) else live
        cols = (a @ w[at]).transpose(0, 2, 1).reshape(-1, k, dim_a, dim_b)
        targets = _rank1_truncate(cols)
        dist = np.sum(np.abs(cols - targets) ** 2, axis=(1, 2, 3))
        go = ~(dist < SEESAW_TOL)
        if it % SEESAW_STALL_EVERY == SEESAW_STALL_EVERY - 1:
            go &= ~(dist > 0.999 * prev[at])
            prev[at] = dist
        if not go.all():
            for r in live[~go]:
                values[r] = score(a @ w[r])
                if values[r] < 1e-9:
                    count = min(count, r + 1)
            go &= live < count
            live, targets = live[go], targets[go]
            if not live.size:
                break
            at = live
        x = a.conj().T @ targets.reshape(-1, k, dim_a * dim_b).transpose(0, 2, 1)
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        w[at] = u @ vh
    else:
        values[live] = [score(a @ w[r]) for r in live]
    return values[:count]


def _coisometry_stream(rng, count, k, r):
    """count random r x k co-isometries; draws are per-restart interleaved
    so the j-th restart sees the same numbers for any total count >= j."""
    g = rng.standard_normal((count, k, r, 2))
    return haar_qr(g[..., 0] + 1j * g[..., 1]).conj().transpose(0, 2, 1)


def _compress_start(a, w, kp, fallback_rng):
    """Restrict a co-isometry to its kp heaviest columns and repair it."""
    r = w.shape[0]
    norms = np.sum(np.abs(w) ** 2, axis=0)
    keep = np.sort(np.argsort(norms)[::-1][:kp])
    s = w[:, keep]
    gram = s @ s.conj().T
    eigs, vecs = np.linalg.eigh(gram)
    if eigs[0] < 1e-8:
        g = fallback_rng.standard_normal((kp, r, 2))
        return a @ haar_qr(g[..., 0] + 1j * g[..., 1]).conj().T
    t = (vecs * (1.0 / np.sqrt(eigs))) @ vecs.conj().T @ s
    return a @ t


def eof_upper_general(
    rho: DensityMatrix,
    k: int | None = None,
    budget: int = DEFAULT_EOF_BUDGET,
    seed: int = 0,
) -> MeasureValue:
    """Upper bound on the entanglement of formation by decomposition search.

    Seeded random-restart co-isometries are scored in vectorized blocks.
    Every restart that improves on all previous base scores (a record) is
    refined: two-column rotations on a compressed active set, plus the
    product-seesaw push.  The records are refined together, as one stack
    per stage, after all restarts are scored; the value is the one of
    refining each record in turn until one of them ends below 1e-9.  It
    is monotonically non-increasing in budget and is always a valid upper
    bound because every candidate is an explicit decomposition of rho.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    dim_a, dim_b = rho.dim_a, rho.dim_b
    side = rho.side
    if k is None:
        k = side * side
    eigs, vecs = np.linalg.eigh((rho.entries + rho.entries.conj().T) / 2.0)
    keep = eigs > 1e-12
    lam = eigs[keep]
    basis = vecs[:, keep]
    rank = int(lam.size)
    if k < rank:
        raise ValueError(f"k={k} is below the state rank {rank}")
    a = basis * np.sqrt(lam)
    if rank == 1:
        value = max(float(_column_entropies(a.T.reshape(1, dim_a, dim_b), dim_a, dim_b)[0]), 0.0)
        return MeasureValue(value, KIND_UPPER, "eof_upper_general")
    kp = min(k, rank + 2)
    rng = np.random.default_rng(seed)
    fallback_rng = np.random.default_rng([seed, 0x5EED])
    best_base = np.inf
    records = []
    done = 0
    while done < budget:
        m = min(SCORE_BLOCK, budget - done)
        ws = _coisometry_stream(rng, m, k, rank)
        b = np.einsum("dr,mrk->mdk", a, ws)
        cols = b.transpose(0, 2, 1).reshape(m, k, dim_a, dim_b)
        scores = np.sum(_column_entropies(cols, dim_a, dim_b), axis=-1)
        for idx in range(m):
            if scores[idx] >= best_base - 1e-12:
                continue
            best_base = float(scores[idx])
            records.append(ws[idx])
        done += m

    def score(b):
        return _objective(b, dim_a, dim_b) if _decomposition_ok(b, rho.entries) else np.inf

    # The seesaw's cost is mostly its many small SVDs, which stacking does
    # not save, and on a separable input the first record's seesaw often
    # certifies alone.  So it runs first, and the others only if needed.
    pushed = _seesaw(a, k, dim_a, dim_b, records[:1], score)
    if len(records) > 1 and not pushed[0] < 1e-9:
        pushed = np.concatenate([pushed, _seesaw(a, k, dim_a, dim_b, records[1:], score)])
    starts = np.stack([_compress_start(a, w, kp, fallback_rng) for w in records[: len(pushed)]])
    polished = [
        val if _decomposition_ok(p, rho.entries) else np.inf
        for val, p in zip(*_givens_polish(starts, dim_a, dim_b))
    ]
    best_val = np.inf
    for polished_val, pushed_val in zip(polished, pushed):
        if best_val < 1e-9:
            break
        best_val = min(best_val, polished_val, pushed_val)
    return MeasureValue(
        max(min(best_val, best_base), 0.0), KIND_UPPER, "eof_upper_general"
    )


def _decomposition_ok(b: np.ndarray, rho_entries: np.ndarray) -> bool:
    return float(np.max(np.abs(b @ b.conj().T - rho_entries))) <= 1e-8
