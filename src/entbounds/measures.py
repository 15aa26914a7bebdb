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
        det = np.clip(g00 * g11 - np.abs(g01) ** 2, 0.0, None)
        disc = np.sqrt(np.clip(t * t - 4.0 * det, 0.0, None))
        s1 = (t + disc) / 2.0
        s2 = np.clip((t - disc) / 2.0, 0.0, None)
        return _xlog2x(t) - _xlog2x(s1) - _xlog2x(s2)
    gram = cols @ np.conj(np.swapaxes(cols, -1, -2))
    w = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    q = np.sum(w, axis=-1)
    return _xlog2x(q) - np.sum(_xlog2x(w), axis=-1)


def _objective(b: np.ndarray, dim_a: int, dim_b: int) -> float:
    k = b.shape[1]
    return float(np.sum(_column_entropies(b.T.reshape(k, dim_a, dim_b), dim_a, dim_b)))


_PHASES = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])


def _pair_eval(u, v, thetas, phis, dim_a, dim_b):
    c = np.cos(thetas)
    s = np.sin(thetas) * np.exp(1j * phis)
    u2 = c[..., None] * u + s[..., None] * v
    v2 = -np.conj(s)[..., None] * u + c[..., None] * v
    shape = u2.shape[:-1]
    return _column_entropies(
        u2.reshape(shape + (dim_a, dim_b)), dim_a, dim_b
    ) + _column_entropies(v2.reshape(shape + (dim_a, dim_b)), dim_a, dim_b)


def _pair_move(u, v, dim_a, dim_b, f0):
    """Best two-column rotation found on a grid plus parabolic refinement."""
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 9)
    tg, pg = np.meshgrid(thetas, _PHASES)
    vals = _pair_eval(u, v, tg, pg, dim_a, dim_b)
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    best = float(vals[idx])
    th = float(tg[idx])
    ph = float(pg[idx])
    h_t = thetas[1] - thetas[0]
    h_p = np.pi / 4
    for _ in range(2):
        for mode in (0, 1):
            h = h_t if mode == 0 else h_p
            if mode == 0:
                ts = np.array([th - h, th, th + h])
                ps = np.full(3, ph)
            else:
                ts = np.full(3, th)
                ps = np.array([ph - h, ph, ph + h])
            v3 = _pair_eval(u, v, ts, ps, dim_a, dim_b)
            den = v3[0] - 2.0 * v3[1] + v3[2]
            if den > 1e-18:
                step = float(np.clip(0.5 * h * (v3[0] - v3[2]) / den, -h, h))
            else:
                step = 0.0
            cand_t = th + step if mode == 0 else th
            cand_p = ph if mode == 0 else ph + step
            cv = float(
                _pair_eval(u, v, np.array([cand_t]), np.array([cand_p]), dim_a, dim_b)[0]
            )
            low = float(np.min(v3))
            if cv < low:
                th, ph, best = cand_t, cand_p, cv
            else:
                j = int(np.argmin(v3))
                th, ph, best = float(ts[j]), float(ps[j]), low
        h_t /= 4.0
        h_p /= 4.0
    if best < f0 - 1e-15:
        c = np.cos(th)
        s = np.sin(th) * np.exp(1j * ph)
        return best, c * u + s * v, -np.conj(s) * u + c * v
    return f0, None, None


def _givens_polish(b, dim_a, dim_b, max_sweeps=40, sweep_tol=1e-10):
    """Cyclic two-column rotations until a sweep stops paying."""
    k = b.shape[1]
    col = _column_entropies(b.T.reshape(k, dim_a, dim_b), dim_a, dim_b).copy()
    total = float(np.sum(col))
    pairs = list(combinations(range(k), 2))
    for _ in range(max_sweeps):
        start = total
        for i, j in pairs:
            f0 = float(col[i] + col[j])
            if f0 < 1e-15:
                continue
            _, u2, v2 = _pair_move(b[:, i], b[:, j], dim_a, dim_b, f0)
            if u2 is not None:
                b[:, i] = u2
                b[:, j] = v2
                col[i] = float(_column_entropies(u2.reshape(dim_a, dim_b), dim_a, dim_b))
                col[j] = float(_column_entropies(v2.reshape(dim_a, dim_b), dim_a, dim_b))
                total = total - f0 + col[i] + col[j]
        if start - total < sweep_tol:
            break
    return total, b


def _rank1_truncate(cols: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(cols)
    return s[:, 0][:, None, None] * (u[:, :, :1] @ vh[:, :1, :])


def _seesaw(a, k, dim_a, dim_b, w0, max_iters=4000, dist_tol=1e-15):
    """Alternate between decompositions B = A W and product-column targets.

    Each half-step solves its subproblem exactly (rank-1 truncation for
    the targets, an orthogonal Procrustes polar factor for W), so the
    column-to-product distance is non-increasing.  It collapses to
    machine zero exactly when a product-vector decomposition with k
    terms is reachable, which is what certifies separable inputs.
    """
    w = w0
    prev = np.inf
    for it in range(max_iters):
        b = a @ w
        cols = b.T.reshape(k, dim_a, dim_b)
        targets = _rank1_truncate(cols)
        dist = float(np.sum(np.abs(cols - targets) ** 2))
        if dist < dist_tol:
            break
        if it % 200 == 199:
            if dist > 0.999 * prev:
                break
            prev = dist
        g = targets.reshape(k, dim_a * dim_b).T
        x = a.conj().T @ g
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        w = u @ vh
    return a @ w


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

    Seeded random-restart co-isometries are scored in vectorized blocks;
    every restart that improves on all previous base scores triggers
    local refinement (two-column rotations on a compressed active set,
    plus the product-seesaw push).  The reported value is monotonically
    non-increasing in budget and is always a valid upper bound because
    every candidate is an explicit decomposition of rho.
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
    best_val = np.inf
    done = 0
    block = 256
    while done < budget:
        m = min(block, budget - done)
        ws = _coisometry_stream(rng, m, k, rank)
        b = np.einsum("dr,mrk->mdk", a, ws)
        cols = b.transpose(0, 2, 1).reshape(m, k, dim_a, dim_b)
        scores = np.sum(_column_entropies(cols, dim_a, dim_b), axis=-1)
        for idx in range(m):
            if scores[idx] >= best_base - 1e-12:
                continue
            best_base = float(scores[idx])
            if best_val < 1e-9:
                continue
            start = _compress_start(a, ws[idx], kp, fallback_rng)
            val, polished = _givens_polish(start, dim_a, dim_b)
            if _decomposition_ok(polished, rho.entries):
                best_val = min(best_val, val)
            pushed = _seesaw(a, k, dim_a, dim_b, ws[idx])
            if _decomposition_ok(pushed, rho.entries):
                best_val = min(best_val, _objective(pushed, dim_a, dim_b))
        done += m
    return MeasureValue(
        max(min(best_val, best_base), 0.0), KIND_UPPER, "eof_upper_general"
    )


def _decomposition_ok(b: np.ndarray, rho_entries: np.ndarray) -> bool:
    return float(np.max(np.abs(b @ b.conj().T - rho_entries))) <= 1e-8
