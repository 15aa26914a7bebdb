"""Computable entanglement quantities and certified bound surrogates.

Everything is reported in base-2 units (ebits).  Exact closed forms carry
kind="exact"; surrogates standing in for the uncomputable asymptotic
rates carry kind="lower_bound" or kind="upper_bound" so that bound
directions are never silently mixed.

The closed forms (concurrence, Bell weights, hashing, the partial-transpose
spectrum) are kernels over a stack (n, side, side) of states.  Every
measure is an entry of one table of routes (bound_routes): best checks a
list of states of any length for one shape once and stacks it block by
block, and each route that applies to the shape takes a block and its
stack and gives one value per state.  A one-state function is best on a
list of one, with the same bits as row i of a larger list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatchError, StateValidityError
from .linalg import PSD_FLOOR, DensityMatrix, blocks, partial_transpose, state_list
from .sampling import haar_qr
from .states import bell_basis

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
    if eigs[0] < PSD_FLOOR:
        raise StateValidityError(
            f"eigenvalue {eigs[0]:.3e} below clamp floor {PSD_FLOOR:.0e}"
        )
    # an eigenvalue a rounding error above 1 would push the sum below 0
    return max(_shannon(np.clip(eigs, 0.0, None)), 0.0)


def _pt_spectra(entries: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose of each state of an
    (n, side, side) stack of shape dims, (n, side)."""
    pt = partial_transpose(entries, dims)
    return np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)


def _log_negativity(spectra: np.ndarray) -> np.ndarray:
    """log2 of the trace norm of each partial transpose, from its spectrum."""
    return np.maximum(np.log2(np.abs(spectra).sum(axis=-1)), 0.0)


def log_negativity(rho: DensityMatrix) -> MeasureValue:
    """log2 of the trace norm of the partial transpose; zero iff PPT."""
    return best(*bound_routes()["log_negativity"], [rho])[0]


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y).real


def _concurrences(m: np.ndarray) -> np.ndarray:
    """Concurrence max(0, s1 - s2 - s3 - s4) of each two-qubit state of a stack (n, 4, 4).

    The s_i are the decreasing square-rooted eigenvalues of
    rho (YxY) rho* (YxY) (Wootters, PRL 80, 2245 (1998)); they are
    computed here as the singular values of sqrt(rho) (YxY) conj(sqrt(rho)),
    which is the same spectrum with far better behavior near rank deficiency.
    """
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    root = (v * np.sqrt(w.clip(0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    s = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.minimum(np.maximum(s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3], 0.0), 1.0)


def _eof_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form entanglement of formation of each two-qubit state of a stack."""
    cs = _concurrences(m).tolist()
    return np.array([binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0) for c in cs])


def eof_2x2(rho: DensityMatrix) -> MeasureValue:
    """Closed-form two-qubit entanglement of formation."""
    return best(*bound_routes()["eof_2x2"], [rho])[0]


def _bell_weights(m: np.ndarray) -> np.ndarray:
    """Bell-basis diagonal weights of each two-qubit state of a stack, (n, 4).

    The twirl keeps the Bell-diagonal part and removes off-diagonals;
    the first weight is the fidelity with the maximally entangled state.
    """
    basis = bell_basis()
    diag = np.real(np.einsum("ij,...jk,ki->...i", basis.conj().T, m, basis))
    clamped = np.where((diag < 0) & (diag >= PSD_FLOOR), 0.0, diag)
    if (clamped < 0).any():
        raise StateValidityError(f"Bell weight {clamped.min():.3e} below clamp floor")
    return clamped / clamped.sum(axis=-1, keepdims=True)


def _hashing(weights: np.ndarray) -> np.ndarray:
    """max(0, 1 - H(w)) for each row w of Bell weights: the one-way
    distillation yield of a Bell-diagonal state.  H runs one row at a
    time, as a product over all rows at once rounds differently, on the
    row sorted in descending order, which fixes the order of its sum and
    so the last bit of the yield."""
    return np.array([max(0.0, 1.0 - _shannon(w)) for w in np.sort(weights, axis=-1)[:, ::-1]])


def best(kind: str, routes, states) -> list[MeasureValue]:
    """For each of a sequence of states of one shape, the max over routes
    for a lower bound (kind KIND_LOWER), the min for an upper bound or an
    exact measure.

    The states are checked for one shape once, before any route runs,
    and taken in blocks of STACK_BLOCK.  A route is a (method, applies, fn)
    triple: applies(dims) says whether it applies to states of shape
    (dim_a, dim_b), and one route must, or DimensionMismatchError names
    the routes and the shape; fn(block, entries) takes a block and its
    (n, side, side) stack and gives one float per state.  For each state,
    a later route wins only by more than 1e-12, so routes that agree to
    rounding keep the earlier name.  Returns one MeasureValue per state.
    """
    states, dims = state_list(states)
    applying = [(method, fn) for method, applies, fn in routes if applies(dims)]
    if not applying:
        names = " or ".join(method for method, _, _ in routes)
        raise DimensionMismatchError(f"{names} does not apply to {dims[0]}x{dims[1]} states")
    sign = 1.0 if kind == KIND_LOWER else -1.0
    measured = []
    for block in blocks(states):
        entries = np.array([s.entries for s in block])
        # the worst value there is, so the first route that applies always wins
        values, methods = [-sign * np.inf] * len(block), [None] * len(block)
        for method, fn in applying:
            for i, value in enumerate(np.asarray(fn(block, entries), dtype=float).tolist()):
                if sign * (value - values[i]) > 1e-12:
                    values[i], methods[i] = value, method
        measured += [MeasureValue(value, kind, method) for value, method in zip(values, methods)]
    return measured


def bound_routes(budget: int = DEFAULT_EOF_BUDGET, seed: int = 0) -> dict:
    """Each measure's entry, (kind, routes): KIND_EXACT, KIND_LOWER or
    KIND_UPPER, and its (method, applies, fn) routes in order, as best
    takes them.  These are the measures the CLI prints.  The two searches
    read budget and seed and run state by state; ec_upper's skips two
    qubits, where ball-scan evaluates ec_upper on hundreds of states."""
    search = partial(eof_upper_general, budget=budget, seed=seed)
    qubits, beyond, always = (lambda dims: dims == (2, 2)), (lambda dims: dims != (2, 2)), (lambda dims: True)

    def searched(states, m):
        return [search(s).value for s in states]

    def log_negativities(states, m):
        return _log_negativity(_pt_spectra(m, (states[0].dim_a, states[0].dim_b)))

    lower = (
        ("ed_lower_hashing", qubits, lambda states, m: _hashing(_bell_weights(m))),
        ("ed_lower_vacuous", always, lambda states, m: [0.0] * len(states)),
    )
    upper = (
        ("ec_upper_eof_2x2", qubits, lambda states, m: _eof_2x2(m)),
        ("ec_upper_eof_search", beyond, searched),
    )
    return {
        "log_negativity": (KIND_EXACT, (("log_negativity", always, log_negativities),)),
        "eof_2x2": (KIND_EXACT, (("eof_2x2", qubits, lambda states, m: _eof_2x2(m)),)),
        "concurrence_2x2": (KIND_EXACT, (("concurrence_2x2", qubits, lambda states, m: _concurrences(m)),)),
        "von_neumann_entropy": (
            KIND_EXACT,
            (("von_neumann_entropy", always, lambda states, m: [von_neumann_entropy(e) for e in m]),),
        ),
        "ed_lower": (KIND_LOWER, lower),
        "ec_upper": (KIND_UPPER, upper),
        "eof_upper_general": (KIND_UPPER, (("eof_upper_general", always, searched),)),
    }


def bound_values(bound: str, states, budget: int = DEFAULT_EOF_BUDGET, seed: int = 0) -> np.ndarray:
    """The values best gives a sequence of states of one shape for a
    measure of bound_routes, such as "ed_lower" or "ec_upper"."""
    return np.array([m.value for m in best(*bound_routes(budget, seed)[bound], states)])


def ed_lower(rho: DensityMatrix) -> MeasureValue:
    """Certified lower bound on E_D: twirled hashing on two qubits, else a vacuous 0."""
    return best(*bound_routes()["ed_lower"], [rho])[0]


def ec_upper(
    rho: DensityMatrix,
    budget: int = DEFAULT_EOF_BUDGET,
    seed: int = 0,
) -> MeasureValue:
    """Upper bound on E_C via E_F: Wootters on two qubits, the seeded search elsewhere."""
    return best(*bound_routes(budget, seed)["ec_upper"], [rho])[0]


# ----------------------------------------------------------------------
# decomposition-search upper bound on the entanglement of formation
#
# A decomposition of rho into k unnormalized pure columns B (with
# B B^dag = rho) is parameterized as B = A T, where A is the fixed
# eigendecomposition square root and T is any r x k co-isometry
# (T T^dag = 1).  The objective
#     f(B) = sum_i [ q_i log2 q_i - sum_s sigma_is^2 log2 sigma_is^2 ]
# (q_i the column norms squared, sigma_is the column Schmidt values)
# equals the average output entanglement entropy of the ensemble.


_INV_LN2 = 1.0 / np.log(2.0)


def _columns(m):
    """Entropy term of each column, and (log2 q - log2 G) M on request.

    m holds unnormalized columns M of shape (..., dim_a, dim_b), with Gram
    matrices G = M M^dag and q = tr G.  Returns the terms
    q log2 q - tr G log2 G and a function of no arguments that returns
    (log2 q - log2 G) M, the logs taken on the support of G: the column's
    part of the gradient (Audenaert, Verstraete & De Moor, PRA 64, 052304).

    For dim_a == 2, with s1 >= s2 the eigenvalues of G and r = s2/s1, the
    term is computed as q log2(1 + r) - s2 log2 r, and s2 as det/s1, so
    that neither cancels near a product column.  On the support of G,
    log2 G = l2 + c (G - s2) with c = (l1 - l2)/(s1 - s2) (c = 0 where
    s1 = s2), so (log2 q - log2 G) M = (log2(1 + r) - log2 r + c s2) M - c G M
    with no eigendecomposition.  Larger dim_a take one eigh per call:
    the terms come from its eigenvalues, the logs from its eigenvectors.
    """
    gram = m @ np.conj(np.swapaxes(m, -1, -2))
    if m.shape[-2] == 2:
        g00, g11, g01 = gram[..., 0, 0].real, gram[..., 1, 1].real, gram[..., 0, 1]
        q = g00 + g11
        det = np.maximum(g00 * g11 - np.abs(g01) ** 2, 0.0)
        disc = np.sqrt(np.maximum(q * q - 4.0 * det, 0.0))
        s1 = (q + disc) / 2.0
        s1_or_1 = np.where(s1 > 0, s1, 1.0)
        s2 = det / s1_or_1
        r = s2 / s1_or_1
        lp = np.log1p(r) * _INV_LN2
        lr = np.log2(np.where(r > 0, r, 1.0))

        def logs():
            gap = s1 - s2
            c = -lr / np.where(gap > 0, gap, np.inf)
            return (lp - lr + c * s2)[..., None, None] * m - c[..., None, None] * (gram @ m)

        return (s1 + s2) * lp - s2 * lr, logs
    w, v = np.linalg.eigh(gram)
    w = np.maximum(w, 0.0)
    q = np.sum(w, axis=-1)
    log_w = np.log2(np.where(w > 0, w, 1.0))
    log_q = np.log2(np.where(q > 0, q, 1.0))

    def logs():
        vh = np.conj(np.swapaxes(v, -1, -2))
        return v @ ((log_q[..., None, None] - log_w[..., None]) * (vh @ m))

    return q * log_q - np.sum(w * log_w, axis=-1), logs


SCORE_BLOCK = 256
DESCENT_LIMIT = 5000
AGREEING_DESCENTS = 2


def _evaluate(a, t, dim_a, dim_b):
    """f(A T), and a function of no arguments that returns Z with
    df = 2 Re<Z, dT>: A^dag [(log2 q - log2 G) M] over the columns M of A T."""
    k = t.shape[1]
    terms, logs = _columns((a @ t).T.reshape(k, dim_a, dim_b))
    return float(np.sum(terms)), lambda: a.conj().T @ logs().reshape(k, -1).T


def _tangent(z, t):
    """Projection onto the tangent space of the co-isometries at t."""
    return z - 0.5 * (z @ t.conj().T + t @ z.conj().T) @ t


def _inverse_hessian_update(h, s, y):
    """The BFGS inverse Hessian after the step s and gradient change y.

    With rho = 1/<s, y> > 0, H+ = (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T
    (Nocedal & Wright, Numerical Optimization, eq. 6.17), written as the
    rank-2 update H - (u s^T + s u^T), u = rho H y - (rho + rho^2 <y, H y>) s / 2,
    one matmul of n x 2 by 2 x n.  h is None before the first pair, and H
    starts from <s, y>/<y, y> times the identity (eq. 6.20).
    """
    sy = s @ y
    if h is None:
        h = np.eye(s.size) * (sy / (y @ y))
    hy = h @ y
    rho = 1.0 / sy
    u = rho * hy - 0.5 * (rho + rho * rho * (y @ hy)) * s
    x = np.stack([u, s])
    return h - x.T @ x[::-1]


def _descend(a, t, dim_a, dim_b):
    """Riemannian BFGS for f(A T) over co-isometries T (T T^dag = 1).

    The direction is -H g, H one dense inverse Hessian on the 2 r k real
    coordinates of T (Huang, Gallivan & Absil, SIAM J. Optim. 25, 1660
    (2015)), updated by each step s and gradient change y of positive
    curvature <s, y>; both are projected onto the tangent space at the new
    point, and H is not transported.  A polar (SVD) retraction and
    Armijo backtracking to the minimum of the quadratic through f, its
    slope and the rejected value follow.  The first trial step is 1 along
    -H g, and twice the last accepted step along -g, the direction before
    the first update.  The descent stops at its first line search that
    does not lower f, or after DESCENT_LIMIT iterations.  Every point is
    evaluated once by _evaluate, and an accepted one takes its gradient
    from that evaluation.  Returns f and T, with f = _evaluate(A, T)[0].
    """
    f, gradient = _evaluate(a, t, dim_a, dim_b)
    g = _tangent(gradient(), t)
    h = None
    step = 1.0
    for _ in range(DESCENT_LIMIT):
        gv = g.view(float).ravel()
        d, trial = (-gv, step) if h is None else (-(h @ gv), 1.0)
        slope = 2.0 * (gv @ d)
        d = d.view(complex).reshape(t.shape)
        while True:
            u, _, vh = np.linalg.svd(t + trial * d, full_matrices=False)
            t_new = u @ vh
            f_new, gradient = _evaluate(a, t_new, dim_a, dim_b)
            if f_new <= f + 1e-4 * trial * slope or trial < 1e-15:
                break
            vertex = -slope * trial * trial / (2.0 * (f_new - f - slope * trial))
            trial = min(max(vertex, 0.1 * trial), 0.5 * trial)
        if not f_new < f:
            break
        g_new = _tangent(gradient(), t_new)
        s = _tangent(trial * d, t_new).view(float).ravel()
        y = (g_new - _tangent(g, t_new)).view(float).ravel()
        if s @ y > 0.0:
            h = _inverse_hessian_update(h, s, y)
        t, f, g = t_new, f_new, g_new
        step = 2.0 * trial
    return f, t


def _coisometry_stream(rng, count, k, r):
    """count random r x k co-isometries; draws are per-restart interleaved
    so the j-th restart sees the same numbers for any total count >= j."""
    g = rng.standard_normal((count, k, r, 2))
    return haar_qr(g[..., 0] + 1j * g[..., 1]).conj().transpose(0, 2, 1)


def _records(a, k, dim_a, dim_b, budget, seed):
    """Yield (score, co-isometry) for each seeded restart whose score
    improves on all earlier ones by more than 1e-12, in draw order.

    Each restart is a random r x k co-isometry T, r the rank of A, and its
    score is f(A T), the value of the point a descent from it starts at.

    Restarts are scored in blocks of 1, 2, 4, ... restarts, capped at
    SCORE_BLOCK, and a block only when the caller asks for a record past
    the previous block; a search that stops after its first records
    scores few restarts.  The block sizes do not change which restarts
    are drawn, as _coisometry_stream interleaves them.
    """
    rng = np.random.default_rng(seed)
    rank = a.shape[1]
    lowest = np.inf
    done, size = 0, 1
    while done < budget:
        m = min(size, budget - done)
        done, size = done + m, min(2 * size, SCORE_BLOCK)
        ws = _coisometry_stream(rng, m, k, rank)
        cols = (a @ ws).transpose(0, 2, 1).reshape(m, k, dim_a, dim_b)
        scores = np.sum(_columns(cols)[0], axis=-1)
        for score, w in zip(scores, ws):
            if score < lowest - 1e-12:
                lowest = float(score)
                yield lowest, w


def eof_upper_general(
    rho: DensityMatrix,
    budget: int = DEFAULT_EOF_BUDGET,
    seed: int = 0,
) -> MeasureValue:
    """Upper bound on the entanglement of formation by decomposition search.

    At most budget seeded random-restart co-isometries with rank + 2
    columns are scored, in vectorized blocks drawn only while descents
    still need records.  Every restart that improves on all previous
    scores (a record) is refined from there by Riemannian BFGS with a
    dense inverse Hessian, record by record.
    Refinement stops at the first descent that ends below 1e-9, or after
    AGREEING_DESCENTS descents in a row that each end within 1e-12 of the
    best earlier descent; a descent that fails the decomposition check
    breaks the row.  The value is the least of the refined records' scores
    and their descents.  The rule reads the descents alone, and a
    larger budget only appends records, so the result is monotonically
    non-increasing in budget.  It is always a valid upper bound because
    every candidate is an explicit decomposition of rho.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    dim_a, dim_b = rho.dim_a, rho.dim_b
    eigs, vecs = np.linalg.eigh((rho.entries + rho.entries.conj().T) / 2.0)
    keep = eigs > 1e-12
    lam = eigs[keep]
    basis = vecs[:, keep]
    rank = int(lam.size)
    a = basis * np.sqrt(lam)
    if rank == 1:
        value = max(float(_columns(a.T.reshape(1, dim_a, dim_b))[0][0]), 0.0)
        return MeasureValue(value, KIND_UPPER, "eof_upper_general")
    kp = rank + 2
    best_val = np.inf
    best_descent = np.inf
    agreeing = 0
    for score, w in _records(a, kp, dim_a, dim_b, budget, seed):
        best_val = min(best_val, score)
        value, t = _descend(a, w, dim_a, dim_b)
        if not _decomposition_ok(a @ t, rho.entries):
            agreeing = 0
            continue
        best_val = min(best_val, value)
        if value < 1e-9:
            break
        agreeing = agreeing + 1 if abs(value - best_descent) <= 1e-12 else 0
        best_descent = min(best_descent, value)
        if agreeing >= AGREEING_DESCENTS:
            break
    return MeasureValue(max(best_val, 0.0), KIND_UPPER, "eof_upper_general")


def _decomposition_ok(b: np.ndarray, rho_entries: np.ndarray) -> bool:
    return float(np.max(np.abs(b @ b.conj().T - rho_entries))) <= 1e-8
