"""Helpers that only the tests use: channels, tensor products, named
states, a non-raising validation report, a conversion-rate record and
the serial reference of the EoF decomposition search.

They build on entbounds and are not part of its API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from entbounds.errors import EntboundsError, SizeCapError
from entbounds.linalg import (
    DEFAULT_SIZE_CAP,
    HERMITICITY_TOL,
    PSD_FLOOR,
    TRACE_TOL,
    DensityMatrix,
    PureState,
    ValidationReport,
    kron_ab,
)
from entbounds.measures import (
    _PHASES,
    KIND_LOWER,
    MeasureValue,
    _coisometry_stream,
    _column_entropies,
    _compress_start,
    _decomposition_ok,
    _objective,
    ec_upper,
    ed_lower,
)
from entbounds.sampling import ensure_rng, random_isometry, random_unitary
from entbounds.states import product_state


def tensor(a: DensityMatrix, b: DensityMatrix, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    """Tensor product with A parties grouped together and B parties likewise."""
    side = a.side * b.side
    if side > cap:
        raise SizeCapError(side, cap)
    entries = kron_ab(a.entries, (a.dim_a, a.dim_b), b.entries, (b.dim_a, b.dim_b))
    return DensityMatrix(a.dim_a * b.dim_a, a.dim_b * b.dim_b, entries)


def apply_one_sided_channel(
    rho: DensityMatrix, kraus_ops: list[np.ndarray], party: str = "A"
) -> DensityMatrix:
    """Apply sum_i (K_i x 1) rho (K_i x 1)^dag (or the B-sided mirror)."""
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    out = np.zeros_like(rho.entries)
    for k in kraus_ops:
        k = np.asarray(k, dtype=complex)
        if party == "A":
            big = np.kron(k, np.eye(rho.dim_b))
        else:
            big = np.kron(np.eye(rho.dim_a), k)
        out = out + big @ rho.entries @ big.conj().T
    return DensityMatrix(rho.dim_a, rho.dim_b, out)


def validate(rho: DensityMatrix) -> ValidationReport:
    """Full diagnostic pass; never raises."""
    entries = rho.entries
    herm = float(np.max(np.abs(entries - entries.conj().T)))
    trace_defect = float(abs(entries.trace() - 1.0))
    sym = (entries + entries.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    passed = (
        herm <= HERMITICITY_TOL
        and trace_defect <= TRACE_TOL
        and min_eig >= PSD_FLOOR
    )
    return ValidationReport(herm, trace_defect, min_eig, passed)


def random_kraus_set(dim: int, count: int, seed=None) -> list[np.ndarray]:
    """Kraus operators of a random channel, via a Stinespring isometry."""
    v = random_isometry(dim * count, dim, seed)
    return [v[i * dim : (i + 1) * dim, :] for i in range(count)]


def random_local_unitary_conjugate(rho: DensityMatrix, seed=None) -> DensityMatrix:
    """Conjugate by a product unitary u_A x u_B."""
    rng = ensure_rng(seed)
    ua = random_unitary(rho.dim_a, rng)
    ub = random_unitary(rho.dim_b, rng)
    u = np.kron(ua, ub)
    return DensityMatrix(rho.dim_a, rho.dim_b, u @ rho.entries @ u.conj().T)


def max_entangled(dim: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a dim x dim system."""
    amps = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        amps[i * dim + i] = 1.0
    return PureState(dim, dim, amps / np.sqrt(dim))


def separable_mixture(components) -> DensityMatrix:
    """Convex mixture of product projectors.

    components: iterable of (weight, vec_a, vec_b); weights are
    renormalized to sum to one.
    """
    items = [(float(w), np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
             for w, a, b in components]
    if not items:
        raise ValueError("at least one component required")
    total = sum(w for w, _, _ in items)
    if total <= 0:
        raise ValueError("weights must have positive sum")
    dim_a = len(items[0][1])
    dim_b = len(items[0][2])
    out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w, a, b in items:
        amps = product_state(a, b).amplitudes
        out += (w / total) * np.outer(amps, amps.conj())
    return DensityMatrix(dim_a, dim_b, out)


class UndefinedRateError(EntboundsError):
    """A conversion rate is requested where the certified bounds are vacuous."""


@dataclass(frozen=True)
class ConversionRate:
    rate: float
    numerator: MeasureValue
    denominator: MeasureValue
    kind: str


def conversion_rate(
    rho: DensityMatrix, sigma: DensityMatrix, budget: int = 2000, seed: int = 0
) -> ConversionRate:
    """Lower bound on copies of sigma reachable per copy of rho.

    Distill rho, then dilute into sigma: the ratio ed_lower(rho) over
    ec_upper(sigma) survives as a rate lower bound.  Vacuous bounds on
    either side leave the ratio undefined.
    """
    num = ed_lower(rho)
    den = ec_upper(sigma, budget=budget, seed=seed)
    if num.value <= 0.0:
        raise UndefinedRateError("distillable lower bound on rho is vacuous (0)")
    if den.value <= 0.0:
        raise UndefinedRateError("cost upper bound on sigma is 0; rate diverges")
    return ConversionRate(
        rate=num.value / den.value, numerator=num, denominator=den, kind=KIND_LOWER
    )


# ----------------------------------------------------------------------
# serial reference for the EoF decomposition search
#
# The search as it ran before its refinement was stacked: every restart
# that sets a record is compressed, polished and seesawed on its own,
# inline in the scoring loop.  `eof_upper_general` must report the same
# float for the same arguments.


def _serial_pair_eval(u, v, thetas, phis, dim_a, dim_b):
    c = np.cos(thetas)
    s = np.sin(thetas) * np.exp(1j * phis)
    u2 = c[..., None] * u + s[..., None] * v
    v2 = -np.conj(s)[..., None] * u + c[..., None] * v
    shape = u2.shape[:-1]
    return _column_entropies(
        u2.reshape(shape + (dim_a, dim_b)), dim_a, dim_b
    ) + _column_entropies(v2.reshape(shape + (dim_a, dim_b)), dim_a, dim_b)


def _serial_pair_move(u, v, dim_a, dim_b, f0):
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 9)
    tg, pg = np.meshgrid(thetas, _PHASES)
    vals = _serial_pair_eval(u, v, tg, pg, dim_a, dim_b)
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
            v3 = _serial_pair_eval(u, v, ts, ps, dim_a, dim_b)
            den = v3[0] - 2.0 * v3[1] + v3[2]
            if den > 1e-18:
                step = float(np.clip(0.5 * h * (v3[0] - v3[2]) / den, -h, h))
            else:
                step = 0.0
            cand_t = th + step if mode == 0 else th
            cand_p = ph if mode == 0 else ph + step
            cv = float(
                _serial_pair_eval(
                    u, v, np.array([cand_t]), np.array([cand_p]), dim_a, dim_b
                )[0]
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


def _serial_givens_polish(b, dim_a, dim_b, max_sweeps=40, sweep_tol=1e-10):
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
            _, u2, v2 = _serial_pair_move(b[:, i], b[:, j], dim_a, dim_b, f0)
            if u2 is not None:
                b[:, i] = u2
                b[:, j] = v2
                col[i] = float(_column_entropies(u2.reshape(dim_a, dim_b), dim_a, dim_b))
                col[j] = float(_column_entropies(v2.reshape(dim_a, dim_b), dim_a, dim_b))
                total = total - f0 + col[i] + col[j]
        if start - total < sweep_tol:
            break
    return total, b


def _serial_rank1_truncate(cols):
    u, s, vh = np.linalg.svd(cols)
    return s[:, 0][:, None, None] * (u[:, :, :1] @ vh[:, :1, :])


def _serial_seesaw(a, k, dim_a, dim_b, w0, max_iters=4000, dist_tol=1e-15):
    w = w0
    prev = np.inf
    for it in range(max_iters):
        b = a @ w
        cols = b.T.reshape(k, dim_a, dim_b)
        targets = _serial_rank1_truncate(cols)
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


def serial_eof_upper_general(
    rho: DensityMatrix, k: int | None = None, budget: int = 2000, seed: int = 0
) -> float:
    """The EoF search value with each record refined inline and alone."""
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
        return max(
            float(_column_entropies(a.T.reshape(1, dim_a, dim_b), dim_a, dim_b)[0]), 0.0
        )
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
            val, polished = _serial_givens_polish(start, dim_a, dim_b)
            if _decomposition_ok(polished, rho.entries):
                best_val = min(best_val, val)
            pushed = _serial_seesaw(a, k, dim_a, dim_b, ws[idx])
            if _decomposition_ok(pushed, rho.entries):
                best_val = min(best_val, _objective(pushed, dim_a, dim_b))
        done += m
    return max(min(best_val, best_base), 0.0)
