"""Helpers that only the tests use: channels, tensor products, named
states, a non-raising validation report and a conversion-rate record.

They build on the public entbounds API and are not part of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entbounds.errors import SizeCapError, UndefinedRateError
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
from entbounds.measures import KIND_LOWER, MeasureValue, ec_upper, ed_lower
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
