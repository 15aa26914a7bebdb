"""Finite-copy truncated-binomial permutation mixtures.

Mixing n copies drawn independently from {rho with weight 1-p, sigma
with weight p} and keeping only draw counts l inside a window around
n*p yields the state Pi built here.  The discarded binomial tail mass
t bounds the trace distance between Pi and the n-fold power of the
mixed state (1-p) rho + p sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from .linalg import (
    DEFAULT_SIZE_CAP,
    DensityMatrix,
    kron_ab,
    mix,
    tensor_power,
    trace_distance,
)


@dataclass(frozen=True)
class MixtureSpec:
    """Inputs of the truncated mixture: states, weight, copies and window."""

    rho: DensityMatrix
    sigma: DensityMatrix
    p: float
    n: int
    window: tuple[int, int]

    def __post_init__(self) -> None:
        if (self.rho.dim_a, self.rho.dim_b) != (self.sigma.dim_a, self.sigma.dim_b):
            raise DimensionMismatchError("rho and sigma must share dimensions")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        lo, hi = self.window
        if lo > hi:
            raise EmptyWindowError(f"window [{lo}, {hi}] contains no integers")
        if lo < 0 or hi > self.n:
            raise ValueError(f"window [{lo}, {hi}] must lie within [0, {self.n}]")


@dataclass(frozen=True)
class TruncatedMixture:
    pi: DensityMatrix
    tail_mass: float
    window: tuple[int, int]
    rho_copies_max: int
    sigma_copies_max: int


@dataclass(frozen=True)
class MixingReport:
    trace_distance: float
    tail_mass: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class TailScanRow:
    n: int
    window_lo: int
    window_hi: int
    tail_mass: float
    hoeffding_bound: float


def _binom_pmf(ls: np.ndarray, n: int, p: float) -> np.ndarray:
    """Binomial weights via log-space accumulation; exact at p = 0 and 1."""
    ls = np.asarray(ls, dtype=float)
    logs = (
        gammaln(n + 1)
        - gammaln(ls + 1)
        - gammaln(n - ls + 1)
        + xlogy(ls, p)
        + xlog1py(n - ls, -p)
    )
    return np.exp(logs)


def _tail_mass(n: int, p: float, lo: int, hi: int) -> float:
    """Binomial(n, p) mass outside [lo, hi], summed from the outside terms.

    Summing the outside terms directly stays accurate when the tail is
    far below the rounding floor of 1 - (inside sum).
    """
    outside = np.concatenate([np.arange(0, lo), np.arange(hi + 1, n + 1)])
    return min(float(np.sum(_binom_pmf(outside, n, p))), 1.0)


def binomial_window(
    n: int, p: float, half_width: float | None = None
) -> tuple[tuple[int, int], float]:
    """Window [max(0, ceil(np-w)), min(n, floor(np+w))] and its tail mass.

    The default half-width n^(2/3) makes the window total at desk-scale
    n, so nontrivial tails require narrowing it explicitly.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    w = float(n) ** (2.0 / 3.0) if half_width is None else float(half_width)
    if w < 0:
        raise ValueError("half_width must be non-negative")
    lo = max(0, int(np.ceil(n * p - w)))
    hi = min(n, int(np.floor(n * p + w)))
    if lo > hi:
        raise EmptyWindowError(
            f"window [{lo}, {hi}] for n={n}, p={p}, half_width={w} is empty"
        )
    return (lo, hi), _tail_mass(n, p, lo, hi)


def build_truncated_mixture(
    spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP
) -> TruncatedMixture:
    """Pi = sum over window of Binomial(n, p)(l) * block(l) / (1 - tail).

    block(l) averages the C(n, l) placements of l factors sigma among n
    copies.  The weighted sums S_m(l) = Binomial(m, p)(l) * block_m(l)
    obey S_m(l) = S_{m-1}(l) x (1-p) rho + S_{m-1}(l-1) x p sigma, so Pi
    is built copy by copy, keeping only the l that can still reach the
    window.  The last copy closes the window sum with two krons.
    """
    n, p = spec.n, spec.p
    lo, hi = spec.window
    side = spec.rho.side**n
    if side > cap:
        raise SizeCapError(side, cap)
    kept = float(np.sum(_binom_pmf(np.arange(lo, hi + 1), n, p)))
    if kept <= 0.0:
        raise ValueError("window carries no probability mass (tail mass 1)")
    dims = (spec.rho.dim_a, spec.rho.dim_b)
    factors = ((0, (1.0 - p) * spec.rho.entries), (1, p * spec.sigma.entries))
    blocks = {0: np.ones((1, 1), dtype=complex)}
    for m in range(1, n):
        prev = (dims[0] ** (m - 1), dims[1] ** (m - 1))
        blocks = {
            l: sum(
                kron_ab(blocks[l - shift], prev, factor, dims)
                for shift, factor in factors
                if l - shift in blocks
            )
            for l in range(max(0, lo - (n - m)), min(m, hi) + 1)
        }
    prev = (dims[0] ** (n - 1), dims[1] ** (n - 1))
    acc = np.zeros((side, side), dtype=complex)
    for shift, factor in factors:
        window = [blocks[l] for l in range(lo - shift, hi - shift + 1) if l in blocks]
        if window:
            acc += kron_ab(sum(window), prev, factor, dims)
    acc /= kept
    pi = DensityMatrix(dims[0] ** n, dims[1] ** n, acc)
    return TruncatedMixture(
        pi=pi,
        tail_mass=_tail_mass(n, p, lo, hi),
        window=(lo, hi),
        rho_copies_max=n - lo,
        sigma_copies_max=hi,
    )


def verify_mixing_bound(
    spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP, tol: float = 1e-9
) -> MixingReport:
    """Check T(((1-p)rho + p sigma)^(x n), Pi) <= tail_mass + tol.

    The tail bound is stated against T, which already includes the 1/2
    of the trace-norm convention.
    """
    truncated = build_truncated_mixture(spec, cap=cap)
    reference = tensor_power(mix(spec.rho, spec.sigma, spec.p), spec.n, cap=cap)
    t = trace_distance(reference, truncated.pi)
    bound = truncated.tail_mass + tol
    return MixingReport(
        trace_distance=t,
        tail_mass=truncated.tail_mass,
        bound=bound,
        passed=t <= bound,
    )


def tail_mass_scan(
    p: float, n_list, half_width: float | None = None
) -> list[TailScanRow]:
    """Scalar-only tail masses with the matching Hoeffding ceilings."""
    rows = []
    for n in n_list:
        n = int(n)
        (lo, hi), tail = binomial_window(n, p, half_width)
        w = float(n) ** (2.0 / 3.0) if half_width is None else float(half_width)
        hoeffding = 2.0 * float(np.exp(-2.0 * w * w / n))
        rows.append(TailScanRow(n, lo, hi, tail, hoeffding))
    return rows
