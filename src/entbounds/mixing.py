"""Finite-copy truncated-binomial permutation mixtures.

Mixing n copies drawn independently from {rho with weight 1-p, sigma
with weight p} and keeping only draw counts l inside a window around
n*p yields a state Pi.  The discarded binomial tail mass t bounds the
trace distance between Pi and the n-fold power of the mixed state
(1-p) rho + p sigma; verify_mixing_bound checks that bound on the
copy-swap blocks of the two operators, never forming either whole.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from .linalg import CERTIFICATION_TOL, DEFAULT_SIZE_CAP, DensityMatrix, mix, trace_norm


# longest binomial reach summed, 32 MiB per float64 array: n up to about
# 1.1e10 at p = 1/2 and 4.5e10 at p near 0 or 1, where float(n) is exact
MAX_REACH_TERMS = 2**22


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
    log10_tail_mass: float | None = None  # set where tail or bound underflows


def _binom_reach(n: int, p: float) -> np.ndarray:
    """Indices whose Binomial(n, p) term can be nonzero in float64.

    Hoeffding puts each term farther than sqrt(L n / 2) from n p below
    e^-L, and L = 783 is 38 nats under the smallest subnormal double,
    e^-744.4: a margin far beyond the rounding error of _binom_logpmf.
    A reach longer than MAX_REACH_TERMS raises ValueError before any
    array is allocated.
    """
    t = math.sqrt(783.0 * n / 2.0)
    lo, hi = max(0, math.floor(n * p - t)), min(n, math.ceil(n * p + t))
    if hi - lo >= MAX_REACH_TERMS:
        raise ValueError(
            f"copy count {n} needs {hi - lo + 1} binomial terms, "
            f"over the limit of {MAX_REACH_TERMS}"
        )
    return np.arange(lo, hi + 1)


def _binom_logpmf(ls, n: int, p: float) -> np.ndarray:
    """Log binomial weights; their exp is exact at p = 0 and 1."""
    # The special functions are imported where they are called, not at
    # module level: their package loads numpy.f2py, numpy.testing and
    # numpy.ma and doubles the CLI's start-up, while only the binomial
    # tails and concentration need them.
    from scipy.special import gammaln, xlog1py, xlogy

    ls = np.asarray(ls, dtype=float)
    return (
        gammaln(n + 1)
        - gammaln(ls + 1)
        - gammaln(n - ls + 1)
        + xlogy(ls, p)
        + xlog1py(n - ls, -p)
    )


def _tail_mass(n: int, p: float, lo: int, hi: int) -> float:
    """Binomial(n, p) mass outside [lo, hi], summed from the outside terms.

    Summing the outside terms directly stays accurate when the tail is
    far below the rounding floor of 1 - (inside sum).  Only terms in the
    reach can be nonzero, so time and memory are O(sqrt(n)).
    """
    ks = _binom_reach(n, p)
    outside = ks[(ks < lo) | (ks > hi)]
    return min(float(np.sum(np.exp(_binom_logpmf(outside, n, p)))), 1.0)


def _log10_tail(n: int, p: float, lo: int, hi: int) -> float:
    """log10 of the Binomial(n, p) mass outside [lo, hi], for 0 < p < 1.

    The log-pmf is concave, so past a window edge whose term ratio is r
    the terms after the first m sum to at most r^m/(1-r) times the edge
    term.  Each side sums the m terms that make that at most 2^-53.
    """
    from scipy.special import logsumexp

    sides = []
    for edge, step in ((lo - 1, -1), (hi + 1, 1)):
        if 0 <= edge <= n:
            first, second = _binom_logpmf([edge, edge + step], n, p)
            m = (53 * math.log(2) - math.log1p(-math.exp(second - first))) / (first - second)
            stop = edge + step * max(math.ceil(m), 1)
            sides.append(np.arange(edge, min(max(stop, -1), n + 1), step))
    return float(logsumexp(_binom_logpmf(np.concatenate(sides), n, p))) / math.log(10)


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


def _pair_isometries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric and antisymmetric halves of one pair of copies.

    A pair of copies spans C^d x C^d, d = d_A d_B, which splits into the
    d(d+1)/2 symmetric vectors |ii> and (|ij> + |ji>)/sqrt 2 and the
    d(d-1)/2 antisymmetric ones (|ij> - |ji>)/sqrt 2, for i < j.  Each
    half is a real isometry whose rows are its vectors in the pair basis
    |ij>, at i d + j.  At d = 1 the antisymmetric half has no rows.
    """
    h = math.sqrt(0.5)
    halves = []
    for offset, sign in ((0, 1.0), (1, -1.0)):
        i, j = np.triu_indices(d, offset)
        rows = np.arange(i.size)
        half = np.zeros((i.size, d * d))
        half[rows, i * d + j] = np.where(i == j, 1.0, h)
        half[rows, j * d + i] = np.where(i == j, 1.0, sign * h)
        halves.append(half)
    return halves[0], halves[1]


def _pair_terms(a: np.ndarray, b: np.ndarray, mixed: np.ndarray) -> np.ndarray:
    """What one pair of copies contributes: a x a, a x b + b x a and b x b
    to Pi for 0, 1 and 2 sigma draws, and mixed x mixed to the power.
    Each term commutes with the swap of the two copies."""
    return np.array(
        [np.kron(a, a), np.kron(a, b) + np.kron(b, a), np.kron(b, b), np.kron(mixed, mixed)]
    )


def _window_sum(sites, window: tuple[int, int]) -> np.ndarray:
    """Sum of the krons of the sites' terms over the counts in the window.

    A site is a pair of copies, with terms for 0, 1 and 2 sigma draws,
    or one copy, with terms for 0 and 1.  The partial sums by count obey
    S_k(l) = sum_s S_{k-1}(l - s) x term_s, and only the l that can
    still reach the window are kept.  The last site closes the window
    sum with one kron per term.
    """
    lo, hi = window
    left = sum(len(site) - 1 for site in sites)  # copies still to draw
    blocks = {0: np.ones((1, 1))}
    for site in sites[:-1]:
        left -= len(site) - 1
        blocks = {
            l: sum(np.kron(blocks[l - s], term) for s, term in enumerate(site) if l - s in blocks)
            for l in range(max(0, lo - left), min(max(blocks) + len(site) - 1, hi) + 1)
        }
    acc = 0.0
    for s, term in enumerate(sites[-1]):
        window_blocks = [blocks[l] for l in range(lo - s, hi - s + 1) if l in blocks]
        if window_blocks:
            acc += np.kron(sum(window_blocks), term)
    return acc


def verify_mixing_bound(
    spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP, tol: float = CERTIFICATION_TOL
) -> MixingReport:
    """Check T(((1-p)rho + p sigma)^(x n), Pi) <= tail_mass + tol.

    The tail bound is stated against T, which already includes the 1/2
    of the trace-norm convention.  T is capped at 1, the largest
    distance between two states.

    Both operators commute with the swap of each pair of copies, so they
    are block-diagonal in the sectors that pick the symmetric or the
    antisymmetric half (_pair_isometries) of each of the K = n // 2
    pairs; an unpaired last copy keeps its basis.  Each term of a pair
    (_pair_terms, with a = (1-p) rho, b = p sigma and m the mixed state)
    has a block on each half: that half's isometry V times the term
    times V^T.  Pi's block on a sector is the window sum (_window_sum)
    of these pair blocks, and the power's block is its own kron chain of
    the m x m pair blocks, independent of Pi's recursion.  Permuting
    the pairs commutes with both operators and carries a sector onto any
    other with as many antisymmetric pairs j, so
    T = sum_j C(K, j) tr|X_j| / 2 over one block X_j per j: K + 1
    eigensolves, the largest on the all-symmetric block.  Raises
    SizeCapError when side^n exceeds cap, before anything is built.
    """
    n, p = spec.n, spec.p
    lo, hi = spec.window
    side = spec.rho.side
    # for side >= 2, side^n > cap iff this is, without forming side^n for a huge n
    if side ** min(n, cap.bit_length()) > cap:
        raise SizeCapError(f"{side}^{n}" if n > 1 else side, cap)
    kept = float(np.sum(np.exp(_binom_logpmf(np.arange(lo, hi + 1), n, p))))
    if kept <= 0.0:
        raise ValueError("window carries no probability mass (tail mass 1)")
    a, b = (1.0 - p) * spec.rho.entries, p * spec.sigma.entries
    mixed = mix(spec.rho, spec.sigma, p).entries
    terms = _pair_terms(a, b, mixed)
    halves = [v @ terms @ v.T for v in _pair_isometries(spec.rho.dim_a * spec.rho.dim_b)]
    k, last = divmod(n, 2)
    total = 0.0
    # at d = 1 the antisymmetric half is empty, and so is every class with j > 0
    for j in range(k + 1 if halves[1].size else 1):
        pairs = [halves[0]] * (k - j) + [halves[1]] * j
        x = _window_sum([pair[:3] for pair in pairs] + [(a, b)] * last, spec.window)
        x /= kept
        chain = [pair[3] for pair in pairs] + [mixed] * last
        # the power's block minus Pi's, written over Pi's: the power's block
        # is freed before the eigensolve, which then holds the only other copies
        np.subtract(reduce(np.kron, chain, np.ones((1, 1))), x, out=x)
        total += math.comb(k, j) * trace_norm(x)
    t = min(0.5 * total, 1.0)
    tail_mass = _tail_mass(n, p, lo, hi)
    bound = tail_mass + tol
    return MixingReport(
        trace_distance=t,
        tail_mass=tail_mass,
        bound=bound,
        passed=t <= bound,
    )


def tail_mass_scan(
    p: float, n_list, half_width: float | None = None
) -> list[TailScanRow]:
    """Scalar-only tail masses with the matching Hoeffding ceilings.

    Where the window leaves out positive mass, a tail or ceiling below
    the smallest normal double has lost precision or underflowed to 0;
    it reads as that double (still an upper bound) and the row carries
    log10 of the tail.
    """
    tiny = sys.float_info.min
    rows = []
    for n in n_list:
        n = int(n)
        (lo, hi), tail = binomial_window(n, p, half_width)
        w = float(n) ** (2.0 / 3.0) if half_width is None else float(half_width)
        hoeffding = 2.0 * float(np.exp(-2.0 * w * w / n))
        log10_tail = None
        if 0.0 < p < 1.0 and (lo > 0 or hi < n) and min(tail, hoeffding) < tiny:
            log10_tail = _log10_tail(n, p, lo, hi)
            tail, hoeffding = max(tail, tiny), max(hoeffding, tiny)
        rows.append(TailScanRow(n, lo, hi, tail, hoeffding, log10_tail))
    return rows
