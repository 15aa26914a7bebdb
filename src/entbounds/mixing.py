"""Finite-copy truncated-binomial permutation mixtures.

Mixing n copies drawn independently from {rho with weight 1-p, sigma
with weight p} and keeping only draw counts l inside a window around
n*p yields a state Pi.  The discarded binomial tail mass t bounds the
trace distance between Pi and the n-fold power of the mixed state
(1-p) rho + p sigma; verify_mixing_bound checks that bound on the
copy-swap blocks of the two operators, each split by the swaps of whole
pairs of copies, never forming either operator whole.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from .linalg import CERTIFICATION_TOL, DEFAULT_SIZE_CAP, DensityMatrix, _mix, trace_norm


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


def _binom_reach(n: int, p: float) -> tuple[int, int]:
    """First and last count whose Binomial(n, p) term can be nonzero in float64.

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
    return lo, hi


def _stirlerr(k: int) -> float:
    """log k! - log(sqrt(2 pi k) (k/e)^k), from Loader's series above k = 15."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    series = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
    # fewer terms suffice the larger k is
    terms = 2 if k > 500 else 3 if k > 80 else 4 if k > 35 else 5
    kk, acc = float(k) * k, 0.0
    for c in reversed(series[:terms]):
        acc = c - acc / kk
    return acc / k


def _bd0(x: float, mean: float) -> float:
    """Loader's deviance x log(x / mean) + mean - x, by its series near x = mean."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        total, term, v2, j = (x - mean) * v, 2.0 * x * v, v * v, 1
        while True:
            term *= v2
            following = total + term / (2 * j + 1)
            if following == total:
                return total
            total, j = following, j + 1
    # log x - log mean where x / mean overflows, as for a subnormal mean
    ratio = x / mean
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(x) - math.log(mean)
    return x * log_ratio + mean - x


def _binom_logpmf_at(n: int, p: float, k: int) -> float:
    """Log Binomial(n, p) weight of count k for 0 < p < 1, by Loader's saddle
    point ("Fast and Accurate Computation of Binomial Probabilities", 2000)."""
    q = 1.0 - p
    if k == 0:
        return -_bd0(n, n * q) - n * p if p < 0.1 else n * math.log1p(-p)
    if k == n:
        return -_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p)
    value = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return value - 0.5 * (math.log(2 * math.pi) + math.log(k) + math.log1p(-k / n))


def _walk(start: int, value: float, steps: np.ndarray) -> np.ndarray:
    """Values of a run from one of them, the one at index start, and the
    steps between neighbours: cumulative sums outward both ways, so that
    two runs walked from the same count agree bit for bit where they meet."""
    out = np.empty(len(steps) + 1)
    out[start] = value
    np.cumsum(steps[start:], out=out[start + 1 :])
    out[start + 1 :] += value
    out[:start] = value - np.cumsum(steps[:start][::-1])[::-1]
    return out


def _mode_in(n: int, p: float, lo: int, hi: int) -> int:
    """The Binomial(n, p) mode, clamped into lo..hi."""
    return min(max(math.floor((n + 1) * p), lo), hi)


def _binom_logpmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """Log Binomial(n, p) weights of the counts lo..hi; their exp is exact
    at p = 0 and 1.

    One saddle-point value at the mode clamped into the run, then the
    log term ratios log((n - k) / (k + 1)) + log(p / q) summed outward.
    """
    if p == 0.0 or p == 1.0:
        out = np.full(hi - lo + 1, -np.inf)
        certain = 0 if p == 0.0 else n
        if lo <= certain <= hi:
            out[certain - lo] = 0.0
        return out
    ks = np.arange(lo, hi + 1, dtype=float)
    steps = n - ks[:-1]
    steps /= ks[1:]
    np.log(steps, out=steps)
    steps += math.log(p) - math.log1p(-p)
    mode = _mode_in(n, p, lo, hi)
    return _walk(mode - lo, _binom_logpmf_at(n, p, mode), steps)


def _log_factorials(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """log k! for the counts lo..hi, walked from the same count as
    _binom_logpmf(n, p, lo, hi) and anchored there by one lgamma."""
    steps = np.log(np.arange(lo + 1, hi + 1, dtype=float))
    mode = _mode_in(n, p, lo, hi)
    return _walk(mode - lo, math.lgamma(mode + 1.0), steps)


def _tail_mass(n: int, p: float, lo: int, hi: int) -> float:
    """Binomial(n, p) mass outside [lo, hi], summed from the outside terms.

    Summing the outside terms directly stays accurate when the tail is
    far below the rounding floor of 1 - (inside sum).  Only terms in the
    reach can be nonzero, so time and memory are O(sqrt(n)).
    """
    first, last = _binom_reach(n, p)
    logs = _binom_logpmf(n, p, first, last)
    outside = np.concatenate([logs[: max(lo - first, 0)], logs[max(hi + 1 - first, 0) :]])
    return min(float(np.sum(np.exp(outside))), 1.0)


def _log10_tail(n: int, p: float, lo: int, hi: int) -> float:
    """log10 of the Binomial(n, p) mass outside [lo, hi], for 0 < p < 1.

    The log-pmf is concave, so past a window edge whose term ratio is r
    the terms after the first m sum to at most r^m/(1-r) times the edge
    term.  Each side sums the m terms that make that at most 2^-53.
    """
    sides = []
    for edge, step in ((lo - 1, -1), (hi + 1, 1)):
        if not 0 <= edge <= n:
            continue
        count = 1
        if 0 <= edge + step <= n:
            # the edge term, then the next one outward
            first, second = _binom_logpmf(n, p, *sorted((edge, edge + step)))[::step]
            m = (53 * math.log(2) - math.log1p(-math.exp(second - first))) / (first - second)
            count = max(math.ceil(m), 1)
        far = min(max(edge + step * (count - 1), 0), n)
        sides.append(_binom_logpmf(n, p, *sorted((edge, far))))
    logs = np.concatenate(sides)
    top = float(np.max(logs))
    return (top + math.log(float(np.sum(np.exp(logs - top))))) / math.log(10)


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


def _swap_halves(x: np.ndarray, f: int, post: int) -> tuple[np.ndarray, np.ndarray]:
    """x's blocks on the symmetric and the antisymmetric half of two
    adjacent factors C^f x C^f, for an x that commutes with their swap.

    x acts on C^pre x C^f x C^f x C^post, or is a stack of such
    operators.  The symmetric half has the vectors |ii> and
    (|ij> + |ji>)/sqrt 2, the antisymmetric one (|ij> - |ji>)/sqrt 2,
    i < j, in np.triu_indices order, and each half keeps the pre and
    post factors around it.  As x commutes with the swap, the entry of a
    half at rows ij, columns kl is x[ij, kl] +- x[ij, lk], times sqrt 1/2
    for each of ij and kl that is an |ii>: two gathers of x's rows and
    columns by index arithmetic, O(side^2) work and no matmul.  At f = 1
    the antisymmetric half is empty.
    """
    pre = x.shape[-1] // (f * f * post)
    outer = np.arange(pre)[:, None, None] * (f * f)
    halves = []
    for offset, combine in ((0, np.add), (1, np.subtract)):
        i, j = np.triu_indices(f, offset)
        rows = ((outer + (i * f + j)[:, None]) * post + np.arange(post)).ravel()
        swapped = ((outer + (j * f + i)[:, None]) * post + np.arange(post)).ravel()
        half = x[..., rows[:, None], rows]
        combine(half, x[..., rows[:, None], swapped], out=half)
        if offset == 0:
            scale = np.repeat(np.tile(np.where(i == j, math.sqrt(0.5), 1.0), pre), post)
            half *= scale[:, None]
            half *= scale
        halves.append(half)
    return halves[0], halves[1]


def _pair_terms(a: np.ndarray, b: np.ndarray, mixed: np.ndarray) -> np.ndarray:
    """What one pair of copies contributes: a x a, a x b + b x a and b x b
    to Pi for 0, 1 and 2 sigma draws, and mixed x mixed to the power.
    Each term commutes with the swap of the two copies."""
    return np.array(
        [np.kron(a, a), np.kron(a, b) + np.kron(b, a), np.kron(b, b), np.kron(mixed, mixed)]
    )


def _window_sum(sites, window: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sum of the krons of the sites' terms over the counts in the window,
    as (left, term) pairs whose krons add up to it.

    A site is a pair of copies, with terms for 0, 1 and 2 sigma draws,
    or one copy, with terms for 0 and 1.  The partial sums by count obey
    S_k(l) = sum_s S_{k-1}(l - s) x term_s, and only the l that can
    still reach the window are kept.  The last site's terms are left
    open: each comes with the sum of the partial sums it carries into
    the window, so that the caller forms the whole block in one pass.
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
    closing = []
    for s, term in enumerate(sites[-1]):
        window_blocks = [blocks[l] for l in range(lo - s, hi - s + 1) if l in blocks]
        if window_blocks:
            closing.append((sum(window_blocks), term))
    return closing


def verify_mixing_bound(spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP) -> MixingReport:
    """Check T(((1-p)rho + p sigma)^(x n), Pi) <= tail_mass + CERTIFICATION_TOL.

    The tail bound is stated against T, which already includes the 1/2
    of the trace-norm convention.  T is capped at 1, the largest
    distance between two states.

    Both operators commute with the swap of each pair of copies, so they
    are block-diagonal in the sectors that pick the symmetric (S) or the
    antisymmetric (A) half of each of the K = n // 2 pairs; an unpaired
    last copy keeps its basis.  Each term of a pair (_pair_terms, with
    a = (1-p) rho, b = p sigma and m the mixed state) has a block on each
    half, gathered by _swap_halves.  Pi's block on a sector is the window
    sum (_window_sum) of these pair blocks, and the power's block is its
    own kron chain of the m x m pair blocks, independent of Pi's
    recursion; their difference is written in one einsum over the krons
    that close both at the last site.  Permuting the pairs commutes with
    both operators and carries a sector onto any other with as many A
    pairs j, so one block X_j per j, on S^(K-j) x A^j, stands for
    C(K, j) sectors.  X_j also commutes with the swap of two S pairs and
    with the swap of two A pairs, so the same kernel splits it by the
    swap of its first two S pairs and of its first two A pairs, where it
    has them, into at most four halves; factors are paired by kind, never
    by dimension.  T is sum_j C(K, j) sum_halves tr|half| / 2, and the
    largest eigensolve is a half of the all-S block.  Raises
    SizeCapError when side^n exceeds cap, before anything is built.
    """
    n, p = spec.n, spec.p
    lo, hi = spec.window
    side = spec.rho.side
    # for side >= 2, side^n > cap iff this is, without forming side^n for a huge n
    if side ** min(n, cap.bit_length()) > cap:
        raise SizeCapError(f"{side}^{n}" if n > 1 else side, cap)
    kept = float(np.sum(np.exp(_binom_logpmf(n, p, lo, hi))))
    if kept <= 0.0:
        raise ValueError("window carries no probability mass (tail mass 1)")
    a, b = (1.0 - p) * spec.rho.entries, p * spec.sigma.entries
    mixed = _mix(spec.rho.entries, spec.sigma.entries, p)
    d = spec.rho.dim_a * spec.rho.dim_b
    sym, anti = _swap_halves(_pair_terms(a, b, mixed), d, 1)
    sym_dim, anti_dim = len(sym[0]), len(anti[0])
    k, last = divmod(n, 2)
    total = 0.0
    # at d = 1 every state is [[1]], and so are the power and Pi: T = 0
    # exactly, with no block built
    for j in range(k + 1 if d > 1 else 0):
        pairs = [sym] * (k - j) + [anti] * j
        closing = _window_sum([pair[:3] for pair in pairs] + [(a, b)] * last, spec.window)
        chain = [pair[3] for pair in pairs] + [mixed] * last
        # the power's block minus Pi's as one sum of krons, written in one
        # pass: the power's chain split at its last site, then Pi's closing
        # pairs over -kept
        lefts = [reduce(np.kron, chain[:-1], np.ones((1, 1)))] + [-w / kept for w, _ in closing]
        rights = [chain[-1]] + [term for _, term in closing]
        x = np.einsum("sik,sjl->ijkl", np.array(lefts), np.array(rights))
        x = x.reshape(x.shape[0] * x.shape[1], -1)
        halves = [x]
        # the swap of the first two S pairs, then of the first two A pairs;
        # the factors are S^(k-j) x A^j x C^d for an unpaired copy
        if k - j >= 2:
            post = sym_dim ** (k - j - 2) * anti_dim**j * d**last
            halves = [h for block in halves for h in _swap_halves(block, sym_dim, post)]
        if j >= 2:
            post = anti_dim ** (j - 2) * d**last
            halves = [h for block in halves for h in _swap_halves(block, anti_dim, post)]
        del x
        # the swap of one-dimensional factors (A at d = 2) has an empty
        # antisymmetric half
        total += math.comb(k, j) * sum(trace_norm(h) for h in halves if h.size)
    t = min(0.5 * total, 1.0)
    tail_mass = _tail_mass(n, p, lo, hi)
    bound = tail_mass + CERTIFICATION_TOL
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
