"""Finite-copy truncated-binomial permutation mixtures.

Mixing n copies drawn independently from {rho with weight 1-p, sigma
with weight p} and keeping only draw counts l inside a window around
n*p yields the state Pi built here.  The discarded binomial tail mass
t bounds the trace distance between Pi and the n-fold power of the
mixed state (1-p) rho + p sigma.
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

# rows per slab when a side x side array is filled in pieces: 32 rows of
# side 4096 are 2 MiB, against 256 MiB for the whole array
SLAB_ROWS = 32


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


def _kron_row_slabs(a: np.ndarray, b: np.ndarray):
    """Yield (rows, np.kron(a[i:j], b)), the row slabs of np.kron(a, b).

    Each entry of a Kronecker product is one product a[i, k] * b[r, l],
    so a slab equals those rows of the whole product bit for bit.  A
    slab has SLAB_ROWS rows, or b's row count if that is larger.
    """
    step = max(1, SLAB_ROWS // b.shape[0])
    for i in range(0, a.shape[0], step):
        slab = np.kron(a[i : i + step], b)
        start = i * b.shape[0]
        yield slice(start, start + slab.shape[0]), slab


def _mixture_in_copy_order(spec: MixtureSpec, cap: int) -> np.ndarray:
    """Pi as a writable array in copy order, |a1 b1 a2 b2 ...>.

    The weighted sums S_m(l) = Binomial(m, p)(l) * block_m(l) obey
    S_m(l) = S_{m-1}(l) x (1-p) rho + S_{m-1}(l-1) x p sigma, so Pi is
    built copy by copy, keeping only the l that can still reach the
    window.  The last copy closes the window sum with two krons, each
    added into the zeroed side x side result one row slab at a time, so
    no second side x side array is made.  Raises SizeCapError before any
    side x side allocation.
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
    factors = ((0, (1.0 - p) * spec.rho.entries), (1, p * spec.sigma.entries))
    blocks = {0: np.ones((1, 1), dtype=complex)}
    for m in range(1, n):
        blocks = {
            l: sum(
                np.kron(blocks[l - shift], factor)
                for shift, factor in factors
                if l - shift in blocks
            )
            for l in range(max(0, lo - (n - m)), min(m, hi) + 1)
        }
    acc = np.zeros((side**n, side**n), dtype=complex)
    for shift, factor in factors:
        window = [blocks[l] for l in range(lo - shift, hi - shift + 1) if l in blocks]
        if window:
            # added, not assigned: 0 + x and x differ in the sign of zero
            for rows, slab in _kron_row_slabs(sum(window), factor):
                acc[rows] += slab
    acc /= kept
    return acc


def _swap_sectors(dims: tuple[int, int], n: int) -> tuple:
    """Q, the orthogonal basis change that splits each swapped pair of copies.

    Copies 2k and 2k+1 (k < n // 2) span C^d x C^d, d = d_A d_B, which
    splits into the d(d+1)/2 symmetric vectors |ii> and
    (|ij> + |ji>)/sqrt 2 and the d(d-1)/2 antisymmetric ones
    (|ij> - |ji>)/sqrt 2, for i < j; an unpaired last copy keeps its
    basis.  Q, in CSR, is the Kronecker product of these one-pair changes
    and an identity for the unpaired copy: its columns are in copy
    order, |a1 b1 a2 b2 ...>, and its rows run sector by sector, where a
    sector picks the symmetric or the antisymmetric part of every pair.
    A row's terms run by increasing column.  Returns the sector sizes, Q.
    """
    from scipy import sparse  # where it is needed, as in _binom_logpmf

    d = dims[0] * dims[1]
    i, j = np.triu_indices(d)
    ia, ja = np.triu_indices(d, 1)
    h = math.sqrt(0.5)
    # rows of one pair: symmetric, then antisymmetric
    pair_src = np.array([np.r_[i * d + j, ia * d + ja], np.r_[j * d + i, ja * d + ia]])
    pair_coef = np.array(
        [
            np.r_[np.where(i == j, 1.0, h), np.full(ia.size, h)],
            np.r_[np.where(i == j, 0.0, h), np.full(ia.size, -h)],
        ]
    )
    # the second term of |ii>, of coefficient 0, is summed into its first
    rows = np.tile(np.arange(d * d), 2)
    pair = sparse.csr_matrix((pair_coef.ravel(), (rows, pair_src.ravel())), shape=(d * d,) * 2)
    pair_half = (np.arange(d * d) >= i.size).astype(int)
    q, sector = sparse.identity(1, format="csr"), np.zeros(1, dtype=int)
    for _ in range(n // 2):
        q = sparse.kron(q, pair, format="csr")
        sector = (2 * sector[:, None] + pair_half).ravel()
    if n % 2:
        q, sector = sparse.kron(q, sparse.identity(d), format="csr"), np.repeat(sector, d)
    return np.bincount(sector), q[np.argsort(sector, kind="stable")]


def _swap_sector_distance(diff: np.ndarray, dims: tuple[int, int], n: int) -> float:
    """Upper bound on tr|diff| / 2 from the blocks of B = Q diff Q^T.

    diff is in copy order, the order of Q's columns.

    A diff that commutes with the disjoint copy swaps is block-diagonal
    in the sectors of _swap_sectors.  Pinching alone could only lower
    the trace norm, so the part of B off the sector blocks enters as
    sqrt(N) times its Frobenius norm, N the side: then
    T = (sum of block trace norms + sqrt(N) ||off||_F) / 2 is never below
    tr|diff| / 2, and for a copy-symmetric diff the off part is rounding.

    Q is applied by two sparse products into one band of a sector's rows
    of B, filled SLAB_ROWS rows at a time: those rows of Q times diff,
    then that slab times Q^T.  Each entry sums its terms in the order Q's
    row stores them, as the whole band's products would.  The band,
    sector size x side, is the largest array beside diff.
    """
    sizes, q = _swap_sectors(dims, n)
    norms, off = 0.0, 0.0
    start = 0
    for size in sizes:
        rows = slice(start, start + size)
        band = np.empty((size, diff.shape[1]), dtype=complex)
        for i in range(0, size, SLAB_ROWS):
            slab = q[start + i : start + min(i + SLAB_ROWS, size)] @ diff
            band[i : i + SLAB_ROWS] = (q @ slab.T).T
        norms += trace_norm(band[:, rows])
        band[:, rows] = 0.0
        off += float(np.vdot(band, band).real)
        start += size
    return 0.5 * (norms + math.sqrt(diff.shape[0] * off))


def verify_mixing_bound(
    spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP, tol: float = CERTIFICATION_TOL
) -> MixingReport:
    """Check T(((1-p)rho + p sigma)^(x n), Pi) <= tail_mass + tol.

    The tail bound is stated against T, which already includes the 1/2
    of the trace-norm convention.  T is taken block by block over the
    copy-swap sectors (_swap_sector_distance): an upper bound on the
    trace distance, equal to it up to rounding when Pi is copy-symmetric,
    and capped at 1, the largest distance between two states.

    Pi and the power stay in copy order, the order of the sector
    indices, so neither is regrouped.  The power is its own kron chain
    of the mixed state, independent of the recursion that builds Pi.
    Its last kron is made one row slab at a time and subtracted into
    Pi's array, so the difference overwrites Pi and the power is never
    whole: the one side x side array is the difference.
    """
    diff = _mixture_in_copy_order(spec, cap)
    mixed = mix(spec.rho, spec.sigma, spec.p).entries
    # the power of all but the last copy is 1/(d_A d_B)^2 of the side^2; only
    # the generator holds it, so it is freed once the slabs are spent
    slabs = _kron_row_slabs(reduce(np.kron, [mixed] * (spec.n - 1), np.ones((1, 1))), mixed)
    for rows, slab in slabs:
        np.subtract(slab, diff[rows], out=diff[rows])
    t = min(_swap_sector_distance(diff, (spec.rho.dim_a, spec.rho.dim_b), spec.n), 1.0)
    tail_mass = _tail_mass(spec.n, spec.p, *spec.window)
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
