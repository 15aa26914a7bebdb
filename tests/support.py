"""Helpers that only the tests use: seeded random amplitudes, unitaries,
low-rank and separable states, unvalidated matrices, channels, tensor
products, the n-copy operators in A|B order, the dense n-copy mixture
and copy-swap basis the mixing check's blocks are tested against, named
states, the party swap, an entanglement-entropy reference, counts of
the matrices validated and of the shape checks, a non-raising validation
report, the trace distance of one pair, the one-state concurrence, Bell
twirl, hashing yield and PPT verdict, a conversion-rate record, full-range references for the binomial sums and
the invocation a report embeds.

They build on entbounds and are not part of its API.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce

import numpy as np

from entbounds import linalg
from entbounds.errors import EntboundsError, SizeCapError
from entbounds.linalg import (
    DEFAULT_SIZE_CAP,
    HERMITICITY_TOL,
    PSD_FLOOR,
    TRACE_TOL,
    DensityMatrix,
    ValidationReport,
    _distance,
    _same_dims,
)
from entbounds.measures import (
    KIND_LOWER,
    MeasureValue,
    _bell_weights,
    _hashing,
    _pt_spectra,
    best,
    bound_routes,
    ec_upper,
    ed_lower,
)
from entbounds.mixing import MixtureSpec, _binom_logpmf, _log_factorials, _tail_mass
from entbounds.protocols import LOG2, _check_distribution
from entbounds.sampling import _ginibre, haar_qr


def embedded_invocation(report: str) -> str:
    """The invocation a JSON audit or a CSV comment header carries."""
    if report.startswith("{"):
        return json.loads(report)["audit"]["invocation"]
    first = report.split("\n", 1)[0]
    if not first.startswith("# invocation: "):
        raise ValueError(f"no invocation line: {first!r}")
    return first.removeprefix("# invocation: ")


def random_isometry(rows: int, cols: int, seed=None) -> np.ndarray:
    """rows x cols matrix V with V^dag V = identity (requires rows >= cols)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return haar_qr(_ginibre(rows, cols, np.random.default_rng(seed)))


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return random_isometry(dim, dim, seed)


def random_pure_amplitudes(dim_a: int, dim_b: int, seed=None) -> np.ndarray:
    """Unit vector on C^dim_a x C^dim_b from one Ginibre column."""
    v = _ginibre(dim_a * dim_b, 1, np.random.default_rng(seed)).reshape(-1)
    return v / np.linalg.norm(v)


def product_amplitudes(vec_a, vec_b) -> np.ndarray:
    """Normalized vec_a x normalized vec_b."""
    a = np.asarray(vec_a, dtype=complex).reshape(-1)
    b = np.asarray(vec_b, dtype=complex).reshape(-1)
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


def random_product_amplitudes(dim_a: int, dim_b: int, seed=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = _ginibre(dim_a, 1, rng).reshape(-1)
    b = _ginibre(dim_b, 1, rng).reshape(-1)
    return product_amplitudes(a, b)


def random_low_rank_state(dim_a: int, dim_b: int, rank: int, seed=None) -> DensityMatrix:
    """G G^dag over its trace for a side x rank Ginibre G: the draw of
    random_density_matrix, with rank columns in place of side."""
    g = _ginibre(dim_a * dim_b, rank, np.random.default_rng(seed))
    m = g @ g.conj().T
    return DensityMatrix(dim_a, dim_b, m / m.trace())


def unchecked(dim_a: int, dim_b: int, entries) -> DensityMatrix:
    """A DensityMatrix whose entries are not validated, not even their shape.

    The package has no way past validation; oracles use this for arrays
    that are not states within the tolerances, or need not be checked.
    """
    rho = object.__new__(DensityMatrix)
    entries = np.array(entries, dtype=complex)
    entries.setflags(write=False)
    for name, value in (("dim_a", dim_a), ("dim_b", dim_b), ("entries", entries)):
        object.__setattr__(rho, name, value)
    return rho


def pure_state(dim_a: int, dim_b: int, amps) -> DensityMatrix:
    """The projector onto a unit amplitude vector."""
    amps = np.asarray(amps, dtype=complex)
    return DensityMatrix(dim_a, dim_b, np.outer(amps, amps.conj()))


def random_separable_state(
    dim_a: int, dim_b: int, seed=None, terms: int | None = None
) -> DensityMatrix:
    """Convex mixture of random product projectors (separable by construction)."""
    rng = np.random.default_rng(seed)
    if terms is None:
        terms = 2 * dim_a * dim_b
    weights = rng.dirichlet(np.ones(terms))
    side = dim_a * dim_b
    out = np.zeros((side, side), dtype=complex)
    for w in weights:
        amps = random_product_amplitudes(dim_a, dim_b, rng)
        out += w * np.outer(amps, amps.conj())
    return DensityMatrix(dim_a, dim_b, out)


def entanglement_entropy(amps, dim_a: int, dim_b: int) -> float:
    """Shannon entropy (base 2) of the squared singular values of amps as a dim_a x dim_b matrix."""
    squares = np.linalg.svd(np.reshape(amps, (dim_a, dim_b)), compute_uv=False) ** 2
    squares = squares[squares > 0]
    return float(-np.sum(squares * np.log2(squares)))


def tensor(a: DensityMatrix, b: DensityMatrix, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    """Tensor product with A parties grouped together and B parties likewise."""
    side = a.side * b.side
    if side > cap:
        raise SizeCapError(side, cap)
    dims = (a.dim_a, a.dim_b, b.dim_a, b.dim_b)
    # np.kron orders the basis |a1 b1 a2 b2>; the convention needs |a1 a2 b1 b2>
    joint = np.kron(a.entries, b.entries).reshape(dims + dims)
    entries = joint.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(side, side)
    return DensityMatrix(a.dim_a * b.dim_a, a.dim_b * b.dim_b, entries)


# The n-copy operators in A|B order, |a1 a2 ... b1 b2 ...>: oracles for the
# mixing check, which builds both operators in copy order and never regroups.


def ab_order(dims: tuple[int, int], n: int) -> np.ndarray:
    """Position of each A|B basis vector in a plain Kronecker power.

    np.kron over n copies with local dims (d_A, d_B) orders the joint
    basis copy by copy, |a1 b1 a2 b2 ...>; the bipartite convention
    needs |a1 a2 ... b1 b2 ...>.  For such a product k,
    k[np.ix_(order, order)] is the same operator in bipartite order.
    """
    shape = list(dims) * n
    # unit axes move nothing, and 33 copies of a 1x1 state would pass numpy's 64 axes
    moved = [k for k, d in enumerate(shape) if d > 1]
    axes = sorted(range(len(moved)), key=lambda i: moved[i] % 2)  # A axes, then B axes
    side = dims[0] * dims[1]
    return np.arange(side**n).reshape([shape[k] for k in moved]).transpose(axes).ravel()


def tensor_power(rho: DensityMatrix, n: int) -> DensityMatrix:
    """rho^(x n) in bipartite order, not validated again.

    Its eigenvalues are products of rho's, so it is Hermitian and PSD
    because rho is; its trace is tr(rho)^n, whose defect grows with n
    past TRACE_TOL even for a valid rho.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    order = ab_order((rho.dim_a, rho.dim_b), n)
    entries = reduce(np.kron, [rho.entries] * n)
    return unchecked(rho.dim_a**n, rho.dim_b**n, entries[np.ix_(order, order)])


@dataclass(frozen=True)
class TruncatedMixture:
    pi: DensityMatrix
    tail_mass: float


def mixture_in_copy_order(spec: MixtureSpec, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Pi as a writable array in copy order, |a1 b1 a2 b2 ...>: the dense
    oracle of the block-by-block mixing check.

    The weighted sums S_m(l) = Binomial(m, p)(l) * block_m(l) obey
    S_m(l) = S_{m-1}(l) x (1-p) rho + S_{m-1}(l-1) x p sigma, so Pi is
    built copy by copy, keeping only the l that can still reach the
    window.  The last copy closes the window sum with two krons, each
    added into the zeroed side x side result.  Raises SizeCapError
    before any side x side allocation.
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
            acc += np.kron(sum(window), factor)
    acc /= kept
    return acc


def pair_isometries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric and antisymmetric halves of one pair of copies as
    dense real isometries.

    A pair of copies spans C^d x C^d, which splits into the d(d+1)/2
    symmetric vectors |ii> and (|ij> + |ji>)/sqrt 2 and the d(d-1)/2
    antisymmetric ones (|ij> - |ji>)/sqrt 2, for i < j.  Each half's rows
    are its vectors in the pair basis |ij>, at i d + j.  At d = 1 the
    antisymmetric half has no rows.
    """
    h = np.sqrt(0.5)
    halves = []
    for offset, sign in ((0, 1.0), (1, -1.0)):
        i, j = np.triu_indices(d, offset)
        rows = np.arange(i.size)
        half = np.zeros((i.size, d * d))
        half[rows, i * d + j] = np.where(i == j, 1.0, h)
        half[rows, j * d + i] = np.where(i == j, 1.0, sign * h)
        halves.append(half)
    return halves[0], halves[1]


def copy_swap_basis(
    dims: tuple[int, int], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, the dense orthogonal change from copy order to the copy-swap
    sectors split by pair swaps, and each row's sector and half.

    Copies 2k and 2k+1 (k < n // 2) split into the rows of the symmetric
    and then the antisymmetric pair isometry; an unpaired last copy keeps
    its basis.  A sector picks one half of every pair, and its label has
    bit K - 1 - k set where pair k is antisymmetric, K = n // 2.  Within
    a sector, the swap of its first two symmetric pairs and the swap of
    its first two antisymmetric pairs commute, and the rows are their
    joint eigenvectors: a row's half has bit 1 set where it is odd under
    the first swap and bit 0 where it is odd under the second.
    """
    d = dims[0] * dims[1]
    sym, anti = pair_isometries(d)
    pair, kind = np.vstack([sym, anti]), np.r_[np.zeros(len(sym), int), np.ones(len(anti), int)]
    q, sector = np.ones((1, 1)), np.zeros(1, dtype=int)
    for _ in range(n // 2):
        q, sector = np.kron(q, pair), (2 * sector[:, None] + kind).ravel()
    if n % 2:
        q, sector = np.kron(q, np.eye(d)), np.repeat(sector, d)
    k = n // 2
    copies = np.arange(d**n).reshape((d,) * n)
    half = np.zeros(len(q), dtype=int)
    for s in np.unique(sector):
        rows = np.flatnonzero(sector == s)
        kinds = [(s >> (k - 1 - pos)) & 1 for pos in range(k)]
        # the first two S pairs and the first two A pairs of the sector
        firsts = [[pos for pos in range(k) if kinds[pos] == wanted][:2] for wanted in (0, 1)]
        if max(map(len, firsts)) < 2:
            continue
        # the S swap, with eigenvalues +-1, plus twice the A swap: 3, -1, 1
        # and -3 on the halves 0, 1, 2 and 3; a kind with fewer than two
        # pairs adds its weight, as the identity
        involutions = np.diag(np.full(rows.size, 3.0))
        for weight, first in zip((1.0, 2.0), firsts):
            if len(first) == 2:
                i, j = first
                axes = np.arange(n)
                axes[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]] = [2 * j, 2 * j + 1, 2 * i, 2 * i + 1]
                swap = copies.transpose(axes).ravel()
                involutions += weight * (q[rows][:, swap] @ q[rows].T - np.eye(rows.size))
        values, vectors = np.linalg.eigh(involutions)
        q[rows] = vectors.T @ q[rows]
        a_sign = np.sign(values)
        half[rows] = 2 * (values - 2 * a_sign < 0) + (a_sign < 0)
    return q, sector, half


def build_truncated_mixture(spec: MixtureSpec) -> TruncatedMixture:
    """Pi of the mixing check, regrouped once into bipartite order, and its tail mass.

    A nonnegative sum of products of validated states, Pi is Hermitian
    and PSD by construction, so it is not validated again.
    """
    n, dim_a, dim_b = spec.n, spec.rho.dim_a, spec.rho.dim_b
    order = ab_order((dim_a, dim_b), n)
    pi = mixture_in_copy_order(spec)[np.ix_(order, order)]
    return TruncatedMixture(
        pi=unchecked(dim_a**n, dim_b**n, pi),
        tail_mass=_tail_mass(n, spec.p, *spec.window),
    )


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


@contextmanager
def _spied(name: str, on_call):
    """Run on_call(*args) before each call of linalg's function name while
    the block runs.  The spy replaces the function in every entbounds
    module that holds it, not only in linalg."""
    original = getattr(linalg, name)
    holders = [
        module
        for key, module in list(sys.modules.items())
        if key.split(".")[0] == "entbounds" and getattr(module, name, None) is original
    ]

    def spy(*args):
        on_call(*args)
        return original(*args)

    for module in holders:
        setattr(module, name, spy)
    try:
        yield
    finally:
        for module in holders:
            setattr(module, name, original)


@contextmanager
def validation_counts():
    """Count, while the block runs, linalg._check_state's calls and the
    matrices they validate (a stack of k counts k), in a dict with the
    keys "calls" and "matrices"."""
    counts = {"calls": 0, "matrices": 0}

    def count(entries):
        counts["calls"] += 1
        counts["matrices"] += math.prod(np.shape(entries)[:-2])

    with _spied("_check_state", count):
        yield counts


@contextmanager
def shape_checks():
    """Count, while the block runs, the calls of linalg.state_list, which
    checks that a list of states has one shape; linalg.stack calls it
    too.  Yields a list whose length is the count."""
    calls = []
    with _spied("state_list", lambda states: calls.append(1)):
        yield calls


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


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """T(rho, sigma) = tr|rho - sigma| / 2, taken on the one difference
    matrix rather than on a stack as trace_distances takes it."""
    _same_dims(rho, sigma.dim_a, sigma.dim_b)
    return float(_distance(rho.entries - sigma.entries))


def concurrence_2x2(rho: DensityMatrix) -> float:
    """Two-qubit concurrence: the measure table's entry on one state."""
    return best(*bound_routes()["concurrence_2x2"], [rho])[0].value


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


def twirl_to_bell_diagonal(rho: DensityMatrix) -> BellDiagonalProbs:
    """Bell-basis diagonal weights of one two-qubit state: the one-state
    case of the package's stacked twirl."""
    return BellDiagonalProbs(_bell_weights(rho.entries[None])[0])


def hashing_yield(probs: BellDiagonalProbs) -> MeasureValue:
    """max(0, 1 - H(probs)): one-way distillation yield for Bell-diagonal states."""
    return MeasureValue(_hashing(probs.probs[None])[0], KIND_LOWER, "hashing_yield")


@dataclass(frozen=True)
class PptVerdict:
    ppt: bool
    margin: float


def is_ppt(rho: DensityMatrix) -> PptVerdict:
    """Positivity of the partial transpose, with the minimum eigenvalue as margin."""
    margin = float(_pt_spectra(rho.entries[None], (rho.dim_a, rho.dim_b))[0, 0])
    return PptVerdict(margin >= PSD_FLOOR, margin)


def random_kraus_set(dim: int, count: int, seed=None) -> list[np.ndarray]:
    """Kraus operators of a random channel, via a Stinespring isometry."""
    v = random_isometry(dim * count, dim, seed)
    return [v[i * dim : (i + 1) * dim, :] for i in range(count)]


def random_local_unitary_conjugate(rho: DensityMatrix, seed=None) -> DensityMatrix:
    """Conjugate by a product unitary u_A x u_B."""
    rng = np.random.default_rng(seed)
    ua = random_unitary(rho.dim_a, rng)
    ub = random_unitary(rho.dim_b, rng)
    u = np.kron(ua, ub)
    return DensityMatrix(rho.dim_a, rho.dim_b, u @ rho.entries @ u.conj().T)


def swap_parties(rho: DensityMatrix) -> DensityMatrix:
    """The same state with the parties exchanged: |i_A i_B> becomes
    |i_B i_A>, and the dims (dim_a, dim_b) become (dim_b, dim_a)."""
    t = rho.entries.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return DensityMatrix(rho.dim_b, rho.dim_a, t.transpose(1, 0, 3, 2).reshape(rho.side, rho.side))


def max_entangled(dim: int) -> np.ndarray:
    """Amplitudes of (1/sqrt(d)) sum_i |ii> on a dim x dim system."""
    amps = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        amps[i * dim + i] = 1.0
    return amps / np.sqrt(dim)


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
        amps = product_amplitudes(a, b)
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



# Full-range references: every binomial term over 0..n, O(n) in time and
# memory, as the package summed them before it cut the sums to the reach.
# They run the package's kernel over 0..n, which walks from the same mode
# as over the reach and so gives the same values on the counts both hold:
# the sums differ only in the terms the reach drops.  The kernel's own
# accuracy is checked against mpmath in test_mixing.


def full_range_binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) weights of the counts 0..n; exact at p = 0 and 1."""
    return np.exp(_binom_logpmf(n, p, 0, n))


def full_range_tail_mass(n: int, p: float, lo: int, hi: int) -> float:
    """Binomial(n, p) mass outside [lo, hi], summed over every outside term."""
    terms = full_range_binom_pmf(n, p)
    return min(float(np.sum(np.concatenate([terms[:lo], terms[hi + 1 :]]))), 1.0)


def full_range_concentration_yield(schmidt_squares, n: int) -> float:
    """Expected singlets per copy, each binomial expectation over 0..n."""
    lam = _check_distribution(schmidt_squares)
    expected = math.lgamma(n + 1.0) / LOG2
    for li in lam.tolist():
        if li == 0.0:
            continue
        if li == 1.0:
            expected -= math.lgamma(n + 1.0) / LOG2
            continue
        log2_fact = _log_factorials(n, li, 0, n) / LOG2
        expected -= float(full_range_binom_pmf(n, li) @ log2_fact)
    return float(max(expected / n, 0.0))
