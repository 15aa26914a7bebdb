import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from entbounds import mixing
from entbounds.errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from entbounds.linalg import (
    HERMITICITY_TOL,
    PSD_FLOOR,
    DensityMatrix,
    mix,
    trace_norm,
)
from entbounds.mixing import (
    MixtureSpec,
    _binom_logpmf,
    _binom_reach,
    _log_factorials,
    _pair_terms,
    _swap_halves,
    binomial_window,
    tail_mass_scan,
    verify_mixing_bound,
)
from entbounds.protocols import concentration_yield
from entbounds.sampling import random_density_matrix
from entbounds.stateio import dumps_state
from support import (
    ab_order,
    build_truncated_mixture,
    copy_swap_basis,
    full_range_binom_pmf,
    full_range_tail_mass,
    mixture_in_copy_order,
    pair_isometries,
    tensor_power,
    trace_distance,
)

RHO = random_density_matrix(2, 2, seed=100)
SIGMA = random_density_matrix(2, 2, seed=101)


def brute_block(rho, sigma, n, l):
    """Average over explicit 0/1 strings instead of position subsets."""
    order = ab_order((rho.dim_a, rho.dim_b), n)
    acc = np.zeros((order.size, order.size), dtype=complex)
    count = 0
    for pattern in product((0, 1), repeat=n):
        if sum(pattern) != l:
            continue
        entries = np.ones((1, 1))
        for bit in pattern:
            entries = np.kron(entries, (sigma if bit else rho).entries)
        acc += entries[np.ix_(order, order)]
        count += 1
    return acc / count


def test_binomial_window_frozen_case():
    window, tail = binomial_window(4, 0.5, half_width=0)
    assert window == (2, 2)
    assert tail == pytest.approx(0.625, abs=1e-12)


def test_binomial_window_default_half_width_covers_small_symmetric_n():
    window, tail = binomial_window(4, 0.5, half_width=None)
    assert window == (0, 4)
    assert tail == 0.0
    # skewed p leaves one endpoint outside the default window
    window, tail = binomial_window(4, 0.3, half_width=None)
    assert window == (0, 3)
    assert tail == pytest.approx(0.3**4, abs=1e-12)


def test_binomial_window_empty_raises():
    with pytest.raises(EmptyWindowError):
        binomial_window(5, 0.5, half_width=0)
    with pytest.raises(EmptyWindowError):
        binomial_window(3, 0.1, half_width=0)


@pytest.mark.parametrize(
    "n, p, half_width, message",
    [
        (4, 1.5, None, "p must lie in [0, 1], got 1.5"),
        (4, -0.25, 1.0, "p must lie in [0, 1], got -0.25"),
        (0, 0.5, None, "n must be a positive integer"),
        (4, 0.5, -1.0, "half_width must be non-negative"),
    ],
)
def test_binomial_window_rejects_bad_input(n, p, half_width, message):
    with pytest.raises(ValueError) as err:
        binomial_window(n, p, half_width)
    assert str(err.value) == message


def test_binomial_window_degenerate_p():
    assert binomial_window(6, 0.0, half_width=0) == ((0, 0), 0.0)
    assert binomial_window(6, 1.0, half_width=0) == ((6, 6), 0.0)


def test_binomial_window_matches_scipy_tail():
    for n, p, w in ((50, 0.3, 3), (200, 0.5, 7), (1000, 0.9, 20)):
        (lo, hi), tail = binomial_window(n, p, half_width=w)
        expected = binom.cdf(lo - 1, n, p) + binom.sf(hi, n, p)
        assert tail == pytest.approx(expected, abs=1e-13)


def test_tiny_tail_not_lost_to_cancellation():
    # 1 - (window sum) rounds to zero long before the true tail does
    (_, _), tail = binomial_window(10_000, 0.5, half_width=None)
    assert 0.0 < tail < 1e-6
    expected = 2 * binom.cdf(5000 - int(np.ceil(10_000 ** (2 / 3))) - 0, 10_000, 0.5)
    assert tail == pytest.approx(expected, rel=1e-6, abs=0.0)


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.5, max_value=10.0),
)
@settings(deadline=None, max_examples=60)
# scipy's binom.pmf raises OverflowError at p near the smallest normal
# double, so the reference sums the exact closed form instead
@example(n=4, p=2.2250738585072014e-308, w=1.0)
def test_binomial_window_tail_consistency(n, p, w):
    (lo, hi), tail = binomial_window(n, p, half_width=w)
    assert 0 <= lo <= hi <= n
    inside = sum(comb(n, l) * p**l * (1.0 - p) ** (n - l) for l in range(lo, hi + 1))
    assert tail == pytest.approx(1.0 - inside, abs=1e-11)
    assert tail <= 2.0 * np.exp(-2.0 * w * w / n) + 1e-12


def brute_mixture(rho, sigma, p, n, window):
    """Pi from the placement enumeration, weighted by exact binomial terms."""
    lo, hi = window
    weights = [comb(n, l) * p**l * (1.0 - p) ** (n - l) for l in range(lo, hi + 1)]
    acc = sum(w * brute_block(rho, sigma, n, l) for w, l in zip(weights, range(lo, hi + 1)))
    return acc / sum(weights)


def test_truncated_mixture_matches_enumeration_on_every_window():
    # edge windows (0, 0) and (n, n) leave one of the two closing sums empty
    for n in range(1, 5):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                built = build_truncated_mixture(MixtureSpec(RHO, SIGMA, 0.3, n, (lo, hi)))
                expected = brute_mixture(RHO, SIGMA, 0.3, n, (lo, hi))
                assert np.max(np.abs(built.pi.entries - expected)) < 1e-13, (n, lo, hi)


def test_truncated_mixture_degenerate_p():
    for n in (1, 3):
        at_zero = build_truncated_mixture(MixtureSpec(RHO, SIGMA, 0.0, n, (0, n)))
        assert np.max(np.abs(at_zero.pi.entries - tensor_power(RHO, n).entries)) < 1e-13
        at_one = build_truncated_mixture(MixtureSpec(RHO, SIGMA, 1.0, n, (0, n)))
        assert np.max(np.abs(at_one.pi.entries - tensor_power(SIGMA, n).entries)) < 1e-13
        assert at_zero.tail_mass == at_one.tail_mass == 0.0
    # a window the weight cannot reach carries no mass
    with pytest.raises(ValueError):
        build_truncated_mixture(MixtureSpec(RHO, SIGMA, 0.0, 3, (1, 3)))


def test_truncated_mixture_role_swap_identity():
    # choosing positions for sigma is choosing the complement for rho
    for lo, hi in ((0, 0), (1, 2), (2, 4), (4, 4)):
        a = build_truncated_mixture(MixtureSpec(RHO, SIGMA, 0.3, 4, (lo, hi)))
        b = build_truncated_mixture(MixtureSpec(SIGMA, RHO, 0.7, 4, (4 - hi, 4 - lo)))
        assert np.max(np.abs(a.pi.entries - b.pi.entries)) < 1e-13
        assert a.tail_mass == pytest.approx(b.tail_mass, abs=1e-15)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(RHO, SIGMA, p=1.2, n=3, window=(0, 3))
    with pytest.raises(ValueError):
        MixtureSpec(RHO, SIGMA, p=0.5, n=0, window=(0, 0))
    with pytest.raises(ValueError):
        MixtureSpec(RHO, SIGMA, p=0.5, n=3, window=(0, 4))
    with pytest.raises(EmptyWindowError):
        MixtureSpec(RHO, SIGMA, p=0.5, n=3, window=(2, 1))
    with pytest.raises(DimensionMismatchError):
        MixtureSpec(RHO, random_density_matrix(3, 3, seed=2), 0.5, 2, (0, 2))


def test_full_window_mixture_equals_tensor_power():
    spec = MixtureSpec(RHO, SIGMA, p=0.35, n=3, window=(0, 3))
    built = build_truncated_mixture(spec)
    reference = tensor_power(mix(RHO, SIGMA, 0.35), 3)
    assert built.tail_mass == 0.0
    assert trace_distance(built.pi, reference) < 1e-10


def test_truncated_mixture_copy_bookkeeping():
    spec = MixtureSpec(RHO, SIGMA, p=0.5, n=4, window=(1, 3))
    built = build_truncated_mixture(spec)
    assert abs(np.trace(built.pi.entries) - 1.0) < 1e-10


def test_verify_mixing_bound_truncated_windows():
    for n, p, w in ((4, 0.5, 0.0), (5, 0.3, 1.0), (5, 0.9, 1.0)):
        window, _ = binomial_window(n, p, half_width=w)
        spec = MixtureSpec(RHO, SIGMA, p=p, n=n, window=window)
        report = verify_mixing_bound(spec)
        assert report.passed
        assert report.trace_distance <= report.tail_mass + 1e-9
        assert report.trace_distance > 1e-6  # truncation actually bites


def random_spec(dim_a, dim_b, n, seed):
    """Seeded states, weight and window with positive mass in the window."""
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(dim_a, dim_b, seed=rng)
    sigma = random_density_matrix(dim_a, dim_b, seed=rng)
    lo = int(rng.integers(0, n + 1))
    hi = int(rng.integers(lo, n + 1))
    return MixtureSpec(rho, sigma, float(rng.uniform(0.1, 0.9)), n, (lo, hi))


def kron_power(m, n):
    """m^(x n) as a plain kron chain, in copy order |a1 b1 a2 b2 ...>."""
    return reduce(np.kron, [m] * n)


def dense_distance(spec, pi):
    reference = tensor_power(mix(spec.rho, spec.sigma, spec.p), spec.n)
    return 0.5 * trace_norm(reference.entries - pi.entries)


@pytest.mark.parametrize(
    "dims,n,sizes,counts",
    [
        ((2, 2), 5, [220, 180, 240, 84, 60], [1, 1, 2, 1, 1]),
        ((2, 3), 4, [231, 210, 315, 120, 105], [1, 1, 2, 1, 1]),
        ((2, 2), 6, [550, 450, 330, 270, 210, 150, 126, 90], [1, 1, 3, 3, 3, 3, 1, 1]),
    ],
)
def test_sector_class_sizes_and_multiplicities(dims, n, sizes, counts, monkeypatch):
    # a stand-in for the eigensolve: the i-th eigensolved block reads
    # 2^-8i, so T holds each block's multiplicity in a byte of its own
    seen = []

    def spy(x):
        seen.append(x.shape)
        return 2.0 ** (-8 * len(seen))

    monkeypatch.setattr(mixing, "trace_norm", spy)
    report = verify_mixing_bound(random_spec(*dims, n, seed=5))
    assert seen == [(size, size) for size in sizes]
    assert report.trace_distance == 0.5 * sum(c * 2.0 ** (-8 * (j + 1)) for j, c in enumerate(counts))


@pytest.mark.parametrize("f,pre,post", [(1, 2, 3), (2, 1, 1), (3, 2, 3), (4, 1, 1), (6, 1, 1), (3, 3, 2)])
def test_swap_halves_match_the_dense_isometries(f, pre, post):
    """Each half is V x V^T with V the dense isometry of one half of the
    swapped factors, beside identities on the factors around them."""
    rng = np.random.default_rng(f * pre * post)
    side = pre * f * f * post
    x = rng.normal(size=(2, side, side)) + 1j * rng.normal(size=(2, side, side))
    x += x.conj().swapaxes(1, 2)
    # the swap of the two C^f factors, as the index each basis vector comes from
    swap = np.arange(side).reshape(pre, f, f, post).swapaxes(1, 2).ravel()
    x += x[:, swap][:, :, swap]  # commutes with the swap, and stays Hermitian
    for half, v in zip(_swap_halves(x, f, post), pair_isometries(f)):
        v = np.kron(np.kron(np.eye(pre), v), np.eye(post))
        assert half.shape == (2, len(v), len(v))
        assert np.max(np.abs(half - v @ x @ v.T), initial=0.0) < 1e-13


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_pair_isometries_are_orthogonal_and_block_diagonalise_pair_terms(dims):
    d = dims[0] * dims[1]
    sym, anti = pair_isometries(d)
    assert (sym.shape, anti.shape) == ((d * (d + 1) // 2, d * d), (d * (d - 1) // 2, d * d))
    q = np.vstack([sym, anti])
    assert np.max(np.abs(q @ q.T - np.eye(d * d))) < 1e-15
    rho, sigma = random_density_matrix(*dims, seed=d), random_density_matrix(*dims, seed=d + 1)
    a, b = 0.7 * rho.entries, 0.3 * sigma.entries
    terms = _pair_terms(a, b, mix(rho, sigma, 0.3).entries)
    # T0, T1, T2 and m x m in that order
    assert np.array_equal(terms[1], np.kron(a, b) + np.kron(b, a))
    for half, v in zip(_swap_halves(terms, d, 1), (sym, anti)):
        assert np.max(np.abs(half - v @ terms @ v.T), initial=0.0) < 1e-15
    for term in terms:
        rotated = q @ term @ q.T
        rotated[: len(sym), : len(sym)] = 0.0
        rotated[len(sym) :, len(sym) :] = 0.0
        assert np.max(np.abs(rotated), initial=0.0) < 1e-15


@pytest.mark.parametrize(
    "dims,n,half_width",
    [((2, 2), n, None) for n in range(1, 6)]
    + [((2, 3), n, None) for n in range(1, 5)]
    # at d = 3 an antisymmetric pair has d(d-1)/2 = 3 dimensions, as many as
    # the unpaired copy, and a split that paired factors by dimension misreads
    + [(dims, n, 1.0) for dims in ((1, 3), (3, 1)) for n in (3, 5)],
)
def test_block_trace_distance_matches_dense(dims, n, half_width):
    for seed in range(3 if n < 4 else 1):
        spec = random_spec(*dims, n, seed=100 * n + seed)
        if half_width is not None:
            spec = replace(spec, window=binomial_window(n, spec.p, half_width)[0])
        report = verify_mixing_bound(spec)
        expected = dense_distance(spec, build_truncated_mixture(spec).pi)
        assert abs(report.trace_distance - expected) <= 1e-13, (seed, report, expected)


@pytest.mark.parametrize(
    "dims,n", [((2, 2), n) for n in range(1, 6)] + [((2, 3), n) for n in range(1, 5)]
)
def test_unvalidated_n_copy_operators_are_states(dims, n):
    """Pi and the tensor power skip validation; check what it would check."""
    spec = random_spec(*dims, n, seed=300 + n)
    narrow, _ = binomial_window(n, spec.p, half_width=0.6)
    operators = [tensor_power(mix(spec.rho, spec.sigma, spec.p), n)]
    for window in (narrow, (0, n)):
        operators.append(build_truncated_mixture(replace(spec, window=window)).pi)
    for op in operators:
        m = op.entries
        assert np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL
        assert np.linalg.eigvalsh(m)[0] >= PSD_FLOOR
        assert abs(m.trace() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "dims,n",
    [((1, 2), n) for n in range(2, 7)]
    + [((1, 3), n) for n in range(2, 6)]
    + [((2, 2), n) for n in range(2, 5)]
    + [((2, 3), 2), ((2, 3), 3)],
)
def test_sectors_of_one_class_share_their_trace_norm(dims, n, monkeypatch):
    """Each half of each of the 2^K copy-swap sectors of the dense
    difference, taken with the dense basis change, has the trace norm of
    its class's half block, and the difference has nothing between
    halves."""
    spec = random_spec(*dims, n, seed=500 + 10 * n + dims[1])
    seen = []

    def spy(x):
        seen.append(trace_norm(x))
        return seen[-1]

    monkeypatch.setattr(mixing, "trace_norm", spy)
    report = verify_mixing_bound(spec)
    power = kron_power(mix(spec.rho, spec.sigma, spec.p).entries, n)
    q, sector, half = copy_swap_basis(dims, n)
    rotated = q @ (power - mixture_in_copy_order(spec)) @ q.T
    # the check solves its classes j in order, and each class's nonempty halves in order
    solved = sorted({(s.bit_count(), h) for s, h in zip(sector.tolist(), half.tolist())})
    assert len(seen) == len(solved)
    norms = []
    for s, h in product(range(2 ** (n // 2)), range(4)):
        rows = np.flatnonzero((sector == s) & (half == h))
        if rows.size:
            block = rotated[np.ix_(rows, rows)]
            norms.append(trace_norm(block))
            expected = seen[solved.index((s.bit_count(), h))]
            assert abs(norms[-1] - expected) <= 1e-13, (s, h, norms[-1], seen)
            rotated[np.ix_(rows, rows)] = 0.0
    assert np.max(np.abs(rotated)) < 1e-15
    assert abs(report.trace_distance - 0.5 * sum(norms)) <= 1e-13


@pytest.mark.parametrize("dims,n", [((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 3), 2), ((2, 3), 3)])
def test_perturbed_pair_term_fails_and_never_reads_closer(dims, n, monkeypatch):
    """A negative control: eps (g x g), g real symmetric, so that it commutes
    with the swap, added to the builder's a x a pair term.  T stays at or
    above the dense distance of the operators that term builds, and a
    full window, where Pi was the power, fails."""
    g = np.random.default_rng(n).normal(size=(dims[0] * dims[1],) * 2)
    g += g.T
    error = np.zeros((4, *np.kron(g, g).shape))
    error[0] = 1e-6 * np.kron(g, g)
    monkeypatch.setattr(mixing, "_pair_terms", lambda *args: _pair_terms(*args) + error)
    specs = [random_spec(*dims, n, seed=700 + seed) for seed in range(2)]
    for spec in specs + [replace(specs[-1], window=(0, n))]:
        report = verify_mixing_bound(spec)
        power = kron_power(mix(spec.rho, spec.sigma, spec.p).entries, n)
        dense = 0.5 * trace_norm(power - perturbed_mixture(spec, error[0]))
        assert report.trace_distance >= dense - 1e-13, (spec.window, report, dense)
    # the last window is the full one
    assert not report.passed


def perturbed_mixture(spec, error):
    """Pi in copy order with error added to the a x a term of every pair,
    summed over the explicit draw counts of the pairs and the last copy."""
    a, b = (1.0 - spec.p) * spec.rho.entries, spec.p * spec.sigma.entries
    pair = [np.kron(a, a) + error, np.kron(a, b) + np.kron(b, a), np.kron(b, b)]
    lo, hi = spec.window
    k, last = divmod(spec.n, 2)
    acc = 0.0
    for counts in product(*[range(3)] * k, *[range(2)] * last):
        if lo <= sum(counts) <= hi:
            factors = [pair[c] for c in counts[:k]] + [(a, b)[c] for c in counts[k:]]
            acc = acc + reduce(np.kron, factors)
    kept = sum(binom.pmf(l, spec.n, spec.p) for l in range(lo, hi + 1))
    return acc / kept


def test_verify_mixing_bound_respects_cap():
    spec = MixtureSpec(RHO, SIGMA, p=0.5, n=6, window=(0, 6))
    with pytest.raises(SizeCapError):
        verify_mixing_bound(spec, cap=1024)


def test_verify_mixing_bound_checks_the_default_cap_first():
    # the window carries no mass either, which would raise ValueError
    spec = MixtureSpec(RHO, RHO, p=0.0, n=7, window=(1, 7))
    with pytest.raises(SizeCapError, match=r"matrix side 4\^7 exceeds size cap 4096"):
        verify_mixing_bound(spec)
    with pytest.raises(ValueError, match="window carries no probability mass"):
        verify_mixing_bound(replace(spec, n=6, window=(1, 6)))


def test_tail_mass_scan_rows():
    rows = tail_mass_scan(0.5, [16, 64, 256])
    assert [r.n for r in rows] == [16, 64, 256]
    for row in rows:
        assert 0 <= row.window_lo <= row.window_hi <= row.n
        assert row.tail_mass <= row.hoeffding_bound + 1e-12
        assert row.hoeffding_bound == pytest.approx(
            2.0 * np.exp(-2.0 * row.n ** (1 / 3)), rel=1e-12
        )


def test_tail_mass_scan_custom_half_width():
    rows = tail_mass_scan(0.3, [100], half_width=5)
    assert rows[0].hoeffding_bound == pytest.approx(2 * np.exp(-0.5), rel=1e-12)
    assert rows[0].tail_mass <= rows[0].hoeffding_bound


@pytest.mark.parametrize("n", [1, 7, 60, 10**3, 10**5, 10**6])
@pytest.mark.parametrize(
    "p", [0.0, 2.2e-308, 1e-9, 0.0641, 0.3, 0.5, 0.97, 1.0 - 1e-12, 1.0]
)
def test_binom_reach_drops_only_exact_zeros(n, p):
    first, last = _binom_reach(n, p)
    assert 0 <= first <= last <= n
    terms = full_range_binom_pmf(n, p)
    assert np.all(terms[:first] == 0.0) and np.all(terms[last + 1 :] == 0.0)


@pytest.mark.parametrize("n", [10, 1000, 10**5, 2 * 10**6, 10**7])
@pytest.mark.parametrize("p", [1e-9, 0.3, 0.77, 1.0 - 1e-12])
def test_binom_logpmf_matches_mpmath(n, p):
    mpmath = pytest.importorskip("mpmath")

    def error(value, k):
        with mpmath.workdps(50):
            k, big, q = mpmath.mpf(int(k)), mpmath.mpf(n), mpmath.mpf(p)
            exact = (
                mpmath.loggamma(big + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(big - k + 1)
                + k * mpmath.log(q) + (big - k) * mpmath.log1p(-q)
            )
            return abs(float(value - exact)), float(exact)

    first, last = _binom_reach(n, p)
    logs = _binom_logpmf(n, p, first, last)
    # 41 counts across the part of the reach whose terms are at least
    # e^-783; past it the log terms reach -1e6 at n = 1e7, where one ulp is
    # 1.2e-10 and the walk's rounding grows with the partial sums
    live = np.flatnonzero(logs >= -783.0) + first
    for k in np.unique(np.linspace(live[0], live[-1], 41).round().astype(int)):
        assert error(float(logs[k - first]), k)[0] <= 1e-10, k
    # each window edge as _log10_tail first evaluates it, in a run of two
    # from the edge outward; far edges are only good to an ulp of the value
    (lo, hi), _ = binomial_window(n, p)
    for edge, step in ((lo - 1, -1), (hi + 1, 1)):
        if 0 <= min(edge, edge + step) and max(edge, edge + step) <= n:
            value = _binom_logpmf(n, p, *sorted((edge, edge + step)))[::step][0]
            off, exact = error(float(value), edge)
            assert off <= max(1e-10, 2 * np.spacing(abs(exact))), edge
    # log k! carries into the yield against log n!, so its error is
    # bounded relative to that
    log_factorials = _log_factorials(n, p, first, last)
    for k in np.linspace(first, last, 41).round().astype(int):
        assert abs(log_factorials[k - first] - math.lgamma(k + 1.0)) <= 1e-14 * math.lgamma(n + 1.0)
    # the kernel walks from the mode, so a run over 0..n holds the reach's values bit for bit
    if n <= 10**5:
        assert np.array_equal(_binom_logpmf(n, p, 0, n)[first : last + 1], logs)


@pytest.mark.parametrize("half_width", [None, 600.0])
@pytest.mark.parametrize("p", [1e-9, 0.0641, 0.3, 0.5, 0.97])
def test_tail_mass_matches_full_range_reference(p, half_width):
    # only the grouping of the sum changes, never the set of nonzero terms
    for n in (10, 20, 100, 200, 1000, 2000, 10**4, 2 * 10**4, 10**5, 2 * 10**5, 10**6, 2 * 10**6):
        (lo, hi), tail = binomial_window(n, p, half_width)
        expected = full_range_tail_mass(n, p, lo, hi)
        assert abs(tail - expected) <= 1e-14 * expected, (n, tail, expected)


def test_scalar_scans_stay_small_at_ten_million():
    # the full-range sums traced 378 MiB (tail) and 458 MiB (concentration)
    for scan in (
        lambda: tail_mass_scan(0.6013, [10**7]),
        lambda: concentration_yield([0.616, 0.216, 0.168], 10**7),
    ):
        tracemalloc.start()
        try:
            scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


def test_binom_reach_over_the_limit_raises_before_allocating():
    # 11.3e9 copies at p = 1/2 reach 4,206,639 terms, just over 2^22
    with pytest.raises(ValueError, match="^copy count 11300000000 needs 4206639 binomial terms"):
        _binom_reach(11_300_000_000, 0.5)


# just above the peaks read (0.208 and 0.298), so that a side x side array
# left anywhere in the check fails, and so does a second class block kept
# alive through the halves' eigensolves (0.12 and 0.15)
PEAK_BOUNDS = {((2, 3), 4): 0.22, ((2, 2), 5): 0.31}


@pytest.mark.parametrize("dims,n", list(PEAK_BOUNDS))
def test_mixing_check_peak_stays_under_two_sides_squared(dims, n):
    # in units of one side x side complex array: the block of the largest
    # class, which is 441^2 / 1296^2 = 0.116 and 400^2 / 1024^2 = 0.153 of
    # one, while its halves are gathered from it, with the index arrays of
    # a gather; trace_norm's hermiticity check of a half stays below
    spec = random_spec(*dims, n, seed=404)
    side = (dims[0] * dims[1]) ** n
    tracemalloc.start()
    try:
        verify_mixing_bound(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUNDS[dims, n] * 16 * side**2, peak / (16 * side**2)


def test_mixing_verify_process_imports_no_scipy_module(tmp_path):
    files = []
    for seed, name in enumerate(("rho", "sigma"), start=1):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(dumps_state(random_density_matrix(2, 2, seed=seed)))
    argv = ["mixing-verify", *map(str, files), "--p", "0.3", "--n", "3", "--half-width", "1"]
    # -X importtime prints one stderr line per module the process imports
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "entbounds", *argv],
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()]
    assert "entbounds.mixing" in imported
    assert not [name for name in imported if name == "scipy" or name.startswith("scipy.")]


def test_tail_mass_scan_underflow_reads_positive_with_log10():
    (row,) = tail_mass_scan(0.5, [10**6], half_width=30000)
    assert (row.window_lo, row.window_hi) == (470000, 530000)
    assert row.tail_mass == row.hoeffding_bound == sys.float_info.min
    assert row.log10_tail_mass == pytest.approx(-784.10221028, abs=1e-6)
    # a row whose window is total has an exact zero tail and no log10
    (row,) = tail_mass_scan(0.5, [20], half_width=600)
    assert (row.tail_mass, row.hoeffding_bound, row.log10_tail_mass) == (0.0, 0.0, None)


@pytest.mark.parametrize(
    "p, log10_tail",
    # mpmath at 50 digits, summing every term above the window
    [(1e-320, -636.30540447096251559), (5e-324, -642.91782548729803860)],
)
def test_tail_mass_scan_log10_at_subnormal_p(p, log10_tail):
    # n p is subnormal, so k / (n p) overflows at the window's upper edge
    (row,) = tail_mass_scan(p, [100], half_width=1)
    assert (row.window_lo, row.window_hi, row.tail_mass) == (0, 1, sys.float_info.min)
    assert row.log10_tail_mass == pytest.approx(log10_tail, abs=1e-9)
