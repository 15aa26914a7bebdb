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
from scipy.sparse import csr_matrix
from scipy.stats import binom

from entbounds import mixing
from entbounds.errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from entbounds.linalg import (
    DEFAULT_SIZE_CAP,
    HERMITICITY_TOL,
    PSD_FLOOR,
    DensityMatrix,
    mix,
    trace_distance,
    trace_norm,
)
from entbounds.mixing import (
    MixtureSpec,
    _binom_reach,
    _mixture_in_copy_order,
    _swap_sectors,
    binomial_window,
    tail_mass_scan,
    verify_mixing_bound,
)
from entbounds.protocols import concentration_yield
from entbounds.sampling import random_density_matrix
from support import (
    ab_order,
    build_truncated_mixture,
    full_range_binom_pmf,
    full_range_tail_mass,
    tensor_power,
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
    "dims,n,sizes",
    [
        ((2, 2), 5, [400, 240, 240, 144]),
        ((2, 3), 4, [441, 315, 315, 225]),
        ((2, 2), 6, [1000, 600, 600, 360, 600, 360, 360, 216]),
    ],
)
def test_swap_sector_sizes(dims, n, sizes):
    assert list(_swap_sectors(dims, n)[0]) == sizes


@pytest.mark.parametrize("dims,n", [((2, 2), 1), ((2, 2), 2), ((2, 2), 3), ((2, 3), 2), ((1, 3), 3)])
def test_swap_sector_basis_is_orthogonal_and_block_diagonalises_powers(dims, n):
    sizes, q = _swap_sectors(dims, n)
    side = (dims[0] * dims[1]) ** n
    q = q.toarray()
    assert np.max(np.abs(q @ q.T - np.eye(side))) < 1e-15
    rho = random_density_matrix(*dims, seed=n)
    b = q @ kron_power(rho.entries, n) @ q.T
    edges = np.cumsum(np.r_[0, sizes])
    for lo, hi in zip(edges, edges[1:]):
        b[lo:hi, lo:hi] = 0.0
    assert np.max(np.abs(b)) < 1e-15


@pytest.mark.parametrize(
    "dims,n", [((2, 2), n) for n in range(1, 6)] + [((2, 3), n) for n in range(1, 5)]
)
def test_block_trace_distance_matches_dense(dims, n):
    for seed in range(3 if n < 4 else 1):
        spec = random_spec(*dims, n, seed=100 * n + seed)
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


def swap_breaking(pi, dim_a, eps=1e-6):
    """Copy-order Pi plus eps (|0><y| + |y><0|), y = |1> on the A side of copy 1 only.

    Swapping copies 1 and 2 moves y, so the perturbed Pi is not
    copy-symmetric, and part of the perturbation lies between sectors.
    y = side // dim_a is the same flat index in copy and bipartite order.
    """
    y = pi.shape[0] // dim_a
    entries = np.array(pi)
    entries[0, y] += eps
    entries[y, 0] += eps
    return entries


@pytest.mark.parametrize("dims,n", [((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 3), 2), ((2, 3), 3)])
def test_swap_breaking_pi_never_reads_closer(dims, n, monkeypatch):
    for seed in range(2):
        spec = random_spec(*dims, n, seed=700 + seed)
        broken = swap_breaking(_mixture_in_copy_order(spec, DEFAULT_SIZE_CAP), dims[0])
        # verify_mixing_bound overwrites Pi with the difference, so hand out copies
        monkeypatch.setattr(mixing, "_mixture_in_copy_order", lambda *_: broken.copy())
        report = verify_mixing_bound(spec)
        power = kron_power(mix(spec.rho, spec.sigma, spec.p).entries, n)
        assert report.trace_distance >= 0.5 * trace_norm(power - broken) - 1e-15
    # with a full window Pi is the n-fold power, and the broken one fails
    spec = replace(spec, window=(0, n))
    broken = swap_breaking(_mixture_in_copy_order(spec, DEFAULT_SIZE_CAP), dims[0])
    monkeypatch.setattr(mixing, "_mixture_in_copy_order", lambda *_: broken.copy())
    assert not verify_mixing_bound(spec).passed


def bipartite_path_distance(spec, monkeypatch):
    """T as computed with Pi and the power regrouped into bipartite order.

    The difference is taken between the bipartite operators, and the
    columns of Q are mapped from copy order through argsort(ab_order).
    """
    dims, n = (spec.rho.dim_a, spec.rho.dim_b), spec.n
    power = tensor_power(mix(spec.rho, spec.sigma, spec.p), n).entries
    diff = power - build_truncated_mixture(spec).pi.entries
    sizes, q = _swap_sectors(dims, n)
    to_bipartite = np.argsort(ab_order(dims, n))
    # each row keeps its terms in their order, only their columns move
    q = csr_matrix((q.data, to_bipartite[q.indices], q.indptr), shape=q.shape)
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "_swap_sectors", lambda *_: (sizes, q))
        return min(mixing._swap_sector_distance(diff, dims, n), 1.0)


@pytest.mark.parametrize(
    "dims,n", [((2, 2), n) for n in range(1, 6)] + [((2, 3), n) for n in range(1, 5)]
)
def test_copy_order_distance_is_bit_identical_to_bipartite_path(dims, n, monkeypatch):
    for seed in range(3 if n < 4 else 1):
        spec = random_spec(*dims, n, seed=900 + 10 * n + seed)
        expected = bipartite_path_distance(spec, monkeypatch)
        assert verify_mixing_bound(spec).trace_distance == expected, (seed, expected)


def test_verify_mixing_bound_respects_cap():
    spec = MixtureSpec(RHO, SIGMA, p=0.5, n=6, window=(0, 6))
    with pytest.raises(SizeCapError):
        verify_mixing_bound(spec, cap=1024)


def test_mixture_in_copy_order_respects_default_cap():
    spec = MixtureSpec(RHO, RHO, p=0.5, n=7, window=(0, 7))
    with pytest.raises(SizeCapError, match=r"matrix side 4\^7 exceeds size cap 4096"):
        _mixture_in_copy_order(spec, DEFAULT_SIZE_CAP)


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
    reach = _binom_reach(n, p)
    assert np.array_equal(reach, np.arange(reach[0], reach[-1] + 1))
    dropped = np.concatenate([np.arange(0, reach[0]), np.arange(reach[-1] + 1, n + 1)])
    assert np.all(full_range_binom_pmf(dropped, n, p) == 0.0)


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


# just above the peaks read (1.611 and 1.762), so that keeping a 1/d^2
# part such as the (n - 1)-copy power alive through the sector pass fails
PEAK_BOUNDS = {((2, 3), 4): 1.63, ((2, 2), 5): 1.78}


@pytest.mark.parametrize("dims,n", list(PEAK_BOUNDS))
def test_mixing_check_peak_stays_under_two_sides_squared(dims, n):
    # in units of one side x side complex array: the difference (1), the
    # band of the largest sector (0.34 and 0.39) and the eigensolver's
    # copy of its block; Pi and the power whole together would be 2 alone
    spec = random_spec(*dims, n, seed=404)
    side = (dims[0] * dims[1]) ** n
    tracemalloc.start()
    try:
        verify_mixing_bound(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUNDS[dims, n] * 16 * side**2, peak / (16 * side**2)


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((1, 1), (4, 4)),  # the last copy of Pi at n = 1
        ((16, 16), (4, 4)),  # whole slabs only
        ((37, 5), (6, 6)),  # 5 rows of a per slab, the last one partial
        ((9, 3), (1, 7)),  # a one-row b: a single partial slab
        ((70, 2), (1, 1)),
        ((3, 2), (40, 3)),  # b taller than a slab: one row of a each
    ],
)
def test_kron_row_slabs_equal_the_whole_product_bytes(a_shape, b_shape):
    rng = np.random.default_rng(17)
    a, b = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in (a_shape, b_shape))
    a.flat[::3] = complex(-0.0, -0.0)  # tobytes() tells the sign of zero
    whole = np.kron(a, b)
    slabs = list(mixing._kron_row_slabs(a, b))
    covered = np.concatenate([np.arange(whole.shape[0])[rows] for rows, _ in slabs])
    assert np.array_equal(covered, np.arange(whole.shape[0]))
    assert all(slab.tobytes() == whole[rows].tobytes() for rows, slab in slabs)
    assert np.concatenate([slab for _, slab in slabs]).tobytes() == whole.tobytes()


def test_tail_mass_scan_underflow_reads_positive_with_log10():
    (row,) = tail_mass_scan(0.5, [10**6], half_width=30000)
    assert (row.window_lo, row.window_hi) == (470000, 530000)
    assert row.tail_mass == row.hoeffding_bound == sys.float_info.min
    assert row.log10_tail_mass == pytest.approx(-784.10221028, abs=1e-6)
    # a row whose window is total has an exact zero tail and no log10
    (row,) = tail_mass_scan(0.5, [20], half_width=600)
    assert (row.tail_mass, row.hoeffding_bound, row.log10_tail_mass) == (0.0, 0.0, None)
