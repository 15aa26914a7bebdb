from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from entbounds.errors import DimensionMismatchError, EmptyWindowError, SizeCapError
from entbounds.linalg import DensityMatrix, kron_ab, mix, tensor_power, trace_distance
from entbounds.mixing import (
    MixtureSpec,
    binomial_window,
    build_truncated_mixture,
    tail_mass_scan,
    verify_mixing_bound,
)
from entbounds.sampling import random_density_matrix

RHO = random_density_matrix(2, 2, seed=100)
SIGMA = random_density_matrix(2, 2, seed=101)


def brute_block(rho, sigma, n, l):
    """Average over explicit 0/1 strings instead of position subsets."""
    side = rho.side**n
    acc = np.zeros((side, side), dtype=complex)
    count = 0
    for pattern in product((0, 1), repeat=n):
        if sum(pattern) != l:
            continue
        entries = None
        dims = (1, 1)
        for bit in pattern:
            factor = sigma if bit else rho
            if entries is None:
                entries = factor.entries
            else:
                entries = kron_ab(entries, dims, factor.entries, (2, 2))
            dims = (dims[0] * 2, dims[1] * 2)
        acc += entries
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
    assert tail == pytest.approx(expected, rel=1e-6)


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
    assert built.window == (1, 3)
    assert built.rho_copies_max == 3
    assert built.sigma_copies_max == 3
    assert abs(np.trace(built.pi.entries) - 1.0) < 1e-10


def test_verify_mixing_bound_truncated_windows():
    for n, p, w in ((4, 0.5, 0.0), (5, 0.3, 1.0), (5, 0.9, 1.0)):
        window, _ = binomial_window(n, p, half_width=w)
        spec = MixtureSpec(RHO, SIGMA, p=p, n=n, window=window)
        report = verify_mixing_bound(spec)
        assert report.passed
        assert report.trace_distance <= report.tail_mass + 1e-9
        assert report.trace_distance > 1e-6  # truncation actually bites


def test_verify_mixing_bound_respects_cap():
    spec = MixtureSpec(RHO, SIGMA, p=0.5, n=6, window=(0, 6))
    with pytest.raises(SizeCapError):
        verify_mixing_bound(spec, cap=1024)


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
