import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds import protocols
from entbounds.linalg import DensityMatrix, _mix
from entbounds.measures import binary_entropy
from entbounds.protocols import (
    CatalyticRate,
    YieldCurve,
    catalytic_rate,
    concentration_curve,
    concentration_yield,
    eta_continuity_scan,
)
from entbounds.states import maximally_mixed, phi_plus, werner
from support import (
    UndefinedRateError,
    conversion_rate,
    full_range_concentration_yield,
    pure_state,
    random_separable_state,
    random_unitary,
    unchecked,
    validate,
)


def brute_yield(lams, n):
    """Enumerate outcome count vectors and average log2 of the coefficient."""
    total = 0.0
    m = len(lams)
    for head in itertools.product(range(n + 1), repeat=m - 1):
        if sum(head) > n:
            continue
        ks = list(head) + [n - sum(head)]
        coeff = math.factorial(n)
        for k in ks:
            coeff //= math.factorial(k)
        prob = coeff * math.prod(l**k for l, k in zip(lams, ks))
        if prob > 0:
            total += prob * math.log2(coeff)
    return total / n


@pytest.mark.parametrize(
    "lams", [[0.5, 0.5], [0.3, 0.7], [0.2, 0.3, 0.5], [0.9, 0.05, 0.05]]
)
def test_concentration_yield_matches_enumeration(lams):
    for n in (1, 2, 3, 5, 8):
        assert concentration_yield(lams, n) == pytest.approx(
            brute_yield(lams, n), abs=1e-12
        )


def test_concentration_yield_frozen_values():
    assert concentration_yield([0.5, 0.5], 2) == pytest.approx(0.25, abs=1e-14)
    assert concentration_yield([1.0, 0.0], 9) == 0.0
    big = concentration_yield([0.5, 0.5], 2**16)
    # mpmath at 40 digits, summing every term: 0.99986195227683788073
    assert big == pytest.approx(0.9998619522768379, abs=1e-11)


@pytest.mark.parametrize(
    "lams", [[0.5, 0.5], [0.0641, 0.9359], [0.97, 0.03], [0.616, 0.216, 0.168], [0.2, 0.3, 0.5]]
)
def test_concentration_yield_matches_full_range_reference(lams):
    for n in (1, 2, 7, 60, 1000, 10**4, 10**5):
        expected = full_range_concentration_yield(lams, n)
        assert abs(concentration_yield(lams, n) - expected) <= 1e-14, (n, expected)


def test_concentration_yield_increases_toward_entropy():
    values = [concentration_yield([0.5, 0.5], 2**k) for k in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v <= 1.0 + 1e-12 for v in values)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(deadline=None, max_examples=40)
def test_concentration_yield_below_entropy(p):
    y = concentration_yield([p, 1.0 - p], 64)
    assert 0.0 <= y <= binary_entropy(p) + 1e-12


def test_concentration_yield_rejects_bad_input():
    with pytest.raises(ValueError):
        concentration_yield([0.5, 0.6], 4)
    with pytest.raises(ValueError):
        concentration_yield([0.5, -0.5, 1.0], 4)
    with pytest.raises(ValueError):
        concentration_yield([], 4)
    with pytest.raises(ValueError):
        concentration_yield([0.5, 0.5], 0)
    with pytest.raises(ValueError, match=r"^distribution entries must be finite$"):
        concentration_yield([0.5, float("nan"), 0.5], 4)


def test_concentration_curve_asymptote_and_points():
    curve = concentration_curve([0.25, 0.75], [2, 8, 32])
    assert curve.asymptote == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert curve.protocol == "type_class_measurement"
    assert [n for n, _ in curve.points] == [2, 8, 32]
    assert all(isinstance(v, float) for _, v in curve.points)


def test_yield_curve_invariants():
    with pytest.raises(ValueError):
        YieldCurve("x", 1.0, [(4, 0.5), (2, 0.4)])
    with pytest.raises(ValueError):
        YieldCurve("x", 1.0, [(2, -0.1)])


def test_conversion_rate_identity_case():
    phi = phi_plus()
    rate = conversion_rate(phi, phi)
    assert rate.rate == pytest.approx(1.0, abs=1e-10)
    assert rate.kind == "lower_bound"
    assert rate.numerator.kind == "lower_bound"
    assert rate.denominator.kind == "upper_bound"


def test_conversion_rate_reciprocal_of_cost():
    # pure target with entanglement 1/2: the rate doubles
    a = 0.11002786443835955  # h2(a) = 1/2
    amps = np.zeros(4)
    amps[0] = np.sqrt(a)
    amps[3] = np.sqrt(1.0 - a)
    sigma = pure_state(2, 2, amps)
    rate = conversion_rate(phi_plus(), sigma)
    assert rate.rate == pytest.approx(2.0, abs=1e-8)


def test_conversion_rate_undefined_for_separable_source():
    sep = random_separable_state(2, 2, seed=1)
    with pytest.raises(UndefinedRateError):
        conversion_rate(sep, phi_plus())


def test_eta_scan_frozen_point_and_monotonicity():
    xi = maximally_mixed(2, 2)
    rows = eta_continuity_scan(xi, np.logspace(-4, -1, 20))
    values = [row.value for row in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    point = eta_continuity_scan(xi, [1e-3])[0]
    assert point.value == pytest.approx(0.9899440463652944, abs=1e-12)
    near_zero = eta_continuity_scan(xi, [1e-9])[0]
    assert near_zero.value > 1.0 - 1e-7


def test_eta_scan_clamps_at_zero():
    rows = eta_continuity_scan(maximally_mixed(2, 2), [1.0])
    assert rows[0].value == 0.0


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=6),
)
def test_eta_scan_mixtures_are_states(seed, grid):
    # the mixtures are not validated again; a contamination whose smallest
    # eigenvalue sits halfway to the floor is the closest to failing, at eps = 1
    u = random_unitary(4, seed=seed)
    m = u @ np.diag([0.5 + 5e-10, 0.3, 0.2, -5e-10]) @ u.conj().T
    xi = DensityMatrix(2, 2, (m + m.conj().T) / 2)
    assert validate(xi).min_eigenvalue == pytest.approx(-5e-10, abs=1e-13)
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_mix", lambda a, b, p: made.append(_mix(a, b, p)) or made[-1])
        eta_continuity_scan(xi, [*grid, 1.0])
    mixtures = np.concatenate(made)
    assert len(mixtures) == len(grid) + 1
    for mixture in mixtures:
        assert validate(unchecked(2, 2, mixture)).passed


def test_eta_scan_input_validation():
    with pytest.raises(ValueError):
        eta_continuity_scan(maximally_mixed(2, 2), [0.0])
    with pytest.raises(ValueError):
        eta_continuity_scan(maximally_mixed(2, 3), [0.1])


def test_eta_scan_accepts_entangled_contamination():
    rows = eta_continuity_scan(werner(0.9), [1e-3, 1e-2])
    assert rows[0].value > rows[1].value > 0.9


def test_catalytic_rate_frozen_case():
    record = catalytic_rate(0.1, 0.5, 0.25)
    assert record.p == pytest.approx(1 / 6, abs=1e-14)
    assert record.k == pytest.approx(-2.0, abs=1e-14)
    assert record.factor == pytest.approx(0.8, abs=1e-14)
    assert isinstance(record, CatalyticRate)


def test_catalytic_rate_neutral_when_costs_balance():
    record = catalytic_rate(0.7, 0.4, 0.4)
    assert record.k == 0.0
    assert record.factor == 1.0


def test_catalytic_rate_small_delta_limit():
    record = catalytic_rate(1e-12, 0.5, 0.25)
    assert record.factor == pytest.approx(1.0, abs=1e-11)
    assert record.p == pytest.approx(0.0, abs=1e-11)


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
)
@settings(deadline=None, max_examples=60)
def test_catalytic_identity(delta, ec, ed):
    record = catalytic_rate(delta, ec, ed)
    assert record.factor == 1.0 + delta * record.k
    assert record.factor == pytest.approx(
        1.0 + delta / ec - delta / ed, rel=1e-12, abs=1e-12
    )
    assert 0.0 < record.p < 1.0


@pytest.mark.parametrize("args", [(1.0, 1e-320, 1.0), (1e308, 1e-308, 1.0)])
def test_catalytic_rate_refuses_overflow(args):
    # p came out as inf/inf = nan and the factor as inf
    with pytest.raises(ValueError, match="overflows"):
        catalytic_rate(*args)


def test_catalytic_rate_rejects_nonpositive():
    for args in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)):
        with pytest.raises(ValueError):
            catalytic_rate(*args)
