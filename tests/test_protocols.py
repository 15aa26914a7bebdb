import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds.errors import UndefinedRateError
from entbounds.linalg import PureState
from entbounds.measures import binary_entropy
from entbounds.protocols import (
    CatalyticRate,
    YieldCurve,
    catalytic_rate,
    concentration_curve,
    concentration_yield,
    eta_continuity_scan,
)
from entbounds.sampling import random_separable_state
from entbounds.states import maximally_mixed, phi_plus, werner
from support import conversion_rate


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
    assert big == pytest.approx(0.9998619517379357, abs=1e-11)


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
    phi = phi_plus().to_density_matrix()
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
    sigma = PureState(2, 2, amps).to_density_matrix()
    rate = conversion_rate(phi_plus().to_density_matrix(), sigma)
    assert rate.rate == pytest.approx(2.0, abs=1e-8)


def test_conversion_rate_undefined_for_separable_source():
    sep = random_separable_state(2, 2, seed=1)
    with pytest.raises(UndefinedRateError):
        conversion_rate(sep, phi_plus().to_density_matrix())


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


def test_catalytic_rate_rejects_nonpositive():
    for args in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)):
        with pytest.raises(ValueError):
            catalytic_rate(*args)
