from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds.continuity import (
    BallSpec,
    ball_constants,
    border_scan,
    corridor_consistency_check,
    kappa,
    lipschitz_bound,
    sample_ball,
    surface_count,
)
from entbounds.errors import BallNotCertifiedError, DimensionMismatchError
from entbounds.linalg import DensityMatrix, mix
from entbounds.measures import (
    bound_values,
    ec_upper,
    ed_lower,
    eof_2x2,
)
from entbounds.sampling import random_density_matrix
from entbounds.states import isotropic_2x3, maximally_mixed, phi_plus, werner
from support import trace_distance


# ---- kappa ----


def test_kappa_exact_endpoints():
    for r in np.linspace(0.01, 1.0, 25):
        r = float(r)
        assert kappa(0.0, r) == 0.0
        assert kappa(1.0, r) == 1.0 - r
    assert kappa(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-15)
    assert kappa(0.7, 1.0) == 0.0


def test_kappa_rejects_out_of_range():
    with pytest.raises(ValueError):
        kappa(-0.1, 0.5)
    with pytest.raises(ValueError):
        kappa(0.5, 0.0)
    with pytest.raises(ValueError):
        kappa(0.5, 1.1)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-9, max_value=1.0),
)
@settings(deadline=None, max_examples=80)
def test_kappa_bounds(p, r):
    value = kappa(p, r)
    assert 0.0 <= value <= 1.0
    assert value <= p * (1.0 - r) / r + 1e-12
    assert value <= 1.0 - r + 1e-12


def test_kappa_monotone_in_p():
    values = [kappa(float(p), 0.3) for p in np.linspace(0, 1, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---- ball sampling ----


def test_sample_ball_radii_and_determinism():
    center = werner(0.95)
    spec = BallSpec(center=center, epsilon=1e-3, sample_count=25, seed=3)
    samples = sample_ball(spec)
    assert len(samples) == 25
    again = sample_ball(spec)
    assert all(np.array_equal(a.entries, b.entries) for a, b in zip(samples, again))
    distances = [trace_distance(center, s) for s in samples]
    assert max(distances) <= 1e-3 + 1e-9
    # the leading block sits exactly on the surface
    for t in distances[: surface_count(25)]:
        assert t == pytest.approx(1e-3, abs=1e-12)
    assert min(distances) > 0.0


def test_sample_ball_shrinks_with_epsilon():
    center = werner(0.95)
    tiny = sample_ball(BallSpec(center=center, epsilon=1e-9, sample_count=8, seed=4))
    for s in tiny:
        assert trace_distance(center, s) <= 1e-9 + 1e-12


def test_sample_ball_nested_rays_under_fixed_seed():
    center = werner(0.9)
    big = sample_ball(BallSpec(center=center, epsilon=1e-2, sample_count=10, seed=5))
    small = sample_ball(BallSpec(center=center, epsilon=1e-3, sample_count=10, seed=5))
    for b, s in zip(big, small):
        # same direction, one tenth of the step
        step_b = b.entries - center.entries
        step_s = s.entries - center.entries
        assert np.allclose(step_s, step_b / 10.0, atol=1e-12)


def test_ball_spec_validation():
    center = werner(0.9)
    with pytest.raises(ValueError):
        BallSpec(center=center, epsilon=0.0, sample_count=5, seed=0)
    with pytest.raises(ValueError):
        BallSpec(center=center, epsilon=1.5, sample_count=5, seed=0)
    with pytest.raises(ValueError):
        BallSpec(center=center, epsilon=0.1, sample_count=0, seed=0)


# ---- ball constants ----


def test_ball_constants_on_narrow_werner_ball():
    spec = BallSpec(center=werner(0.95), epsilon=1e-4, sample_count=30, seed=6)
    constants = ball_constants(spec)
    assert constants.provenance == "sampled"
    assert not constants.reversible
    assert 0.0 < constants.r < 1.0
    assert constants.ed_min_lower > 0.5
    assert constants.ec_max_upper < 1.0
    assert constants.delta == pytest.approx(
        constants.ec_max_upper * (1 - constants.r) / constants.r, rel=1e-12
    )


def test_ball_constants_near_maximally_entangled_center():
    center = phi_plus()
    spec = BallSpec(center=center, epsilon=1e-3, sample_count=20, seed=7)
    constants = ball_constants(spec)
    assert constants.ed_min_lower > 0.98


def test_ball_constants_rejects_straddling_ball():
    spec = BallSpec(center=werner(0.8), epsilon=0.45, sample_count=12, seed=2)
    with pytest.raises(BallNotCertifiedError) as err:
        ball_constants(spec)
    assert err.value.sample_index == 0


def test_ball_constants_rejects_uncertified_center():
    spec = BallSpec(center=maximally_mixed(2, 2), epsilon=1e-3, sample_count=4, seed=0)
    with pytest.raises(BallNotCertifiedError):
        ball_constants(spec)


def test_ball_constants_delta_shrinks_with_epsilon():
    center = werner(0.9)
    deltas = []
    for eps in (1e-2, 1e-3, 1e-4):
        spec = BallSpec(center=center, epsilon=eps, sample_count=40, seed=9)
        deltas.append(ball_constants(spec).delta)
    assert deltas[1] <= deltas[0] + 1e-6
    assert deltas[2] <= deltas[1] + 1e-6


def test_ball_constants_reversible_flag_with_injected_surrogates():
    spec = BallSpec(center=werner(0.95), epsilon=1e-4, sample_count=5, seed=10)
    constants = ball_constants(
        spec,
        ed=lambda states: np.full(len(states), 0.5),
        ec=lambda states: np.full(len(states), 0.5),
    )
    assert constants.reversible
    assert constants.r == 1.0
    assert constants.delta == 0.0


def _unreachable(states):
    raise AssertionError("a bound was evaluated")


def test_ball_constants_refuse_an_empty_sample_list():
    # the centre alone is no sampled estimate of the ball's extrema
    spec = BallSpec(center=werner(0.95), epsilon=1e-4, sample_count=5, seed=10)
    with pytest.raises(ValueError, match="^sampled ball constants need at least one sample$"):
        ball_constants(spec, samples=[], ed=_unreachable, ec=_unreachable)


# ---- affine family and Lipschitz ----


def test_affine_family_trace_distance_identity():
    center = werner(0.9)
    sigma = random_density_matrix(2, 2, seed=11)
    base = trace_distance(center, sigma)
    for p in np.linspace(0, 1, 17):
        rho_p = mix(center, sigma, float(p))
        assert trace_distance(center, rho_p) == pytest.approx(
            float(p) * base, abs=1e-9
        )


def test_lipschitz_bound_endpoints_and_scaling():
    spec = BallSpec(center=werner(0.95), epsilon=1e-3, sample_count=20, seed=12)
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples)
    assert lipschitz_bound(spec.center, spec.center, constants) == 0.0
    surface = samples[0]
    assert lipschitz_bound(spec.center, surface, constants) == pytest.approx(
        constants.delta, rel=1e-9
    )
    halfway = mix(spec.center, surface, 0.5)
    assert lipschitz_bound(spec.center, halfway, constants) == pytest.approx(
        constants.delta / 2, rel=1e-9
    )


def test_lipschitz_bound_rejects_outside_states():
    spec = BallSpec(center=werner(0.95), epsilon=1e-4, sample_count=5, seed=13)
    constants = ball_constants(spec)
    with pytest.raises(ValueError):
        lipschitz_bound(spec.center, maximally_mixed(2, 2), constants)


# ---- corridor ----


def test_corridor_passes_on_certified_werner_ball():
    center = werner(0.95)
    spec = BallSpec(center=center, epsilon=1e-3, sample_count=20, seed=14)
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples)
    report = corridor_consistency_check(
        center, samples[0], constants, np.linspace(0, 1, 20)
    )
    assert report.all_passed
    assert len(report.rows) == 20
    # p = 0 reduces both inequalities to the plain sandwich at the center
    head = report.rows[0]
    assert head.kappa == 0.0
    assert head.scaled_ed_center == pytest.approx(ed_lower(center).value, abs=1e-12)
    assert head.ec_center == pytest.approx(ec_upper(center).value, abs=1e-12)
    assert head.margin_center_side >= 0.0


def test_corridor_negative_control_reports_violation():
    center = werner(0.95)
    spec = BallSpec(center=center, epsilon=1e-3, sample_count=10, seed=15)
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples)
    broken = corridor_consistency_check(
        center,
        samples[0],
        constants,
        np.linspace(0, 1, 10),
        ec=lambda states: 0.5 * bound_values("ec_upper", states),
    )
    assert not broken.all_passed
    assert any(not row.passed for row in broken.rows)


def test_corridor_refuses_an_empty_grid():
    # no row would pass vacuously
    center = werner(0.95)
    spec = BallSpec(center=center, epsilon=1e-4, sample_count=5, seed=10)
    constants = ball_constants(spec)
    with pytest.raises(ValueError, match="^the corridor grid must contain at least one p$"):
        corridor_consistency_check(center, werner(0.9), constants, [], ed=_unreachable, ec=_unreachable)


def test_corridor_reverse_mix_flag():
    center = werner(0.95)
    sigma = werner(0.9)  # points back along the family: reverse stays valid
    spec = BallSpec(center=center, epsilon=5e-2, sample_count=5, seed=16)
    constants = ball_constants(spec)
    report = corridor_consistency_check(center, sigma, constants, [0.0, 0.5, 1.0])
    assert [row.reverse_mix_available for row in report.rows] == [True, True, True]
    # weight p - 1 = -0.5 pushes a pure center outside the state cone
    pure = phi_plus()
    spec2 = BallSpec(center=pure, epsilon=5e-2, sample_count=5, seed=17)
    constants2 = ball_constants(spec2)
    report2 = corridor_consistency_check(
        pure, maximally_mixed(2, 2), constants2, [0.5]
    )
    assert report2.rows[0].reverse_mix_available is False


# ---- border scans ----


def wootters(states):
    """An eof hook that takes eof_2x2 state by state, so it refuses any
    state that is not two qubits."""
    return [eof_2x2(state).value for state in states]


def test_border_2x2_werner_threshold():
    rows = border_scan(werner, np.linspace(0, 1, 101), partial(bound_values, "ec_upper"))
    for row in rows:
        expected_c = max(0.0, (3 * row.param - 1) / 2)
        if expected_c == 0.0:
            assert row.eof <= 1e-12
            assert row.log_neg <= 1e-12
            assert row.ppt_margin >= -1e-12
        else:
            assert row.eof > 0.0
            assert row.log_neg > 0.0
            assert row.ppt_margin < 1e-12


def test_border_2x2_continuity_near_threshold():
    rows = border_scan(werner, [1 / 3 + 1e-4], partial(bound_values, "ec_upper"))
    assert rows[0].eof <= 1e-3
    assert rows[0].log_neg <= 1e-3


def test_border_2x2_rejects_bad_family():
    with pytest.raises(TypeError):
        border_scan(lambda p: np.eye(4) / 4, [0.1], wootters)
    with pytest.raises(DimensionMismatchError):
        border_scan(lambda p: maximally_mixed(2, 3), [0.1], wootters)


def test_border_2xn_margin_matches_closed_form():
    rows = border_scan(isotropic_2x3, np.linspace(0, 1, 41))
    for row in rows:
        assert row.ppt_margin == pytest.approx(
            (1 - row.param) / 6 - row.param / 2, abs=1e-12
        )
        assert (row.log_neg <= 1e-9) == (row.ppt_margin >= -1e-9)
        assert row.eof is None


def test_border_2xn_optional_eof_column():
    eof = partial(bound_values, "ec_upper", budget=60, seed=0)
    rows = border_scan(isotropic_2x3, [0.0, 0.9], eof)
    assert rows[0].eof <= 1e-6  # maximally mixed is separable
    assert rows[1].eof > 0.1


@pytest.mark.parametrize("family, ppt_points", [(werner, 14), (isotropic_2x3, 11)])
def test_ed_lower_is_zero_where_ppt_and_at_most_log_negativity_on_the_border_paths(family, ppt_points):
    # E_D = 0 on PPT states, and E_N bounds E_D from above; the 1e-12 slack
    # covers hashing above log-negativity by up to 3.3e-16 on these grids.
    # The hook puts ed_lower in the eof column.
    rows = border_scan(family, np.linspace(0.0, 1.0, 41), partial(bound_values, "ed_lower"))
    ppt = [row for row in rows if row.ppt_margin >= 0.0]
    assert len(ppt) == ppt_points
    assert all(row.eof == 0.0 for row in ppt)
    assert all(row.eof <= row.log_neg + 1e-12 for row in rows)


def test_border_2xn_requires_qubit_first_party():
    with pytest.raises(ValueError):
        border_scan(lambda p: maximally_mixed(3, 3), [0.2])
