import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds.errors import DimensionMismatchError, StateValidityError
from entbounds.linalg import mix, tensor_power
from entbounds.measures import (
    BellDiagonalProbs,
    MeasureValue,
    binary_entropy,
    concurrence_2x2,
    ec_upper,
    ed_lower,
    entropy_of_entanglement,
    eof_2x2,
    eof_upper_general,
    hashing_yield,
    is_ppt,
    log_negativity,
    twirl_to_bell_diagonal,
    von_neumann_entropy,
)
from entbounds.sampling import (
    random_density_matrix,
    random_pure_state,
    random_separable_state,
)
from entbounds.states import maximally_mixed, phi_plus, werner
from support import (
    apply_one_sided_channel,
    random_kraus_set,
    random_local_unitary_conjugate,
)

PHI = phi_plus().to_density_matrix()


# ---- scalar entropies ----


def test_binary_entropy_endpoints_and_frozen_value():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None)
def test_binary_entropy_bounds_and_symmetry(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_von_neumann_entropy_pure_and_mixed():
    assert von_neumann_entropy(PHI.entries) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    # mild negative eigenvalues are clamped, genuine ones rejected
    assert von_neumann_entropy(np.diag([1.0 + 1e-10, -1e-10])) >= 0.0
    with pytest.raises(StateValidityError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_entropy_of_entanglement_oracles():
    assert entropy_of_entanglement(phi_plus()).value == pytest.approx(1.0, abs=1e-12)
    psi = random_pure_state(2, 3, seed=1)
    rho = psi.to_density_matrix()
    from entbounds.linalg import partial_trace

    marginal = von_neumann_entropy(partial_trace(rho, "B"))
    assert entropy_of_entanglement(psi).value == pytest.approx(marginal, abs=1e-10)


# ---- negativity and PPT ----


def test_log_negativity_of_phi_plus_is_one():
    mv = log_negativity(PHI)
    assert mv.value == pytest.approx(1.0, abs=1e-12)
    assert mv.kind == "exact"


def test_log_negativity_zero_iff_ppt_away_from_border():
    # grid avoids a small window around the crossing so rounding noise
    # cannot flip either side of the equivalence
    weights = [w for w in np.linspace(0, 1, 97) if abs(w - 1 / 3) > 0.02]
    for w in weights:
        state = werner(float(w))
        assert (log_negativity(state).value > 1e-9) == (not is_ppt(state).ppt)


def test_log_negativity_additive_under_tensor_powers():
    rho = random_density_matrix(2, 2, seed=2)
    single = log_negativity(rho).value
    for n in (2, 3, 4):
        value = log_negativity(tensor_power(rho, n)).value
        assert value == pytest.approx(n * single, abs=1e-8)


def test_log_negativity_monotone_under_one_sided_channels():
    # a local channel without selection cannot raise it
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density_matrix(2, 2, seed=rng)
        kraus = random_kraus_set(2, 2, seed=rng)
        party = "A" if rng.random() < 0.5 else "B"
        out = apply_one_sided_channel(rho, kraus, party=party)
        assert log_negativity(out).value <= log_negativity(rho).value + 1e-9


def test_is_ppt_margin_tracks_minimum_eigenvalue():
    verdict = is_ppt(werner(1.0))
    assert not verdict.ppt
    assert verdict.margin == pytest.approx(-0.5, abs=1e-12)


# ---- two-qubit closed forms ----


def test_concurrence_matches_werner_closed_form():
    for w in np.linspace(0, 1, 51):
        expected = max(0.0, (3 * float(w) - 1) / 2)
        assert concurrence_2x2(werner(float(w))) == pytest.approx(expected, abs=1e-12)


def test_concurrence_on_pure_states_matches_marginal_purity():
    from entbounds.linalg import partial_trace

    for seed in range(30):
        psi = random_pure_state(2, 2, seed=seed)
        rho = psi.to_density_matrix()
        ra = partial_trace(rho, "B")
        oracle = np.sqrt(max(0.0, 2.0 * (1.0 - float(np.trace(ra @ ra).real))))
        assert concurrence_2x2(rho) == pytest.approx(oracle, abs=1e-9)


def test_concurrence_agrees_with_direct_eigenvalue_route():
    # independent route: eigenvalues of rho (YxY) rho* (YxY), unsorted
    # square roots; noisier near rank deficiency, hence the loose tol
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = random_density_matrix(2, 2, seed=rng)
        m = rho.entries @ yy @ rho.entries.conj() @ yy
        lam = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
        lam = np.sort(lam)[::-1]
        direct = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert concurrence_2x2(rho) == pytest.approx(direct, abs=1e-7)
    with pytest.raises(DimensionMismatchError):
        concurrence_2x2(maximally_mixed(2, 3))


def test_eof_2x2_frozen_value_and_monotonicity():
    # werner weight 0.8 has concurrence 0.7
    assert eof_2x2(werner(0.8)).value == pytest.approx(0.5918574071706773, abs=1e-12)
    values = [eof_2x2(werner(float(w))).value for w in np.linspace(1 / 3, 1, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert eof_2x2(PHI).value == pytest.approx(1.0, abs=1e-12)


# ---- twirling and hashing ----


def test_twirl_wipes_off_diagonal_keeps_bell_weights():
    probs = twirl_to_bell_diagonal(werner(0.99)).probs
    assert np.allclose(probs, [0.0025, 0.0025, 0.0025, 0.9925], atol=1e-12)
    # first weight is the overlap with the maximally entangled state
    assert twirl_to_bell_diagonal(PHI).probs[0] == pytest.approx(1.0, abs=1e-12)


def test_hashing_yield_oracles():
    assert hashing_yield(BellDiagonalProbs([1, 0, 0, 0])).value == 1.0
    assert hashing_yield(BellDiagonalProbs([0.25] * 4)).value == 0.0
    probs = twirl_to_bell_diagonal(werner(0.9))
    assert hashing_yield(probs).value == pytest.approx(0.4968162683194163, abs=1e-12)
    mv = hashing_yield(probs)
    assert mv.kind == "lower_bound"


def test_ed_lower_ignores_bell_relabeling():
    # permuting the four weights only permutes the distribution, so the
    # sorted-weight yield already covers every relabeling
    probs = twirl_to_bell_diagonal(werner(0.9)).probs
    base = ed_lower(werner(0.9)).value
    for perm in ([3, 0, 1, 2], [1, 3, 0, 2]):
        h = -(probs[perm] @ np.log2(probs[perm]))
        assert max(0.0, 1.0 - h) == pytest.approx(base, abs=1e-12)


def test_ed_lower_vacuous_outside_two_qubits():
    mv = ed_lower(maximally_mixed(2, 3))
    assert mv.value == 0.0
    assert mv.method == "ed_lower_vacuous"


def test_ed_lower_at_most_ec_upper_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density_matrix(2, 2, seed=rng)
        assert ed_lower(rho).value <= ec_upper(rho).value + 1e-12


def test_bell_diagonal_probs_validation():
    with pytest.raises(ValueError):
        BellDiagonalProbs([0.5, 0.5, 0.1, -0.1])
    with pytest.raises(ValueError):
        BellDiagonalProbs([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        BellDiagonalProbs([1.0, 0.0, 0.0])


def test_measure_value_validation():
    with pytest.raises(ValueError):
        MeasureValue(-0.1, "exact", "x")
    with pytest.raises(ValueError):
        MeasureValue(0.1, "estimate", "x")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            MeasureValue(bad, "upper_bound", "x")
    assert MeasureValue(np.float64(0.5), "exact", "x").value == 0.5
    assert isinstance(MeasureValue(np.float64(0.5), "exact", "x").value, float)


# ---- invariance probes ----


def test_measures_invariant_under_local_unitaries():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density_matrix(2, 2, seed=rng)
        rotated = random_local_unitary_conjugate(rho, seed=rng)
        assert log_negativity(rotated).value == pytest.approx(
            log_negativity(rho).value, abs=1e-9
        )
        assert concurrence_2x2(rotated) == pytest.approx(
            concurrence_2x2(rho), abs=1e-9
        )
        assert eof_2x2(rotated).value == pytest.approx(eof_2x2(rho).value, abs=1e-9)


# ---- decomposition search upper bound ----


def test_eof_search_exact_on_pure_states():
    psi = random_pure_state(2, 2, seed=7)
    rho = psi.to_density_matrix()
    got = eof_upper_general(rho, budget=1, seed=0)
    assert got.value == pytest.approx(entropy_of_entanglement(psi).value, abs=1e-9)
    assert got.kind == "upper_bound"


def test_eof_search_matches_closed_form_on_mixed_states():
    rng = np.random.default_rng(8)
    for _ in range(5):
        rho = random_density_matrix(2, 2, seed=rng)
        up = eof_upper_general(rho, budget=300, seed=0).value
        exact = eof_2x2(rho).value
        assert up >= exact - 1e-9
        assert up - exact < 1e-3


def test_eof_search_finds_zero_on_separable_states():
    for dims, seed in (((2, 2), 9), ((2, 3), 10)):
        sep = random_separable_state(*dims, seed=seed)
        assert eof_upper_general(sep, budget=120, seed=0).value <= 1e-6


def test_eof_search_monotone_in_budget_and_deterministic():
    rho = random_density_matrix(3, 3, seed=11, rank=4)
    values = [eof_upper_general(rho, budget=b, seed=2).value for b in (2, 8, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    again = eof_upper_general(rho, budget=32, seed=2).value
    assert again == values[-1]


def test_eof_search_argument_validation():
    rho = random_density_matrix(2, 2, seed=12)
    with pytest.raises(ValueError):
        eof_upper_general(rho, budget=0)
    with pytest.raises(ValueError):
        eof_upper_general(rho, k=1, budget=10)


def test_ec_upper_dispatch():
    assert ec_upper(werner(0.8)).method == "ec_upper_eof_2x2"
    small = random_separable_state(2, 3, seed=13)
    mv = ec_upper(small, budget=60, seed=0)
    assert mv.method == "ec_upper_eof_search"
    assert mv.kind == "upper_bound"


def test_eof_search_upper_bounds_along_a_mixing_path():
    # mixing toward the identity cannot be cheaper than the closed form
    rho = werner(0.9)
    for p in (0.0, 0.3, 0.6):
        state = mix(rho, maximally_mixed(2, 2), p)
        assert eof_upper_general(state, budget=150, seed=1).value >= (
            eof_2x2(state).value - 1e-9
        )
