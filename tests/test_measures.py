import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds import measures
from entbounds.errors import DimensionMismatchError, StateValidityError
from entbounds.linalg import DensityMatrix, mix, stack
from entbounds.measures import (
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    MeasureValue,
    _columns,
    _descend,
    _evaluate,
    best,
    binary_entropy,
    bound_routes,
    bound_values,
    ec_upper,
    ed_lower,
    eof_2x2,
    eof_upper_general,
    log_negativity,
    von_neumann_entropy,
)
from entbounds.sampling import haar_qr, random_density_matrix
from entbounds.states import isotropic_2x3, maximally_mixed, phi_plus, werner
from support import (
    BellDiagonalProbs,
    apply_one_sided_channel,
    concurrence_2x2,
    entanglement_entropy,
    hashing_yield,
    is_ppt,
    max_entangled,
    pure_state,
    random_kraus_set,
    random_local_unitary_conjugate,
    random_low_rank_state,
    random_pure_amplitudes,
    random_separable_state,
    swap_parties,
    tensor_power,
    twirl_to_bell_diagonal,
)

PHI = phi_plus()


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
    assert entanglement_entropy(max_entangled(2), 2, 2) == pytest.approx(1.0, abs=1e-12)
    amps = random_pure_amplitudes(2, 3, seed=1)
    rho = pure_state(2, 3, amps)
    from entbounds.linalg import partial_trace

    marginal = von_neumann_entropy(partial_trace(rho, "B"))
    assert entanglement_entropy(amps, 2, 3) == pytest.approx(marginal, abs=1e-10)


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
        rho = pure_state(2, 2, random_pure_amplitudes(2, 2, seed=seed))
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


# ---- routes: one rule picks each bound's method ----


def _not_run(states, entries):
    raise AssertionError("a route that does not apply ran")


def _constant_routes(values):
    """Routes named r0, r1, ... that apply to every shape and give one
    value to every state; where the value is None, a route that applies
    to no shape and raises if run."""
    return [
        (f"r{i}", lambda dims: False, _not_run)
        if v is None
        else (f"r{i}", lambda dims: True, lambda states, entries, v=v: [v] * len(states))
        for i, v in enumerate(values)
    ]


@pytest.mark.parametrize(
    "kind, values, expected",
    [
        # equal values: the earlier route keeps its name
        (KIND_LOWER, (0.5, 0.5), ("r0", 0.5)),
        (KIND_UPPER, (0.5, 0.5), ("r0", 0.5)),
        # better by 1e-13 is a tie; better by 1e-11 wins
        (KIND_LOWER, (0.5, 0.5 + 1e-13), ("r0", 0.5)),
        (KIND_UPPER, (0.5, 0.5 - 1e-13), ("r0", 0.5)),
        (KIND_LOWER, (0.5, 0.5 + 1e-11), ("r1", 0.5 + 1e-11)),
        (KIND_UPPER, (0.5, 0.5 - 1e-11), ("r1", 0.5 - 1e-11)),
        # a worse later route loses by any margin
        (KIND_LOWER, (0.5, 0.3), ("r0", 0.5)),
        (KIND_UPPER, (0.5, 0.7), ("r0", 0.5)),
        # the band is measured from the kept value, not from the last route
        (KIND_LOWER, (0.5, 0.5 + 0.6e-12, 0.5 + 1.2e-12), ("r2", 0.5 + 1.2e-12)),
        # routes that do not apply are skipped, and never run, wherever they stand
        (KIND_LOWER, (None, 0.3, None), ("r1", 0.3)),
        (KIND_UPPER, (None, 0.3, None), ("r1", 0.3)),
        (KIND_LOWER, (0.0, None, 0.2), ("r2", 0.2)),
        (KIND_UPPER, (None, 0.2, 0.1), ("r2", 0.1)),
    ],
)
def test_best_keeps_the_earlier_route_unless_beaten_by_more_than_1e_12(kind, values, expected):
    method, value = expected
    assert best(kind, _constant_routes(values), [PHI]) == [MeasureValue(value, kind, method)]


def test_bound_route_names_in_order():
    names = {
        measure: (kind, [method for method, _, _ in routes])
        for measure, (kind, routes) in bound_routes().items()
    }
    assert names == {
        "log_negativity": (KIND_EXACT, ["log_negativity"]),
        "eof_2x2": (KIND_EXACT, ["eof_2x2"]),
        "concurrence_2x2": (KIND_EXACT, ["concurrence_2x2"]),
        "von_neumann_entropy": (KIND_EXACT, ["von_neumann_entropy"]),
        "ed_lower": (KIND_LOWER, ["ed_lower_hashing", "ed_lower_vacuous"]),
        "ec_upper": (KIND_UPPER, ["ec_upper_eof_2x2", "ec_upper_eof_search"]),
        "eof_upper_general": (KIND_UPPER, ["eof_upper_general"]),
    }


def test_each_route_applies_where_its_table_says():
    # each route that applies to a shape gives one value on a state of it
    shapes = {(2, 2): werner(0.9), (2, 3): isotropic_2x3(0.6)}
    applies = {}
    for _, routes in bound_routes(budget=5).values():
        for method, holds, fn in routes:
            applies[method] = tuple(holds(dims) for dims in shapes)
            for dims, rho in shapes.items():
                if holds(dims):
                    (value,) = fn([rho], rho.entries[None])
                    assert np.isfinite(value) and value >= 0.0
    assert applies == {
        "log_negativity": (True, True),
        "eof_2x2": (True, False),
        "concurrence_2x2": (True, False),
        "von_neumann_entropy": (True, True),
        "ed_lower_hashing": (True, False),
        "ed_lower_vacuous": (True, True),
        "ec_upper_eof_2x2": (True, False),
        "ec_upper_eof_search": (False, True),
        "eof_upper_general": (True, True),
    }


def test_a_lower_bound_added_to_the_table_keeps_the_largest_route(monkeypatch):
    # the direction comes from the entry, not from the bound's name
    table = bound_routes

    def with_ef_lower(budget=measures.DEFAULT_EOF_BUDGET, seed=0):
        return {**table(budget, seed), "ef_lower": (KIND_LOWER, _constant_routes((0.2, 0.3)))}

    monkeypatch.setattr(measures, "bound_routes", with_ef_lower)
    states = [PHI, werner(0.9)]
    assert best(*measures.bound_routes()["ef_lower"], states) == [MeasureValue(0.3, KIND_LOWER, "r1")] * 2
    assert bound_values("ef_lower", states).tolist() == [0.3, 0.3]


def test_a_list_of_mixed_shapes_raises_before_any_route_runs(monkeypatch):
    table, called = bound_routes, []

    def spied(budget=measures.DEFAULT_EOF_BUDGET, seed=0):
        def spy(method, fn):
            return lambda states, entries: called.append(method) or fn(states, entries)

        return {
            bound: (direction, [(method, applies, spy(method, fn)) for method, applies, fn in routes])
            for bound, (direction, routes) in table(budget, seed).items()
        }

    monkeypatch.setattr(measures, "bound_routes", spied)
    qubits, qutrits = werner(0.9), maximally_mixed(2, 3)
    # the last list puts the odd shape in the second block of STACK_BLOCK
    for mixed in ([qubits, qutrits], [qutrits, qubits], [qubits] * 300 + [qutrits]):
        for bound in ("ed_lower", "ec_upper"):
            with pytest.raises(DimensionMismatchError):
                bound_values(bound, mixed, budget=5)
            with pytest.raises(DimensionMismatchError):
                best(*measures.bound_routes(budget=5)[bound], mixed)
    assert called == []
    bound_values("ed_lower", [qubits])
    assert called == ["ed_lower_hashing", "ed_lower_vacuous"]


def test_ed_lower_hashing_keeps_its_name_in_the_tie_with_vacuous():
    # both routes give 0 on the maximally mixed state; the earlier one is named
    assert ed_lower(maximally_mixed(2, 2)) == MeasureValue(0.0, KIND_LOWER, "ed_lower_hashing")


def test_ec_upper_runs_no_search_on_two_qubits(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran on a 2x2 state")

    monkeypatch.setattr(measures, "eof_upper_general", search)
    assert ec_upper(werner(0.9)).method == "ec_upper_eof_2x2"


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


def _invariance_states() -> list[list[DensityMatrix]]:
    """Seeded states of each shape, one list per shape: Werner states,
    mixtures 0.85 (rotated phi+) + 0.15 (random state) and random states
    of 2x2, then isotropic and random 2x3 states, and random 3x2 and 3x3
    states."""
    rng = np.random.default_rng(2301)
    qubits = [werner(float(w)) for w in rng.uniform(0.0, 1.0, 40)]
    qubits += [
        mix(random_local_unitary_conjugate(PHI, seed=rng), random_density_matrix(2, 2, seed=rng), 0.15)
        for _ in range(80)
    ]
    qubits += [random_density_matrix(2, 2, seed=rng) for _ in range(80)]
    others = [[random_density_matrix(a, b, seed=rng) for _ in range(50)] for a, b in ((2, 3), (3, 2), (3, 3))]
    others[0] += [isotropic_2x3(float(q)) for q in rng.uniform(0.0, 1.0, 20)]
    return [qubits, *others]


# every route of the table but the two searches, which are seeded and
# local and wait for an E_F lower bound to be gated against; each as its
# (applies, fn) pair
SEARCH_ROUTES = {"ec_upper_eof_search", "eof_upper_general"}
INVARIANT_ROUTES = {
    method: (applies, fn)
    for _, routes in bound_routes().values()
    for method, applies, fn in routes
    if method not in SEARCH_ROUTES
}
# (route, change) pairs not yet invariant: the list shrinks and never grows
NOT_YET_INVARIANT = {("ed_lower_hashing", "local_unitary")}


@pytest.mark.parametrize(
    "method, change",
    [
        pytest.param(
            method,
            change,
            marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason="fixed-basis Bell weights")]
            if (method, change) in NOT_YET_INVARIANT
            else [],
        )
        for method in INVARIANT_ROUTES
        for change in ("local_unitary", "party_swap")
    ],
)
def test_every_route_is_invariant_under_local_unitaries_and_the_party_swap(method, change):
    applies, fn = INVARIANT_ROUTES[method]
    rng = np.random.default_rng(2302)
    changed = {
        "local_unitary": lambda rho: random_local_unitary_conjugate(rho, seed=rng),
        "party_swap": swap_parties,
    }[change]
    applied = 0
    for states in _invariance_states():
        entries, dims = stack(states)
        if not applies(dims):
            continue
        before = fn(states, entries)
        moved = [changed(rho) for rho in states]
        entries, dims = stack(moved)
        assert applies(dims)
        after = fn(moved, entries)
        assert np.max(np.abs(np.asarray(after) - np.asarray(before))) <= 1e-12
        applied += len(states)
    assert applied > 0


# ---- decomposition search upper bound ----


def test_eof_search_exact_on_pure_states():
    amps = random_pure_amplitudes(2, 2, seed=7)
    got = eof_upper_general(pure_state(2, 2, amps), budget=1, seed=0)
    assert got.value == pytest.approx(entanglement_entropy(amps, 2, 2), abs=1e-9)
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
    # a larger budget only appends records, and the stop rule looks at the
    # descents alone, so it runs a prefix of the same descents: no slack
    for rho, budgets in (
        (random_low_rank_state(3, 3, 4, seed=11), (2, 8, 32)),
        # entangled; from budget 64 on the stop rule ends the search
        (random_density_matrix(2, 2, seed=1002), (4, 16, 64, 256)),
    ):
        values = [eof_upper_general(rho, budget=b, seed=2).value for b in budgets]
        assert all(b <= a for a, b in zip(values, values[1:]))
        again = eof_upper_general(rho, budget=budgets[-1], seed=2).value
        assert again == values[-1]


def _search_and_descents(monkeypatch, rho, budget, seed):
    """The search value and the end value of every descent it ran."""
    ends = []

    def recording(*args):
        value, t = _descend(*args)
        ends.append(value)
        return value, t

    monkeypatch.setattr(measures, "_descend", recording)
    return eof_upper_general(rho, budget=budget, seed=seed).value, ends


@pytest.mark.parametrize(
    "rho, budget, seed, ran, records, scatter",
    [
        (isotropic_2x3(0.8), 400, 0, 3, 10, 0.0),
        # just past the PPT border: descents that spread by a few 1e-12
        # here would never agree, and all four records would be refined
        (isotropic_2x3(0.26), 400, 7, 3, 4, 0.0),
    ],
    ids=["isotropic_2x3", "isotropic_2x3_past_ppt_border"],
)
def test_eof_search_stops_after_agreeing_descents(
    monkeypatch, rho, budget, seed, ran, records, scatter
):
    value, ends = _search_and_descents(monkeypatch, rho, budget, seed)
    monkeypatch.setattr(measures, "AGREEING_DESCENTS", records + 1)
    every, every_ends = _search_and_descents(monkeypatch, rho, budget, seed)
    assert (len(ends), len(every_ends)) == (ran, records)
    assert ends == every_ends[:ran]
    assert max(ends) - min(ends) >= scatter
    assert 0.0 <= value - every <= 1e-12


def test_eof_search_descents_converge_just_past_the_ppt_border(monkeypatch):
    # with every record refined, each descent ends within 1e-10 of the best;
    # conjugate gradient stopped at DESCENT_LIMIT 2.9e-7 to 4.0e-7 above it
    monkeypatch.setattr(measures, "AGREEING_DESCENTS", 1000)
    _, ends = _search_and_descents(monkeypatch, isotropic_2x3(0.26), 20, 1)
    assert len(ends) == 7
    assert max(ends) - min(ends) <= 1e-10


def test_eof_search_failed_check_resets_the_agreeing_count(monkeypatch):
    # descents 2, 4 and 5 agree with the best, but descent 3 fails the
    # decomposition check and resets the count: the search stops after
    # descent 5, where it stops after descent 3 when every check passes
    ok = measures._decomposition_ok
    checks = []

    def failing_third(b, rho_entries):
        checks.append(b)
        return len(checks) != 3 and ok(b, rho_entries)

    monkeypatch.setattr(measures, "_decomposition_ok", failing_third)
    _, ends = _search_and_descents(monkeypatch, isotropic_2x3(0.8), 400, 0)
    assert len(ends) == 5


@pytest.mark.parametrize(
    "ends, failing, ran, value",
    [
        # two descents in a row within 1e-12 of the best earlier one
        ([0.5, 0.5, 0.5], (), 3, 0.5),
        # a miss by 1e-11 resets the count
        ([0.5, 0.5, 0.5 + 1e-11, 0.5, 0.5], (), 5, 0.5),
        # a descent below 1e-9 ends the search at once
        ([0.5, 5e-10], (), 2, 5e-10),
        # a descent that fails the decomposition check resets the count,
        # and its value is not taken
        ([0.5, 0.5, 0.25, 0.5, 0.5], (2,), 5, 0.5),
    ],
    ids=["agree", "miss", "below_1e-9", "failed_check"],
)
def test_eof_search_stop_rule_on_scripted_descents(monkeypatch, ends, failing, ran, value):
    # descent i ends at ends[i], at its start T, or at 2 T, which is not a
    # decomposition of rho, for i in failing.  The input has ten records,
    # all scored above 0.79, so the rule, not the records, ends the search
    calls = []

    def scripted(a, t, dim_a, dim_b):
        i = len(calls)
        calls.append(t)
        return ends[i], 2.0 * t if i in failing else t

    monkeypatch.setattr(measures, "_descend", scripted)
    assert eof_upper_general(isotropic_2x3(0.8), budget=400, seed=0).value == value
    assert len(calls) == ran


@pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (3, 3)])
def test_eof_search_descends_from_each_record_as_scored(monkeypatch, dim_a, dim_b):
    # every record refined by a descent that stays at its start; each record
    # reaches the descent unchanged, and its score is the value there
    records, starts = [], []
    records_of = measures._records

    def recording_records(*args):
        for score, w in records_of(*args):
            records.append((score, w))
            yield score, w

    def staying(a, t, dim_a, dim_b):
        starts.append((a, t))
        return 1.0, t

    monkeypatch.setattr(measures, "AGREEING_DESCENTS", 1000)
    monkeypatch.setattr(measures, "_records", recording_records)
    monkeypatch.setattr(measures, "_descend", staying)
    eof_upper_general(random_density_matrix(dim_a, dim_b, seed=4), budget=200, seed=0)
    assert len(starts) == len(records) >= 3
    for (score, w), (a, t) in zip(records, starts):
        rank = a.shape[1]
        assert t is w
        assert w.shape == (rank, rank + 2)
        assert np.allclose(w @ w.conj().T, np.eye(rank), rtol=0.0, atol=1e-12)
        assert _evaluate(a, w, dim_a, dim_b)[0] == pytest.approx(score, rel=1e-12, abs=0.0)


def test_eof_search_scoring_memory_is_bounded_by_rank(monkeypatch):
    # every record refined by a descent that stays at its start, so all 511
    # restarts are scored, in the blocks 1, 2, ..., 256.  Scored on
    # side^2 = 1296 columns instead of rank + 2 = 38, they peaked at 962 MiB
    monkeypatch.setattr(measures, "AGREEING_DESCENTS", 1000)
    monkeypatch.setattr(measures, "_descend", lambda a, t, dim_a, dim_b: (0.5, t))
    sizes = _count_blocks(monkeypatch)
    rho = random_density_matrix(6, 6, seed=0)
    tracemalloc.start()
    try:
        eof_upper_general(rho, budget=511, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 511
    assert peak < 64 * 2**20


def _near_border_2x2() -> DensityMatrix:
    """First Ginibre draw of rng seed 5 whose Wootters margin
    l1 - l2 - l3 - l4 lies in [-1e-3, -1e-4]; it is about -3.1e-4.

    The l_i are the singular values of sqrt(rho) (YxY) conj(sqrt(rho)).
    """
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    rng = np.random.default_rng(5)
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(2, 2, m / np.trace(m).real)
        w, v = np.linalg.eigh(rho.entries)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        s = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
        if -1e-3 <= s[0] - s[1] - s[2] - s[3] <= -1e-4:
            return rho


def test_eof_search_certifies_near_border_state():
    assert eof_upper_general(_near_border_2x2(), budget=120, seed=0).value <= 1e-9


def _decomposition_with_delicate_columns(dim_a, dim_b, k, rng):
    """B, A = sqrt of rho = B B^dag and the co-isometry T with A T = B, for
    a random B of k columns whose first column is a product vector.

    For dim_a == 2, columns 1 to 3 are where the closed form is delicate:
    a product column with a zero row (det = 0, so s2 = 0 exactly), a
    maximally entangled one (G proportional to 1, disc = 0 exactly) and a
    near-degenerate one (s1/s2 = (1 + 1e-6)^2).
    """
    side = dim_a * dim_b
    b = rng.standard_normal((side, k)) + 1j * rng.standard_normal((side, k))
    x = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    y = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    b[:, 0] = np.kron(x, y)
    if dim_a == 2:
        b[:, 1] = np.kron([1.0, 0.0], y)
        b[:, 2] = np.eye(2, dim_b).reshape(-1)
        u = haar_qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        w = haar_qr(rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b)))
        b[:, 3] = (u @ np.diag([1.0, 1.0 + 1e-6]) @ w[:2]).reshape(-1)
    b /= np.linalg.norm(b)
    eigs, vecs = np.linalg.eigh(b @ b.conj().T)
    a = vecs * np.sqrt(eigs)
    return b, a, np.linalg.solve(a, b)


# at (3, 2) every column's 3 x 3 Gram matrix has a zero eigenvalue
@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 3), (3, 2)])
def test_descent_gradient_and_value(dim_a, dim_b):
    side = dim_a * dim_b
    k = side + 2
    rng = np.random.default_rng(dim_a + dim_b)
    b, a, t = _decomposition_with_delicate_columns(dim_a, dim_b, k, rng)
    assert np.allclose(t @ t.conj().T, np.eye(side), atol=1e-12)
    h = 1e-6
    # the evaluation the descent calls, at A T and at B itself (A = 1),
    # where the delicate columns are exact
    for a_, t_ in ((a, t), (np.eye(side), b)):
        z = _evaluate(a_, t_, dim_a, dim_b)[1]()
        for _ in range(3):
            e = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
            central = (
                _evaluate(a_, t_ + h * e, dim_a, dim_b)[0] - _evaluate(a_, t_ - h * e, dim_a, dim_b)[0]
            ) / (2 * h)
            assert central == pytest.approx(2 * np.vdot(z, e).real, rel=1e-6)
        if dim_a == 2:
            # the closed form against the kernel's eigh branch, fed the same
            # columns with a zero A-row appended
            m = (a_ @ t_).T.reshape(k, 2, dim_b)
            terms, logs = _columns(m)
            padded_terms, padded_logs = _columns(np.concatenate([m, np.zeros((k, 1, dim_b))], axis=1))
            assert np.linalg.norm(padded_terms - terms) <= 1e-12 * np.linalg.norm(terms)
            closed, padded = logs(), padded_logs()
            assert np.linalg.norm(padded[:, :2] - closed) <= 1e-12 * np.linalg.norm(closed)
            assert np.all(padded[:, 2] == 0.0)
    value, end = _descend(a, t, dim_a, dim_b)
    assert value == pytest.approx(_evaluate(a, end, dim_a, dim_b)[0], abs=1e-12)
    assert value < _evaluate(a, t, dim_a, dim_b)[0]
    assert np.allclose(end @ end.conj().T, np.eye(side), atol=1e-12)


@pytest.mark.parametrize("n", [4, 24])
def test_inverse_hessian_update_keeps_the_secant_equation(n):
    # three successive pairs of positive curvature, the first from h = None:
    # each update maps y to s and stays symmetric, to rounding, and
    # positive definite
    rng = np.random.default_rng(n)
    h = None
    for _ in range(3):
        s = rng.standard_normal(n)
        y = s * (1.0 + rng.random(n)) + 0.1 * rng.standard_normal(n)
        assert s @ y > 0.0
        h = measures._inverse_hessian_update(h, s, y)
        assert np.linalg.norm(h @ y - s) <= 1e-12 * np.linalg.norm(s)
        assert np.max(np.abs(h - h.T)) <= 1e-14 * np.max(np.abs(h))
        np.linalg.cholesky(h)


def test_qubit_closed_form_keeps_small_schmidt_values():
    # the column diag(1, delta): squared Schmidt values 1 and delta^2 = 1e-14,
    # for which (q - disc)/2 put the term 7.8e-4 (relative) off
    delta = 1e-7
    column = np.diag([1.0, delta]).astype(complex)
    q = 1.0 + delta**2
    exact = q * np.log1p(delta**2) / np.log(2.0) - delta**2 * np.log2(delta**2)
    close = pytest.approx(exact, rel=1e-10, abs=0.0)
    assert _columns(column[None])[0][0] == close
    assert _evaluate(np.eye(4), column.reshape(4, 1), 2, 2)[0] == close


def _count_blocks(monkeypatch):
    """The sizes of the restart blocks the search draws, as it draws them."""
    sizes = []
    stream = measures._coisometry_stream

    def counting(rng, count, k, r):
        sizes.append(count)
        return stream(rng, count, k, r)

    monkeypatch.setattr(measures, "_coisometry_stream", counting)
    return sizes


def test_eof_search_scores_blocks_only_while_descents_need_records(monkeypatch):
    sizes = _count_blocks(monkeypatch)
    sep = random_separable_state(2, 2, seed=9)
    value = eof_upper_general(sep, budget=2000, seed=0).value
    assert sizes == [1]
    assert value == eof_upper_general(sep, budget=1, seed=0).value
    # refining every record needs every restart scored, in blocks that
    # double up to SCORE_BLOCK
    rho = random_density_matrix(2, 2, seed=1002)
    monkeypatch.setattr(measures, "AGREEING_DESCENTS", 1000)
    sizes.clear()
    eof_upper_general(rho, budget=600, seed=2)
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 89]


def test_restart_blocks_draw_the_restarts_of_one_block():
    rng = np.random.default_rng(3)
    blocks = [measures._coisometry_stream(rng, count, 8, 3) for count in (1, 2, 4)]
    whole = measures._coisometry_stream(np.random.default_rng(3), 7, 8, 3)
    assert np.array_equal(np.concatenate(blocks), whole)


def test_eof_search_argument_validation():
    rho = random_density_matrix(2, 2, seed=12)
    with pytest.raises(ValueError):
        eof_upper_general(rho, budget=0)


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
