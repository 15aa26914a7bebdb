"""Stacked kernels against their one-state cases, bit for bit.

Every closed form evaluates a whole stack of states at once; the
one-state public functions are the stack of one.  Row i of a stack must
be the same bytes as state i alone, for the states where rounding is
most likely to differ: seeded random states, the Werner border,
rank-1, product and rank-2 states, and a Bell-diagonal state with a zero
weight (the p > 0 mask of the entropy).
"""

from dataclasses import replace

import numpy as np
import pytest

from entbounds import cli, linalg, measures
from entbounds.continuity import BallConstants, BallSpec, lipschitz_bound, lipschitz_bounds, sample_ball
from entbounds.errors import DimensionMismatchError
from entbounds.linalg import (
    DensityMatrix,
    mix,
    partial_transpose,
    stack,
    trace_distances,
    trace_norm,
)
from entbounds.measures import (
    KIND_LOWER,
    _bell_weights,
    _concurrences,
    _eof_2x2,
    _log_negativity,
    _pt_spectra,
    best,
    bound_routes,
    bound_values,
    ec_upper,
    ed_lower,
    eof_2x2,
    log_negativity,
)
from entbounds.protocols import eta_continuity_scan
from entbounds.sampling import random_density_matrix
from entbounds.states import isotropic_2x3, maximally_mixed, phi_plus, werner
from support import (
    BellDiagonalProbs,
    concurrence_2x2,
    hashing_yield,
    is_ppt,
    pure_state,
    random_low_rank_state,
    random_product_amplitudes,
    shape_checks,
    trace_distance,
    twirl_to_bell_diagonal,
)


def qubit_states() -> list[DensityMatrix]:
    rng = np.random.default_rng(2801)
    return [
        *(random_density_matrix(2, 2, seed=rng) for _ in range(6)),
        # where ball-scan evaluates: near a distillable Werner center
        *sample_ball(BallSpec(center=werner(0.9), epsilon=1e-3, sample_count=40, seed=3)),
        werner(1 / 3),
        phi_plus(),  # rank 1
        pure_state(2, 2, random_product_amplitudes(2, 2, seed=2802)),
        random_low_rank_state(2, 2, 2, seed=2803),
        # Bell weights 0.6, 0, 0, 0.4
        mix(phi_plus(), werner(1.0), 0.4),
    ]


def qutrit_states() -> list[DensityMatrix]:
    rng = np.random.default_rng(2804)
    return [
        *(random_density_matrix(2, 3, seed=rng) for _ in range(4)),
        isotropic_2x3(0.25),
        pure_state(2, 3, random_product_amplitudes(2, 3, seed=2805)),
        random_low_rank_state(2, 3, 2, seed=2806),
    ]


def same_bytes(stacked, one_by_one) -> bool:
    stacked = np.asarray(stacked, dtype=float)
    return stacked.tobytes() == np.asarray(one_by_one, dtype=float).tobytes()


def test_the_bell_diagonal_state_has_a_zero_weight():
    weights = _bell_weights(np.stack([s.entries for s in qubit_states()]))
    assert np.any(weights[-1] == 0.0)
    assert weights[-1].tolist() == twirl_to_bell_diagonal(qubit_states()[-1]).probs.tolist()


def test_two_qubit_closed_forms_of_a_stack_equal_each_state_alone():
    states = qubit_states()
    m = np.stack([s.entries for s in states])
    assert same_bytes(_concurrences(m), [concurrence_2x2(s) for s in states])
    assert same_bytes(_eof_2x2(m), [eof_2x2(s).value for s in states])
    assert same_bytes(_bell_weights(m), [twirl_to_bell_diagonal(s).probs for s in states])
    assert same_bytes(bound_values("ed_lower", states), [ed_lower(s).value for s in states])
    assert same_bytes(bound_values("ec_upper", states), [ec_upper(s).value for s in states])
    # ed_lower is the hashing yield of the weights in decreasing order, with
    # the entropy one dot product per row, as it was taken one state at a time
    ordered = [np.sort(twirl_to_bell_diagonal(s).probs)[::-1] for s in states]
    hashing = [hashing_yield(BellDiagonalProbs(w)).value for w in ordered]
    assert same_bytes(bound_values("ed_lower", states), hashing)
    one_row = [max(0.0, 1.0 - float(-(w[w > 0] @ np.log2(w[w > 0])) + 0.0)) for w in ordered]
    assert same_bytes(hashing, one_row)


@pytest.mark.parametrize("states", [qubit_states(), qutrit_states()], ids=["2x2", "2x3"])
def test_partial_transpose_spectra_of_a_stack_equal_each_state_alone(states):
    spectra = _pt_spectra(*stack(states))
    assert same_bytes(_log_negativity(spectra), [log_negativity(s).value for s in states])
    assert same_bytes(spectra[:, 0], [is_ppt(s).margin for s in states])
    transposes = partial_transpose(*stack(states))
    assert transposes.tobytes() == np.concatenate([partial_transpose(*stack([s])) for s in states]).tobytes()


@pytest.mark.parametrize("states", [qubit_states(), qutrit_states()], ids=["2x2", "2x3"])
def test_trace_distances_of_a_stack_equal_each_pair_alone(states):
    center = states[0]
    assert same_bytes(trace_distances(center, states), [trace_distance(center, s) for s in states])


def test_trace_norm_takes_each_matrix_of_a_stack_by_its_own_route():
    rng = np.random.default_rng(2807)
    hermitian = [a.entries - b.entries for a, b in zip(qubit_states(), qubit_states()[::-1])]
    general = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
    matrices = [general[0], *hermitian[:3], general[1], hermitian[3], general[2]]
    norms = trace_norm(np.stack(matrices))
    assert norms.shape == (len(matrices),)
    assert same_bytes(norms, [trace_norm(m) for m in matrices])
    assert trace_norm(np.zeros((0, 0))) == 0.0
    assert trace_norm(np.stack(hermitian[:4]).reshape(2, 2, 4, 4)).shape == (2, 2)


def test_eta_scan_values_equal_the_hashing_yield_of_each_mixture():
    xi = random_density_matrix(2, 2, seed=2808)
    grid = np.logspace(-4, 0, 9)
    rows = eta_continuity_scan(xi, grid)
    one_by_one = [hashing_yield(twirl_to_bell_diagonal(mix(phi_plus(), xi, float(e)))).value for e in grid]
    assert same_bytes([row.value for row in rows], one_by_one)


def test_blocks_do_not_change_the_values(monkeypatch):
    states = qubit_states()
    whole = bound_values("ec_upper", states)
    seen = []

    def eof(m):
        seen.append(len(m))
        return _eof_2x2(m)

    monkeypatch.setattr(linalg, "STACK_BLOCK", 3)
    monkeypatch.setattr(measures, "_eof_2x2", eof)
    assert bound_values("ec_upper", states).tobytes() == whole.tobytes()
    assert seen == [len(states[i : i + 3]) for i in range(0, len(states), 3)]
    center = states[0]
    assert same_bytes(trace_distances(center, states), [trace_distance(center, s) for s in states])
    # best on the whole list, in blocks of 3 and with one shape check, is
    # best on each state alone: the same values and the same winning route
    qutrits = qutrit_states()
    # the search settles fast on the last three qutrit states
    groups = [(states, "ed_lower"), (states, "ec_upper"), (qutrits, "ed_lower"), (qutrits[4:], "ec_upper")]
    for group, bound in groups:
        entry = bound_routes(budget=1)[bound]
        with shape_checks() as checks:
            together = best(*entry, group)
        alone = [best(*entry, [s])[0] for s in group]
        assert len(checks) == 1
        assert same_bytes([m.value for m in together], [m.value for m in alone])
        assert [m.method for m in together] == [m.method for m in alone]


def test_each_list_is_checked_for_one_shape_once():
    # best checks the whole list once for all of its routes and blocks, and
    # bound_values is best's float view, with no check of its own
    qubits = [werner(float(w)) for w in np.linspace(0.0, 1.0, 300)]
    counts = {}
    for bound in ("ed_lower", "ec_upper"):
        for n in (256, 300):
            with shape_checks() as checks:
                bound_values(bound, qubits[:n])
            counts[bound, n] = len(checks)
    rho, iso = werner(0.9), isotropic_2x3(0.6)
    one_state = {
        "ed_lower": lambda: ed_lower(rho),
        "ec_upper": lambda: ec_upper(rho),
        "ec_upper 2x3": lambda: ec_upper(iso, budget=5),
    }
    for name, call in one_state.items():
        with shape_checks() as checks:
            call()
        counts[name, 1] = len(checks)
    assert counts == {
        ("ed_lower", 256): 1,
        ("ed_lower", 300): 1,
        ("ec_upper", 256): 1,
        ("ec_upper", 300): 1,
        ("ed_lower", 1): 1,
        ("ec_upper", 1): 1,
        ("ec_upper 2x3", 1): 1,
    }


def test_best_applies_the_tie_rule_to_each_state():
    def not_run(states, entries):
        raise AssertionError("a route that does not apply ran")

    routes = [
        ("r0", lambda dims: True, lambda states, entries: [0.5, 0.5, 0.5, 0.5]),
        ("r1", lambda dims: False, not_run),
        ("r2", lambda dims: True, lambda states, entries: [0.5 + 1e-13, 0.5 + 1e-11, 0.3, 0.5]),
    ]
    got = best(KIND_LOWER, routes, [phi_plus()] * 4)
    assert [(m.method, m.value) for m in got] == [
        ("r0", 0.5), ("r2", 0.5 + 1e-11), ("r0", 0.5), ("r0", 0.5)
    ]


def test_a_list_of_mixed_shapes_raises():
    mixed = [werner(0.9), maximally_mixed(2, 3)]
    for bound in ("ed_lower", "ec_upper"):
        with pytest.raises(DimensionMismatchError):
            bound_values(bound, mixed, budget=5)
    with pytest.raises(DimensionMismatchError):
        stack(mixed)
    with pytest.raises(DimensionMismatchError):
        trace_distances(werner(0.9), mixed)


def test_lipschitz_bounds_equal_the_one_state_bound():
    states = qubit_states()
    center = states[0]
    constants = BallConstants(0.2, 0.5, 0.4, 0.3, 1.0, "sampled", False)
    bounds = lipschitz_bounds(trace_distances(center, states), constants)
    assert same_bytes(bounds, [lipschitz_bound(center, s, constants) for s in states])
    small = replace(constants, epsilon=1e-3)
    with pytest.raises(ValueError, match="^state lies outside the ball: T = "):
        lipschitz_bounds(trace_distances(center, states), small)


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()
