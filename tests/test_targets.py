"""The open bound backlog, one measured target per case (ROADMAP item 32).

Each case is a figure an open ROADMAP item promises, marked strict xfail
with its item number: it fails by AssertionError today.  A change that
meets a target removes its mark; one that cannot leaves the case as it
is.  No target is lowered.  Strict xfail makes a silent gain fail too,
so the xfail count of the summary line is the open backlog.
"""

import numpy as np
import pytest

from entbounds.continuity import border_scan
from entbounds.linalg import DensityMatrix
from entbounds.measures import bound_routes, bound_values, ed_lower, eof_2x2, eof_upper_general
from entbounds.sampling import random_density_matrix
from entbounds.states import isotropic_2x3, werner
from support import edge_state_2x2


def target(item: int, figure: str):
    """The strict xfail mark of a case that ROADMAP item `item` meets."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"item {item}: {figure}")


@target(22, "hashing after the best local unitaries: 0 today")
def test_hashing_does_not_depend_on_a_local_hadamard():
    hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))
    rotated = DensityMatrix(2, 2, hadamard @ werner(0.9).entries @ hadamard.conj().T)
    assert abs(ed_lower(rotated).value - 0.4968162683194165) <= 1e-12


@target(2, "coherent information on isotropic_2x3(0.8): 0 today")
def test_ed_lower_of_isotropic_2x3_at_0_8():
    assert ed_lower(isotropic_2x3(0.8)).value >= 0.2497


@target(9, "recurrence before hashing, 0.0236 at six rounds: 0 today")
def test_ed_lower_of_werner_at_0_6_is_positive():
    assert ed_lower(werner(0.6)).value > 0.0


@target(16, "filter to a qubit pair, then distil: 0 today")
def test_ed_lower_of_isotropic_2x3_at_0_6():
    assert ed_lower(isotropic_2x3(0.6)).value >= 0.0557 - 1e-4


@target(21, "certified-distillable points on the border grid: 0 of 30 today")
def test_npt_points_of_the_isotropic_2x3_border_grid_with_positive_ed_lower():
    rows = border_scan(isotropic_2x3, np.linspace(0.0, 1.0, 41))
    npt = [isotropic_2x3(row.param) for row in rows if row.ppt_margin < 0]
    assert len(npt) == 30
    assert np.count_nonzero(bound_values("ed_lower", npt) > 0.0) >= 12


@target(19, "an E_F lower bound in every dimension: no ef_lower today")
def test_ef_lower_of_random_2x3_states_is_positive():
    assert "ef_lower" in bound_routes()
    states = [random_density_matrix(2, 3, seed=seed) for seed in range(30)]
    assert np.count_nonzero(bound_values("ef_lower", states) > 0.0) >= 29


@target(12, "an exact decomposition: the search reads 5.4e-11 below Wootters today")
def test_the_search_is_not_below_wootters_on_a_state_at_the_edge_of_validation():
    rho = edge_state_2x2()
    assert eof_upper_general(rho).value >= eof_2x2(rho).value - 1.4e-15
