import json

import numpy as np
import pytest

from entbounds.errors import SizeCapError, StateFileError, StateValidityError
from entbounds.linalg import partial_transpose, schmidt_decompose, trace_distance
from entbounds.sampling import (
    random_density_matrix,
    random_product_pure_state,
    random_pure_state,
    random_separable_state,
    random_unitary,
)
from entbounds.stateio import dumps_state, load_state, loads_state, save_state
from entbounds.states import (
    BELL_LABELS,
    bell_basis,
    bell_state,
    isotropic_2x3,
    maximally_mixed,
    phi_plus,
    product_state,
    werner,
)
from support import (
    max_entangled,
    random_kraus_set,
    random_local_unitary_conjugate,
    separable_mixture,
)


# ---- constructed states ----


def test_bell_states_are_orthonormal():
    basis = bell_basis()
    assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-14)
    for i, label in enumerate(BELL_LABELS):
        assert np.allclose(bell_state(label).amplitudes, basis[:, i])
    with pytest.raises(ValueError):
        bell_state("sigma_minus")


def test_phi_plus_amplitudes():
    amps = phi_plus().amplitudes
    assert np.allclose(amps, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_schmidt_is_flat():
    psi = max_entangled(3)
    coeffs = schmidt_decompose(psi).coefficients
    assert np.allclose(coeffs, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_maximally_mixed_is_identity_over_dim():
    rho = maximally_mixed(2, 3)
    assert np.allclose(rho.entries, np.eye(6) / 6)


def test_product_state_has_schmidt_rank_one():
    psi = product_state([1.0, 1.0], [1.0, 0.0, 1.0])
    assert (psi.dim_a, psi.dim_b) == (2, 3)
    coeffs = schmidt_decompose(psi).coefficients
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_separable_mixture_weights_renormalize():
    rho = separable_mixture(
        [(2.0, [1.0, 0.0], [1.0, 0.0]), (2.0, [0.0, 1.0], [0.0, 1.0])]
    )
    assert np.allclose(rho.entries, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_werner_interpolates_singlet_and_identity():
    assert np.allclose(werner(0.0).entries, np.eye(4) / 4)
    singlet = bell_state("psi_minus").to_density_matrix()
    assert np.allclose(werner(1.0).entries, singlet.entries, atol=1e-14)
    # partial transpose minimum eigenvalue crosses zero at weight 1/3
    for w in (0.0, 0.2, 1 / 3, 0.4, 1.0):
        margin = np.linalg.eigvalsh(partial_transpose(werner(w)))[0]
        assert margin == pytest.approx((1 - 3 * w) / 4, abs=1e-12)


def test_isotropic_2x3_threshold_at_one_quarter():
    for q in (0.0, 0.1, 0.25, 0.3, 1.0):
        margin = np.linalg.eigvalsh(partial_transpose(isotropic_2x3(q)))[0]
        assert margin == pytest.approx((1 - q) / 6 - q / 2, abs=1e-12)


# ---- seeded sampling ----


def test_random_density_matrix_is_seed_reproducible():
    a = random_density_matrix(2, 3, seed=42)
    b = random_density_matrix(2, 3, seed=42)
    assert np.array_equal(a.entries, b.entries)
    c = random_density_matrix(2, 3, seed=43)
    assert not np.allclose(a.entries, c.entries)


def test_random_density_matrix_rank_control():
    rho = random_density_matrix(2, 2, seed=1, rank=2)
    eigs = np.sort(np.linalg.eigvalsh(rho.entries))
    assert np.all(eigs[:2] < 1e-12)
    assert np.all(eigs[2:] > 1e-12)


def test_random_unitary_is_unitary():
    u = random_unitary(4, seed=2)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_random_kraus_set_is_complete():
    kraus = random_kraus_set(3, 4, seed=3)
    assert len(kraus) == 4
    total = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(total, np.eye(3), atol=1e-12)


def test_random_product_pure_state_is_product():
    psi = random_product_pure_state(2, 3, seed=4)
    coeffs = schmidt_decompose(psi).coefficients
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_random_separable_state_is_ppt():
    rho = random_separable_state(2, 2, seed=5)
    assert np.linalg.eigvalsh(partial_transpose(rho))[0] > -1e-12


def test_random_local_unitary_conjugate_preserves_spectrum():
    rho = random_density_matrix(2, 2, seed=6)
    rotated = random_local_unitary_conjugate(rho, seed=7)
    assert np.allclose(
        np.linalg.eigvalsh(rho.entries), np.linalg.eigvalsh(rotated.entries), atol=1e-12
    )
    assert trace_distance(rho, rotated) > 1e-3


def test_random_pure_state_normalized():
    psi = random_pure_state(3, 3, seed=8)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


# ---- state files ----


def test_state_roundtrip_is_exact(tmp_path):
    rho = random_density_matrix(2, 3, seed=9)
    path = tmp_path / "state.json"
    save_state(str(path), rho)
    back = load_state(str(path))
    assert (back.dim_a, back.dim_b) == (2, 3)
    assert np.array_equal(back.entries, rho.entries)


def test_dumps_state_structure():
    doc = json.loads(dumps_state(maximally_mixed(2, 1)))
    assert doc["dim_a"] == 2 and doc["dim_b"] == 1
    assert doc["entries"][0][0] == [0.5, 0.0]


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"dim_a": 2}',
        '{"dim_a": 2, "dim_b": "two", "entries": []}',
        '{"dim_a": 1, "dim_b": 1, "entries": [[[1.0]]]}',
        '{"dim_a": 1, "dim_b": 1, "entries": [[[1.0, 0.0], [0.0, 0.0]]]}',
        '"just a string"',
        '{"dim_a": 1, "dim_b": 1, "entries": [[[NaN, 0.0]]]}',
        '{"dim_a": 1, "dim_b": 1, "entries": [[[1.0, Infinity]]]}',
        '{"dim_a": 1, "dim_b": 1, "entries": [[[true, false]]]}',
    ],
)
def test_loads_state_rejects_malformed_documents(text):
    with pytest.raises(StateFileError):
        loads_state(text)


def test_loads_state_rejects_invalid_state_with_report():
    doc = json.loads(dumps_state(maximally_mixed(2, 1)))
    doc["entries"][0][0] = [0.9, 0.0]
    with pytest.raises(StateValidityError) as err:
        loads_state(json.dumps(doc))
    assert err.value.report is not None
    assert err.value.report.trace_defect > 0.1


def test_loads_state_force_skips_validity_only():
    doc = json.loads(dumps_state(maximally_mixed(2, 1)))
    doc["entries"][0][0] = [0.9, 0.0]
    loaded = loads_state(json.dumps(doc), force=True)
    assert loaded.entries[0, 0] == 0.9


def test_loads_state_enforces_cap():
    with pytest.raises(SizeCapError):
        loads_state(dumps_state(maximally_mixed(2, 2)), cap=2)


def test_load_state_missing_file(tmp_path):
    with pytest.raises(StateFileError):
        load_state(str(tmp_path / "absent.json"))
