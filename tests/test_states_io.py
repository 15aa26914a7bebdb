import json
import os
import stat

import numpy as np
import pytest

from entbounds.errors import SizeCapError, StateFileError, StateValidityError
from entbounds.linalg import partial_transpose, stack
from entbounds.measures import ed_lower
from entbounds.sampling import random_density_matrix
from entbounds.stateio import atomic_write_text, dumps_state, load_state, loads_state
from entbounds.states import (
    bell_basis,
    isotropic_2x3,
    maximally_mixed,
    phi_plus,
    werner,
)
from support import (
    max_entangled,
    product_amplitudes,
    random_kraus_set,
    random_local_unitary_conjugate,
    random_low_rank_state,
    random_product_amplitudes,
    random_pure_amplitudes,
    random_separable_state,
    random_unitary,
    separable_mixture,
    trace_distance,
)

BELL_COLUMNS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).T / np.sqrt(2)


# ---- constructed states ----


def test_bell_states_are_orthonormal():
    basis = bell_basis()
    assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-14)
    assert np.allclose(basis, BELL_COLUMNS)


def test_writing_into_bell_basis_leaves_ed_lower_unchanged():
    before = ed_lower(werner(0.9)).value
    bell_basis()[:] = 0.0
    assert ed_lower(werner(0.9)).value == before


def test_phi_plus_amplitudes():
    amps = BELL_COLUMNS[:, 0]
    assert np.allclose(phi_plus().entries, np.outer(amps, amps))


def test_max_entangled_schmidt_is_flat():
    coeffs = np.linalg.svd(max_entangled(3).reshape(3, 3), compute_uv=False)
    assert np.allclose(coeffs, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_maximally_mixed_is_identity_over_dim():
    rho = maximally_mixed(2, 3)
    assert np.allclose(rho.entries, np.eye(6) / 6)


def test_product_state_has_schmidt_rank_one():
    amps = product_amplitudes([1.0, 1.0], [1.0, 0.0, 1.0])
    assert amps.shape == (6,)
    coeffs = np.linalg.svd(amps.reshape(2, 3), compute_uv=False)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_separable_mixture_weights_renormalize():
    rho = separable_mixture(
        [(2.0, [1.0, 0.0], [1.0, 0.0]), (2.0, [0.0, 1.0], [0.0, 1.0])]
    )
    assert np.allclose(rho.entries, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_werner_interpolates_singlet_and_identity():
    assert np.allclose(werner(0.0).entries, np.eye(4) / 4)
    singlet = BELL_COLUMNS[:, 3]
    assert np.allclose(werner(1.0).entries, np.outer(singlet, singlet), atol=1e-14)
    # partial transpose minimum eigenvalue crosses zero at weight 1/3
    for w in (0.0, 0.2, 1 / 3, 0.4, 1.0):
        margin = np.linalg.eigvalsh(partial_transpose(*stack([werner(w)]))[0])[0]
        assert margin == pytest.approx((1 - 3 * w) / 4, abs=1e-12)


@pytest.mark.parametrize(
    "family, param, message",
    [
        (werner, 1.5, "weight must lie in [0, 1], got 1.5"),
        (werner, -0.1, "weight must lie in [0, 1], got -0.1"),
        (isotropic_2x3, 1.25, "q must lie in [0, 1], got 1.25"),
        (isotropic_2x3, -0.5, "q must lie in [0, 1], got -0.5"),
    ],
)
def test_families_reject_parameters_out_of_range(family, param, message):
    with pytest.raises(ValueError) as err:
        family(param)
    assert str(err.value) == message


def test_isotropic_2x3_threshold_at_one_quarter():
    for q in (0.0, 0.1, 0.25, 0.3, 1.0):
        margin = np.linalg.eigvalsh(partial_transpose(*stack([isotropic_2x3(q)]))[0])[0]
        assert margin == pytest.approx((1 - q) / 6 - q / 2, abs=1e-12)


# ---- seeded sampling ----


def test_random_density_matrix_is_seed_reproducible():
    a = random_density_matrix(2, 3, seed=42)
    b = random_density_matrix(2, 3, seed=42)
    assert np.array_equal(a.entries, b.entries)
    c = random_density_matrix(2, 3, seed=43)
    assert not np.allclose(a.entries, c.entries)


def test_random_low_rank_state_rank_control():
    rho = random_low_rank_state(2, 2, 2, seed=1)
    eigs = np.sort(np.linalg.eigvalsh(rho.entries))
    assert np.all(eigs[:2] < 1e-12)
    assert np.all(eigs[2:] > 1e-12)
    # at full rank it is the package's draw, bit for bit
    full = random_low_rank_state(2, 3, 6, seed=42)
    assert np.array_equal(full.entries, random_density_matrix(2, 3, seed=42).entries)


def test_random_unitary_is_unitary():
    u = random_unitary(4, seed=2)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_random_kraus_set_is_complete():
    kraus = random_kraus_set(3, 4, seed=3)
    assert len(kraus) == 4
    total = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(total, np.eye(3), atol=1e-12)


def test_random_product_pure_state_is_product():
    amps = random_product_amplitudes(2, 3, seed=4)
    coeffs = np.linalg.svd(amps.reshape(2, 3), compute_uv=False)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_random_separable_state_is_ppt():
    rho = random_separable_state(2, 2, seed=5)
    assert np.linalg.eigvalsh(partial_transpose(*stack([rho]))[0])[0] > -1e-12


def test_random_local_unitary_conjugate_preserves_spectrum():
    rho = random_density_matrix(2, 2, seed=6)
    rotated = random_local_unitary_conjugate(rho, seed=7)
    assert np.allclose(
        np.linalg.eigvalsh(rho.entries), np.linalg.eigvalsh(rotated.entries), atol=1e-12
    )
    assert trace_distance(rho, rotated) > 1e-3


def test_random_pure_state_normalized():
    amps = random_pure_amplitudes(3, 3, seed=8)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


# ---- state files ----


def test_state_roundtrip_is_exact(tmp_path):
    rho = random_density_matrix(2, 3, seed=9)
    path = tmp_path / "state.json"
    atomic_write_text(str(path), dumps_state(rho) + "\n")
    back = load_state(str(path))
    assert (back.dim_a, back.dim_b) == (2, 3)
    assert np.array_equal(back.entries, rho.entries)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_takes_the_umask(tmp_path, umask, mode):
    # the mode a shell redirect or open(path, "w") gives, not mkstemp's 0o600
    path = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        atomic_write_text(str(path), "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "{}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_onto_a_directory_raises_and_leaves_it_untouched(tmp_path):
    target = tmp_path / "report"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    with pytest.raises(IsADirectoryError) as err:
        atomic_write_text(str(target), "{}\n")
    assert err.value.filename2 == str(target)
    # the temp file is gone and the directory keeps what it held
    assert list(tmp_path.iterdir()) == [target]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "kept\n"


def test_dumps_state_structure():
    doc = json.loads(dumps_state(maximally_mixed(2, 1)))
    assert doc["dim_a"] == 2 and doc["dim_b"] == 1
    assert doc["entries"][0][0] == [0.5, 0.0]


def _malformed(text, message, id=None):
    """A document and the start of its error message; the id defaults to the text."""
    return pytest.param(text, message, id=id or text)


_DIGITS = "1" + "0" * 4999  # past Python's 4,300-digit limit on int("...")


@pytest.mark.parametrize(
    "text, message",
    [
        _malformed("{not json", "cannot parse JSON: Expecting property name"),
        _malformed('{"dim_a": 2}', "missing field 'dim_b'"),
        _malformed('{"dim_a": 2, "dim_b": "two", "entries": []}', "dim_a and dim_b must be integers"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": [[[1.0]]]}', "entry (0,0) must be a [re, im]"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": [[[1.0, 0.0], [0.0, 0.0]]]}', "row 0 must be"),
        _malformed('"just a string"', "top-level document must be an object"),
        _malformed('{"dim_a": 0, "dim_b": 2, "entries": []}', "dim_a and dim_b must be positive"),
        _malformed('{"dim_a": 2, "dim_b": 0, "entries": []}', "dim_a and dim_b must be positive"),
        _malformed('{"dim_a": 1, "dim_b": 2, "entries": [[[0.5, 0.0], [0.0, 0.0]]]}', "entries must be a list of 2 rows"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": {"0": [[1.0, 0.0]]}}', "entries must be a list of 1 rows"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": [[[NaN, 0.0]]]}', "entry (0,0) must be finite"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": [[[1.0, Infinity]]]}', "entry (0,0) must be finite"),
        _malformed('{"dim_a": 1, "dim_b": 1, "entries": [[[true, false]]]}', "entry (0,0) must be a [re, im]"),
        _malformed('{"dim_a": true, "dim_b": 1, "entries": [[[1.0, 0.0]]]}', "dim_a and dim_b must be integers"),
        _malformed(
            '{"dim_a": 1, "dim_b": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}',
            "entry (0,0) must be finite",
            id="integer-beyond-the-float-range",
        ),
        _malformed("[" * 100_000, "cannot parse JSON: maximum recursion depth", id="nested-100000-deep"),
        _malformed(
            f'{{"dim_a": 1, "dim_b": 1, "entries": [[[{_DIGITS}, 0]]]}}',
            "cannot parse JSON: Exceeds the limit",
            id="5000-digit-entry",
        ),
        _malformed(
            f'{{"dim_a": {_DIGITS}, "dim_b": 1, "entries": [[[1, 0]]]}}',
            "cannot parse JSON: Exceeds the limit",
            id="5000-digit-dim_a",
        ),
    ],
)
def test_loads_state_rejects_malformed_documents(text, message):
    with pytest.raises(StateFileError) as err:
        loads_state(text)
    assert str(err.value).startswith(message)


def test_loads_state_rejects_invalid_state_with_report():
    doc = json.loads(dumps_state(maximally_mixed(2, 1)))
    doc["entries"][0][0] = [0.9, 0.0]
    with pytest.raises(StateValidityError) as err:
        loads_state(json.dumps(doc))
    assert err.value.report is not None
    assert err.value.report.trace_defect > 0.1


def test_loads_state_enforces_cap():
    with pytest.raises(SizeCapError):
        loads_state(dumps_state(maximally_mixed(2, 2)), cap=2)


def test_load_state_missing_file(tmp_path):
    with pytest.raises(StateFileError):
        load_state(str(tmp_path / "absent.json"))
