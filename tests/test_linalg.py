import numpy as np
import pytest

from entbounds.errors import (
    DimensionMismatchError,
    SizeCapError,
    StateValidityError,
)
from entbounds.linalg import (
    DensityMatrix,
    PureState,
    kron_ab,
    mix,
    partial_trace,
    partial_transpose,
    schmidt_decompose,
    tensor_power,
    trace_distance,
    trace_norm,
)
from entbounds.sampling import random_density_matrix, random_pure_state
from entbounds.states import maximally_mixed, phi_plus
from support import apply_one_sided_channel, random_kraus_set, tensor, validate


def test_density_matrix_rejects_wrong_shape():
    with pytest.raises(StateValidityError):
        DensityMatrix(2, 2, np.eye(3) / 3)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(StateValidityError) as err:
        DensityMatrix(2, 1, np.diag([0.7, 0.7]))
    assert "trace defect" in str(err.value)


def test_density_matrix_rejects_non_hermitian():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.3
    with pytest.raises(StateValidityError):
        DensityMatrix(2, 1, m)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.array([[0.8, 0.45], [0.45, 0.2]], dtype=complex)
    with pytest.raises(StateValidityError):
        DensityMatrix(2, 1, m)


def test_density_matrix_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[1, 1] = bad
        with pytest.raises(StateValidityError, match="finite"):
            DensityMatrix(2, 1, m)


def test_density_matrix_check_false_still_validates_shape():
    loaded = DensityMatrix(2, 1, np.diag([0.7, 0.7]), check=False)
    assert loaded.side == 2
    with pytest.raises(StateValidityError):
        DensityMatrix(2, 2, np.eye(3) / 3, check=False)


def test_density_matrix_entries_are_write_protected():
    rho = maximally_mixed(2, 2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


def test_validate_reports_defects_without_raising():
    loaded = DensityMatrix(2, 1, np.diag([0.7, 0.7]), check=False)
    report = validate(loaded)
    assert not report.passed
    assert report.trace_defect == pytest.approx(0.4)
    assert report.hermiticity_defect == 0.0


def test_pure_state_norm_enforced():
    with pytest.raises(StateValidityError):
        PureState(2, 1, np.array([1.0, 1.0]))


def test_kron_ab_matches_manual_reordering():
    # two qubits on each side: |a1 a2 b1 b2> ordering must hold
    rng = np.random.default_rng(0)
    a = random_density_matrix(2, 3, seed=rng)
    b = random_density_matrix(2, 2, seed=rng)
    joint = kron_ab(a.entries, (2, 3), b.entries, (2, 2))
    # brute force: permutation matrix built from index arithmetic
    da1, db1, da2, db2 = 2, 3, 2, 2
    side = da1 * db1 * da2 * db2
    perm = np.zeros((side, side))
    for i1 in range(da1):
        for j1 in range(db1):
            for i2 in range(da2):
                for j2 in range(db2):
                    src = ((i1 * db1 + j1) * da2 + i2) * db2 + j2
                    dst = ((i1 * da2 + i2) * db1 + j1) * db2 + j2
                    perm[dst, src] = 1.0
    expected = perm @ np.kron(a.entries, b.entries) @ perm.T
    assert np.allclose(joint, expected, atol=1e-14)


def test_tensor_dims_and_cap():
    rho = maximally_mixed(2, 2)
    joint = tensor(rho, rho)
    assert (joint.dim_a, joint.dim_b) == (4, 4)
    with pytest.raises(SizeCapError):
        tensor(rho, rho, cap=8)


def test_tensor_power_matches_repeated_tensor():
    rho = random_density_matrix(2, 2, seed=1)
    p3 = tensor_power(rho, 3)
    manual = tensor(tensor(rho, rho), rho)
    assert np.allclose(p3.entries, manual.entries, atol=1e-13)
    assert (p3.dim_a, p3.dim_b) == (8, 8)


def test_tensor_power_respects_cap():
    rho = maximally_mixed(2, 2)
    with pytest.raises(SizeCapError):
        tensor_power(rho, 7)


def test_partial_trace_of_pure_state_marginals_share_spectrum():
    psi = random_pure_state(2, 3, seed=7)
    rho = psi.to_density_matrix()
    ra = partial_trace(rho, "B")
    rb = partial_trace(rho, "A")
    ea = np.sort(np.linalg.eigvalsh(ra))[::-1]
    eb = np.sort(np.linalg.eigvalsh(rb))[::-1]
    assert abs(np.trace(ra) - 1.0) < 1e-12
    assert np.allclose(ea[:2], eb[:2], atol=1e-12)


def test_partial_trace_of_product_is_the_factor():
    a = random_density_matrix(2, 1, seed=2)
    b = random_density_matrix(3, 1, seed=3)
    joint = DensityMatrix(2, 3, np.kron(a.entries, b.entries))
    assert np.allclose(partial_trace(joint, "B"), a.entries, atol=1e-13)
    assert np.allclose(partial_trace(joint, "A"), b.entries, atol=1e-13)
    with pytest.raises(ValueError):
        partial_trace(joint, "C")


def test_partial_transpose_is_an_involution():
    rho = random_density_matrix(2, 3, seed=4)
    pt = partial_transpose(rho)
    back = partial_transpose(DensityMatrix(2, 3, pt, check=False))
    assert np.array_equal(back, rho.entries)


def test_partial_transpose_of_phi_plus_has_half_spectrum():
    rho = phi_plus().to_density_matrix()
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_trace_norm_routes_agree():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sv = np.linalg.svd(m, compute_uv=False).sum()
    assert trace_norm(m) == pytest.approx(sv, abs=1e-10)
    h = (m + m.conj().T) / 2
    assert trace_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).sum(), abs=1e-10)


def test_trace_distance_basic_properties():
    r1 = random_density_matrix(2, 2, seed=6)
    r2 = random_density_matrix(2, 2, seed=7)
    assert trace_distance(r1, r1) == 0.0
    assert trace_distance(r1, r2) == pytest.approx(trace_distance(r2, r1), abs=1e-14)
    assert 0.0 <= trace_distance(r1, r2) <= 1.0
    with pytest.raises(DimensionMismatchError):
        trace_distance(r1, maximally_mixed(2, 3))


def test_trace_distance_of_orthogonal_pure_states_is_one():
    e0 = DensityMatrix(2, 1, np.diag([1.0, 0.0]))
    e1 = DensityMatrix(2, 1, np.diag([0.0, 1.0]))
    assert trace_distance(e0, e1) == pytest.approx(1.0, abs=1e-14)


def test_mix_endpoints_and_affinity():
    r1 = random_density_matrix(2, 2, seed=8)
    r2 = random_density_matrix(2, 2, seed=9)
    assert np.allclose(mix(r1, r2, 0.0).entries, r1.entries)
    assert np.allclose(mix(r1, r2, 1.0).entries, r2.entries)
    m = mix(r1, r2, 0.3)
    assert np.allclose(m.entries, 0.7 * r1.entries + 0.3 * r2.entries)
    with pytest.raises(ValueError):
        mix(r1, r2, 1.5)


def test_mix_negative_weight_extends_only_when_positive():
    # extrapolation weight -1 is allowed by the domain but must still
    # land on a state; mixing away from the maximally mixed state fails
    r1 = maximally_mixed(2, 2)
    pure = phi_plus().to_density_matrix()
    with pytest.raises(StateValidityError):
        mix(r1, pure, -1.0)
    near = mix(r1, pure, 0.01)
    recovered = mix(near, pure, -0.01 / 0.99)
    assert np.allclose(recovered.entries, r1.entries, atol=1e-12)


def test_schmidt_decompose_matches_svd_and_reconstructs():
    psi = random_pure_state(3, 4, seed=10)
    form = schmidt_decompose(psi)
    sv = np.linalg.svd(psi.amplitudes.reshape(3, 4), compute_uv=False)
    assert np.allclose(form.coefficients, sv, atol=1e-12)
    assert np.sum(form.coefficients**2) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(form.coefficients) <= 1e-15)


def test_schmidt_of_product_state_is_rank_one():
    psi = PureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    form = schmidt_decompose(psi)
    assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(form.coefficients[1:] < 1e-12)


def test_one_sided_channel_preserves_state_and_party():
    rho = random_density_matrix(2, 2, seed=11)
    kraus = random_kraus_set(2, 3, seed=12)
    completeness = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(completeness, np.eye(2), atol=1e-12)
    out_a = apply_one_sided_channel(rho, kraus, party="A")
    out_b = apply_one_sided_channel(rho, kraus, party="B")
    assert abs(np.trace(out_a.entries) - 1.0) < 1e-10
    assert not np.allclose(out_a.entries, out_b.entries)
    # B-sided action commutes with tracing out A
    reduced = partial_trace(rho, "A")
    evolved = sum(k @ reduced @ k.conj().T for k in kraus)
    assert np.allclose(partial_trace(out_b, "A"), evolved, atol=1e-12)
