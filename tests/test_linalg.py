import numpy as np
import pytest

from entbounds.errors import (
    DimensionMismatchError,
    SizeCapError,
    StateValidityError,
)
from entbounds.linalg import (
    DensityMatrix,
    _check_state,
    mix,
    partial_trace,
    partial_transpose,
    stack,
    trace_norm,
)
from entbounds import mixing
from entbounds.mixing import MixtureSpec, verify_mixing_bound
from entbounds.sampling import random_density_matrix
from entbounds.states import maximally_mixed, phi_plus, werner
from support import (
    ab_order,
    apply_one_sided_channel,
    pure_state,
    random_kraus_set,
    random_pure_amplitudes,
    tensor,
    tensor_power,
    trace_distance,
    unchecked,
    validate,
)


def test_density_matrix_rejects_wrong_shape():
    with pytest.raises(StateValidityError):
        DensityMatrix(2, 2, np.eye(3) / 3)


@pytest.mark.parametrize("dims", [(0, 2), (2, -1)])
def test_density_matrix_rejects_non_positive_dimensions(dims):
    with pytest.raises(StateValidityError) as err:
        DensityMatrix(*dims, np.eye(1))
    assert str(err.value) == "local dimensions must be positive integers"


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


def failing_cases() -> dict[str, np.ndarray]:
    base = werner(0.7).entries
    hermiticity = base.copy()
    hermiticity[0, 1] += 1e-6
    eigenvalue = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    return {
        "hermiticity": hermiticity,
        "trace": 1.5 * base,
        "eigenvalue": eigenvalue,
        "finite": np.where(np.eye(4) > 0, np.nan, base),
    }


@pytest.mark.parametrize("case", ["hermiticity", "trace", "eigenvalue", "finite"])
def test_check_state_names_the_failing_invariant(case):
    bad = failing_cases()[case]
    with pytest.raises(StateValidityError, match=case) as failure:
        _check_state(bad)
    if case != "finite":
        assert failure.value.report == validate(unchecked(2, 2, bad))


def test_density_matrix_validates_shape_against_dims():
    # a valid 4x4 state, given the dims of a 2x2 one
    with pytest.raises(StateValidityError, match="entries must be 2x2"):
        DensityMatrix(2, 1, np.eye(4) / 4)


def test_density_matrix_entries_are_write_protected():
    rho = maximally_mixed(2, 2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


def test_validate_reports_defects_without_raising():
    report = validate(unchecked(2, 1, np.diag([0.7, 0.7])))
    assert not report.passed
    assert report.trace_defect == pytest.approx(0.4)
    assert report.hermiticity_defect == 0.0


def test_ab_order_matches_manual_reordering():
    # two copies: |a1 a2 b1 b2> ordering must hold
    rng = np.random.default_rng(0)
    a = random_density_matrix(2, 3, seed=rng)
    b = random_density_matrix(2, 3, seed=rng)
    order = ab_order((2, 3), 2)
    joint = np.kron(a.entries, b.entries)[np.ix_(order, order)]
    # brute force: permutation matrix built from index arithmetic
    da1, db1, da2, db2 = 2, 3, 2, 3
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
    assert np.allclose(tensor(a, b).entries, expected, atol=1e-14)


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


def test_tensor_power_of_trivial_state_beyond_numpy_axis_limit(monkeypatch):
    # 40 copies of a 1x1 state: 80 unit axes, more than numpy's 64
    one = DensityMatrix(1, 1, [[1.0]])
    power = tensor_power(one, 40)
    assert (power.dim_a, power.dim_b, power.entries.tolist()) == (1, 1, [[1.0]])
    # side 1 passes the cap guard at any copy count, and its one class is 1 x 1:
    # every pair's antisymmetric half is empty, so no other class is built
    spec = MixtureSpec(one, one, p=0.0, n=40, window=(0, 40))
    shapes = []
    monkeypatch.setattr(mixing, "trace_norm", lambda x: shapes.append(x.shape) or trace_norm(x))
    report = verify_mixing_bound(spec)
    assert (shapes, report.trace_distance, report.passed) == ([(1, 1)], 0.0, True)


def test_partial_trace_of_pure_state_marginals_share_spectrum():
    rho = pure_state(2, 3, random_pure_amplitudes(2, 3, seed=7))
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
    (pt,) = partial_transpose(*stack([rho]))
    (back,) = partial_transpose(*stack([unchecked(2, 3, pt)]))
    assert np.array_equal(back, rho.entries)


def test_partial_transpose_of_phi_plus_has_half_spectrum():
    rho = phi_plus()
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(*stack([rho]))[0]))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_trace_norm_routes_agree():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sv = np.linalg.svd(m, compute_uv=False).sum()
    assert trace_norm(m) == pytest.approx(sv, abs=1e-10)
    h = (m + m.conj().T) / 2
    assert trace_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).sum(), abs=1e-10)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (5, 2, 3)])
def test_trace_norm_rejects_non_square_input(shape):
    with pytest.raises(ValueError) as err:
        trace_norm(np.ones(shape))
    assert str(err.value) == "trace_norm expects a square matrix or a stack of them"


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
    pure = phi_plus()
    with pytest.raises(StateValidityError):
        mix(r1, pure, -1.0)
    near = mix(r1, pure, 0.01)
    recovered = mix(near, pure, -0.01 / 0.99)
    assert np.allclose(recovered.entries, r1.entries, atol=1e-12)


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
