"""Acceptance gates, one test per criterion so pytest -v shows one line each."""

import json
import time
from functools import partial

import numpy as np
import pytest

from entbounds import cli
from entbounds.continuity import (
    BallSpec,
    ball_constants,
    border_scan,
    corridor_consistency_check,
    kappa,
    sample_ball,
)
from entbounds.errors import EmptyWindowError
from entbounds.measures import (
    bound_values,
    ec_upper,
    ed_lower,
    eof_2x2,
    eof_upper_general,
    log_negativity,
    von_neumann_entropy,
)
from entbounds.mixing import MixtureSpec, binomial_window, tail_mass_scan, verify_mixing_bound
from entbounds.protocols import concentration_yield, eta_continuity_scan
from entbounds.sampling import random_density_matrix
from entbounds.states import isotropic_2x3, maximally_mixed, phi_plus, werner
from entbounds.stateio import dumps_state
from support import (
    concurrence_2x2,
    entanglement_entropy,
    max_entangled,
    pure_state,
    random_pure_amplitudes,
    random_separable_state,
    tensor_power,
)


def test_criterion_01_mixing_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    p_choices = np.arange(0.1, 0.95, 0.1)
    done = 0
    full_window_seen = 0
    while done < 50:
        p = float(rng.choice(p_choices))
        n = int(rng.integers(2, 6))
        half_width = float(rng.choice([0.0, 1.0, n ** (2 / 3)]))
        try:
            window, _ = binomial_window(n, p, half_width)
        except EmptyWindowError:
            continue  # that spec carries no mass; redraw
        rho = random_density_matrix(2, 2, seed=rng)
        sigma = random_density_matrix(2, 2, seed=rng)
        spec = MixtureSpec(rho=rho, sigma=sigma, p=p, n=n, window=window)
        report = verify_mixing_bound(spec)
        assert report.passed, (p, n, half_width)
        if window == (0, n):
            full_window_seen += 1
            assert report.trace_distance <= 1e-10, (p, n, half_width)
        done += 1
    assert full_window_seen >= 5
    assert time.perf_counter() - start < 60.0


def test_criterion_02_tail_mass_scan():
    start = time.perf_counter()
    n_list = [10, 32, 100, 316, 1000, 3162, 10000]
    for p in (0.3, 0.5):
        rows = tail_mass_scan(p, n_list)
        for row in rows:
            assert row.tail_mass <= 2.0 * np.exp(-2.0 * row.n ** (1 / 3)) + 1e-15
        assert rows[-1].n == 10000
        assert rows[-1].tail_mass < 1e-6
    assert time.perf_counter() - start < 5.0


def test_criterion_03_kappa_algebra():
    for p in np.linspace(0.0, 1.0, 100):
        for r in np.linspace(0.01, 1.0, 100):
            assert kappa(float(p), float(r)) <= float(p) * (1 - r) / r + 1e-12
    for r in np.linspace(0.01, 1.0, 100):
        r = float(r)
        assert kappa(0.0, r) == 0.0
        assert kappa(1.0, r) == 1.0 - r


def test_criterion_04_werner_ball_corridors(tmp_path):
    start = time.perf_counter()
    for weight in (0.9, 0.95, 0.99):
        state_file = tmp_path / f"werner_{weight}.json"
        state_file.write_text(dumps_state(werner(weight)))
        out = tmp_path / f"ball_{weight}.json"
        code = cli.main(
            [
                "ball-scan",
                str(state_file),
                "--epsilon",
                "1e-3",
                "--samples",
                "200",
                "--p-points",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK, weight
        payload = json.loads(out.read_text())
        assert payload["corridor"]["all_passed"] is True, weight
        assert len(payload["corridor"]["rows"]) == 20
    # negative control: a corrupted cost surrogate must be flagged
    center = werner(0.95)
    spec = BallSpec(center=center, epsilon=1e-3, sample_count=20, seed=7)
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples)
    broken = corridor_consistency_check(
        center,
        samples[0],
        constants,
        np.linspace(0.0, 1.0, 20),
        ec=lambda states: 0.5 * bound_values("ec_upper", states),
    )
    assert not broken.all_passed
    assert time.perf_counter() - start < 120.0


def test_criterion_05_measure_instantiations():
    rng = np.random.default_rng(505)
    for _ in range(50):
        rho = random_density_matrix(2, 2, seed=rng)
        base = log_negativity(rho).value
        for n in (2, 3, 4):
            power = tensor_power(rho, n)
            assert log_negativity(power).value == pytest.approx(
                n * base, abs=1e-8
            )
    phi_dm = phi_plus()
    assert entanglement_entropy(max_entangled(2), 2, 2) == pytest.approx(1.0, abs=1e-10)
    assert eof_2x2(phi_dm).value == pytest.approx(1.0, abs=1e-10)
    assert concurrence_2x2(phi_dm) == pytest.approx(1.0, abs=1e-10)
    assert log_negativity(phi_dm).value == pytest.approx(1.0, abs=1e-10)
    assert ed_lower(phi_dm).value == pytest.approx(1.0, abs=1e-10)
    assert ec_upper(phi_dm).value == pytest.approx(1.0, abs=1e-10)
    for _ in range(50):
        sep = random_separable_state(2, 2, seed=rng)
        assert log_negativity(sep).value <= 1e-6
        assert ed_lower(sep).value <= 1e-6
        assert eof_upper_general(sep, budget=200, seed=0).value <= 1e-6
    for _ in range(50):
        amps = random_pure_amplitudes(2, 2, seed=rng)
        assert eof_2x2(pure_state(2, 2, amps)).value == pytest.approx(
            entanglement_entropy(amps, 2, 2), abs=1e-9
        )


def test_criterion_06_border_continuity():
    rows = border_scan(werner, np.linspace(0.0, 1.0, 200), partial(bound_values, "ec_upper"))
    for row in rows:
        if row.param <= 1 / 3:
            assert row.eof <= 1e-9
            assert row.log_neg <= 1e-9
    eofs = [row.eof for row in rows]
    log_negs = [row.log_neg for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(eofs, eofs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(log_negs, log_negs[1:]))
    near = border_scan(werner, [1 / 3 + 1e-4], partial(bound_values, "ec_upper"))[0]
    assert near.eof <= 1e-3
    assert near.log_neg <= 1e-3
    rows_2x3 = border_scan(isotropic_2x3, np.linspace(0.0, 1.0, 200))
    for row in rows_2x3:
        assert (row.log_neg <= 1e-9) == (row.ppt_margin >= -1e-9)


def test_criterion_07_concentration_convergence():
    start = time.perf_counter()
    big_n = 2 ** 16
    flat = concentration_yield([0.5, 0.5], big_n)
    assert 0.98 <= flat <= 1.0
    rng = np.random.default_rng(707)
    for i in range(10):
        m = 2 + i % 3
        lam = rng.dirichlet(np.ones(m))
        positive = lam[lam > 0]
        h = float(-(positive * np.log2(positive)).sum())
        for n in (64, big_n):
            assert concentration_yield(lam, n) <= h + 1e-12
        assert h - concentration_yield(lam, big_n) <= 0.02
    assert time.perf_counter() - start < 30.0


def _eta_modulus(delta_eps):
    """Continuity modulus of the contaminated-pair yield in eps.

    Moving eps by delta_eps moves the twirled Bell weights
    (1 - 3eps/4, eps/4, eps/4, eps/4) by total variation T = 3/4 delta_eps.
    The sharp Fannes bound of Audenaert, J. Phys. A 40, 8127 (2007), gives
    |H(p) - H(q)| <= T log2(3) + h(T) for four outcomes, and the clamp at
    0 is 1-Lipschitz, so every correct yield curve moves by at most this.
    """
    t = 0.75 * np.asarray(delta_eps, dtype=float)
    return t * np.log2(3.0) - t * np.log2(t) - (1.0 - t) * np.log2(1.0 - t)


def _steps_within_modulus(eps, values):
    return bool(np.all(np.abs(np.diff(values)) <= _eta_modulus(np.diff(eps))))


def _max_jump(values):
    return float(np.max(-np.diff(values)))


def test_criterion_08_eta_continuity():
    xi = maximally_mixed(2, 2)
    eps = np.logspace(-4, -1, 20)
    rows = eta_continuity_scan(xi, eps)
    values = [row.value for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    at_millis = eta_continuity_scan(xi, [1e-3])[0].value
    assert at_millis >= 0.98
    assert _steps_within_modulus(eps, values)
    # A 0.02 ceiling on adjacent steps of this 20-point grid is
    # unsatisfiable by any certified lower bound L on E_D that, like E_D,
    # does not increase with eps: the clause above forces L >= 0.98 at
    # every grid point with eps <= 1e-3 (index 6, eps ~ 8.9e-4), while at
    # eps = 0.1 the state is Werner with F = 0.925 and
    # E_D <= E_R = 1 - h(F) = 0.6157 (Vedral & Plenio, PRA 57, 1619 (1998)).
    # L must fall by >= 0.364 over the 13 steps from index 6 to 19, and
    # 13 * 0.02 = 0.26 < 0.364.  The ceiling is applied instead on the
    # coarsest grid whose every step has modulus <= 0.02 (316 points),
    # where any curve obeying the modulus passes and a jump above 0.02
    # anywhere fails.
    points = 20
    while _eta_modulus(np.diff(np.logspace(-4, -1, points))).max() > 0.02:
        points += 1
    fine_eps = np.logspace(-4, -1, points)
    fine_values = [row.value for row in eta_continuity_scan(xi, fine_eps)]
    max_jump = _max_jump(fine_values)
    assert max_jump <= 0.02
    # negative control: a 0.05 drop injected mid-grid must be flagged
    broken = np.array(values)
    broken[len(broken) // 2 :] -= 0.05
    assert not _steps_within_modulus(eps, broken)
    fine_broken = np.array(fine_values)
    fine_broken[len(fine_broken) // 2 :] -= 0.05
    assert _max_jump(fine_broken) > 0.02


def test_criterion_09_wootters_oracle_agreement():
    rng = np.random.default_rng(909)
    for _ in range(25):
        rho = random_density_matrix(2, 2, seed=rng)
        exact = eof_2x2(rho).value
        upper = eof_upper_general(rho, budget=2000, seed=0).value
        assert upper >= exact - 1e-9
        assert upper - exact <= 1e-3


def test_criterion_10_byte_identical_reports(tmp_path):
    state_file = tmp_path / "werner_095.json"
    state_file.write_text(dumps_state(werner(0.95)))
    out = tmp_path / "ball.json"
    argv = [
        "ball-scan",
        str(state_file),
        "--epsilon",
        "1e-3",
        "--samples",
        "200",
        "--p-points",
        "20",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    names = ("ball.json", "ball_corridor.csv", "ball_lipschitz.csv")
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert cli.main(argv) == cli.EXIT_OK
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name], name
