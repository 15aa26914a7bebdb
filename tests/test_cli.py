import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from entbounds import cli
from entbounds.measures import ec_upper, eof_2x2
from entbounds.mixing import tail_mass_scan
from entbounds.protocols import concentration_curve
from entbounds.states import maximally_mixed, phi_plus, werner
from entbounds.stateio import dumps_state


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner09.json"
    path.write_text(dumps_state(werner(0.9)))
    return str(path)


@pytest.fixture
def phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(dumps_state(phi_plus().to_density_matrix()))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- measure ----


def test_measure_json_payload(werner_file, capsys):
    code, out, _ = run_cli(
        ["measure", werner_file, "eof_2x2", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.789354960988784, abs=1e-12)
    assert payload["kind"] == "exact"
    assert payload["method"] == "eof_2x2"
    assert payload["audit"]["seed"] == 7
    assert "measure" in payload["audit"]["invocation"]
    assert "timestamp" not in payload["audit"]


def test_measure_csv_format(werner_file, capsys):
    code, out, _ = run_cli(
        ["measure", werner_file, "log_negativity", "--format", "csv"], capsys
    )
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# invocation:")
    assert lines[1].startswith("# seed:")
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert "value" in header.split(",")


def test_measure_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["measure", str(tmp_path / "nope.json"), "eof_2x2"], capsys
    )
    assert code == cli.EXIT_INPUT
    assert err.strip()


def test_measure_invalid_state_diagnostics(tmp_path, capsys):
    bad = maximally_mixed(2, 2).entries.copy()
    bad[0, 0] = 0.75  # trace pushed to 1.25
    doc = json.loads(dumps_state(maximally_mixed(2, 2)))
    doc["entries"] = [[[float(bad[i, j].real), 0.0] for j in range(4)] for i in range(4)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["measure", str(path), "eof_2x2"], capsys)
    assert code == cli.EXIT_INPUT
    assert "trace" in err.lower()
    # --force lets the document through to the measure code
    code2, out2, _ = run_cli(
        ["measure", str(path), "log_negativity", "--force", "--format", "json"],
        capsys,
    )
    assert code2 == cli.EXIT_OK
    assert "value" in json.loads(out2)


def test_measure_cap_exceeded(werner_file, capsys):
    code, _, err = run_cli(["measure", werner_file, "eof_2x2", "--cap", "2"], capsys)
    assert code == cli.EXIT_CAP
    assert err.strip()


# ---- mixing-verify ----


def test_mixing_verify_passes(werner_file, phi_file, capsys):
    code, out, _ = run_cli(
        [
            "mixing-verify",
            werner_file,
            phi_file,
            "--p",
            "0.5",
            "--n",
            "3",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["trace_distance"] <= payload["bound"] + 1e-9


def test_mixing_verify_cap(werner_file, phi_file, capsys):
    code, _, err = run_cli(
        [
            "mixing-verify",
            werner_file,
            phi_file,
            "--p",
            "0.5",
            "--n",
            "6",
            "--cap",
            "64",
        ],
        capsys,
    )
    assert code == cli.EXIT_CAP
    assert err.strip()


def test_mixing_verify_empty_window(werner_file, phi_file, capsys):
    code, _, err = run_cli(
        [
            "mixing-verify",
            werner_file,
            phi_file,
            "--p",
            "0.5",
            "--n",
            "5",
            "--half-width",
            "0",
        ],
        capsys,
    )
    assert code == cli.EXIT_INPUT
    assert "window" in err.lower()


# ---- tail-scan ----


def test_tail_scan_matches_library(capsys):
    code, out, _ = run_cli(
        ["tail-scan", "--p", "0.3", "--n-list", "10,100,1000"], capsys
    )
    assert code == cli.EXIT_OK
    rows = tail_mass_scan(0.3, [10, 100, 1000])
    data_lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = data_lines[0].split(",")
    assert header == ["n", "window_lo", "window_hi", "tail_mass", "hoeffding_bound"]
    for line, row in zip(data_lines[1:], rows):
        cells = line.split(",")
        assert int(float(cells[0])) == row.n
        assert float(cells[3]) == pytest.approx(row.tail_mass, rel=1e-12)
        assert float(cells[4]) == pytest.approx(row.hoeffding_bound, rel=1e-12)


# ---- ball-scan ----


def test_ball_scan_writes_three_files_and_passes(werner_file, tmp_path, capsys):
    out = tmp_path / "ball.json"
    argv = [
        "ball-scan",
        werner_file,
        "--epsilon",
        "1e-3",
        "--samples",
        "12",
        "--p-points",
        "5",
        "--out",
        str(out),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["constants"]["ed_min_lower"] > 0.0
    assert payload["corridor"]["all_passed"] is True
    corridor = tmp_path / "ball_corridor.csv"
    lipschitz = tmp_path / "ball_lipschitz.csv"
    assert corridor.exists() and lipschitz.exists()
    assert corridor.read_text().startswith("# invocation:")
    data = [
        ln
        for ln in corridor.read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(data) == 1 + 5  # header plus the p grid


def test_ball_scan_byte_identical_reruns(werner_file, tmp_path, capsys):
    out = tmp_path / "ball.json"
    argv = [
        "ball-scan",
        werner_file,
        "--epsilon",
        "1e-3",
        "--samples",
        "10",
        "--p-points",
        "4",
        "--out",
        str(out),
    ]
    assert run_cli(argv, capsys)[0] == cli.EXIT_OK
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("ball.json", "ball_corridor.csv", "ball_lipschitz.csv")
    }
    assert run_cli(argv, capsys)[0] == cli.EXIT_OK
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


def test_ball_scan_not_certified(tmp_path, capsys):
    path = tmp_path / "w08.json"
    path.write_text(dumps_state(werner(0.8)))
    code, _, err = run_cli(
        ["ball-scan", str(path), "--epsilon", "0.45", "--samples", "8"], capsys
    )
    assert code == cli.EXIT_CERTIFICATION
    assert "certif" in err.lower()


def test_ball_scan_zero_samples(werner_file, capsys):
    code, _, _ = run_cli(
        ["ball-scan", werner_file, "--epsilon", "1e-3", "--samples", "0"], capsys
    )
    assert code == cli.EXIT_INPUT


# ---- border-scan ----


def test_border_scan_2x3_rows(capsys):
    code, out, _ = run_cli(
        ["border-scan", "--system", "2x3", "--grid", "5"], capsys
    )
    assert code == cli.EXIT_OK
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = data[0].split(",")
    assert header[:3] == ["param", "log_neg", "ppt_margin"]
    assert len(data) == 1 + 5
    first = data[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) <= 1e-12


def test_border_scan_single_point_grid_rejected(capsys):
    code, _, _ = run_cli(["border-scan", "--system", "2x2", "--grid", "1"], capsys)
    assert code == cli.EXIT_INPUT


# ---- concentration ----


def test_concentration_matches_library(capsys):
    code, out, _ = run_cli(
        ["concentration", "--lambdas", "0.5,0.5", "--n-list", "2,8,32"], capsys
    )
    assert code == cli.EXIT_OK
    curve = concentration_curve([0.5, 0.5], [2, 8, 32])
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    for line, (n, value) in zip(data[1:], curve.points):
        cells = line.split(",")
        assert int(float(cells[0])) == n
        assert float(cells[1]) == pytest.approx(value, rel=1e-12)
    assert any("type_class_measurement" in ln for ln in out.splitlines())


# ---- eta-scan ----


def test_eta_scan_rows_and_bound(capsys):
    code, out, _ = run_cli(
        [
            "eta-scan",
            "--eps-start",
            "1e-4",
            "--eps-stop",
            "1e-2",
            "--eps-points",
            "5",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert data[0].split(",") == ["epsilon", "value", "bound"]
    assert len(data) == 1 + 5
    for line in data[1:]:
        eps, value, bound = (float(c) for c in line.split(","))
        assert bound == pytest.approx(1.0 - value, abs=1e-15)
    values = [float(ln.split(",")[1]) for ln in data[1:]]
    assert all(b <= a for a, b in zip(values, values[1:]))


# ---- catalytic ----


def test_catalytic_json(capsys):
    code, out, _ = run_cli(
        [
            "catalytic",
            "--delta",
            "0.1",
            "--ec-sigma",
            "0.5",
            "--ed-rho-p",
            "0.25",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["p"] == pytest.approx(1 / 6, rel=1e-12)
    assert payload["k"] == pytest.approx(-2.0, rel=1e-12)
    assert payload["factor"] == pytest.approx(0.8, rel=1e-12)


# ---- non-finite input ----


def run_cli_strict(argv, capsys):
    """run_cli with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(argv, capsys)


@pytest.mark.parametrize(
    "pair", [[math.nan, 0.0], [math.inf, 0.0], [True, False]], ids=["nan", "inf", "bool"]
)
def test_non_finite_state_entries_exit_2(tmp_path, capsys, pair):
    doc = json.loads(dumps_state(werner(0.9)))
    doc["entries"][1][1] = pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for measure in ("ed_lower", "von_neumann_entropy"):
        for extra in ([], ["--force"]):
            code, out, err = run_cli_strict(["measure", str(path), measure, *extra], capsys)
            assert code == cli.EXIT_INPUT
            assert out == ""
            assert err.startswith("error: entry (1,1)")


@pytest.mark.parametrize(
    "argv",
    [
        ["concentration", "--lambdas", "nan,1", "--n-list", "2"],
        ["concentration", "--lambdas", "0.5,inf", "--n-list", "2"],
        ["catalytic", "--delta", "nan", "--ec-sigma", "0.5", "--ed-rho-p", "0.8"],
        ["catalytic", "--delta", "0.1", "--ec-sigma", "inf", "--ed-rho-p", "0.8"],
        ["tail-scan", "--p", "nan", "--n-list", "4"],
        ["eta-scan", "--eps-stop", "inf"],
        ["measure", "x.json", "eof_2x2", "--tolerance", "nan"],
    ],
)
def test_non_finite_arguments_exit_2(argv, capsys):
    code, out, err = run_cli_strict(argv, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "finite" in err


def test_json_reports_refuse_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_text({"value": math.nan})


def test_console_script_rejects_nan_state(tmp_path):
    doc = json.loads(dumps_state(werner(0.9)))
    doc["entries"][1][1] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entbounds", "measure", str(path), "ed_lower"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == "error: entry (1,1) must be finite\n"


# ---- console script ----


def test_console_script_runs(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(dumps_state(phi_plus().to_density_matrix()))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "entbounds",
            "measure",
            str(path),
            "von_neumann_entropy",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.0, abs=1e-12)
