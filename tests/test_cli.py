import json
import math
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entbounds import cli
from entbounds.linalg import DensityMatrix
from entbounds.measures import bound_routes
from entbounds.mixing import tail_mass_scan
from entbounds.protocols import concentration_curve
from entbounds.states import isotropic_2x3, maximally_mixed, phi_plus, werner
from entbounds.stateio import dumps_state, load_state
from support import embedded_invocation, shape_checks, validation_counts


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner09.json"
    path.write_text(dumps_state(werner(0.9)))
    return str(path)


@pytest.fixture
def phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(dumps_state(phi_plus()))
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_invocation_with_a_spaced_path_replays(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my w.json").write_text(dumps_state(werner(0.9)))
    code, first, _ = run_cli(["measure", "my w.json", "ed_lower", "--format", fmt], capsys)
    assert code == cli.EXIT_OK
    invocation = embedded_invocation(first)
    program, *argv = shlex.split(invocation)
    assert program == "entbounds"
    assert run_cli(argv, capsys) == (cli.EXIT_OK, first, "")
    assert invocation == "entbounds measure 'my w.json' ed_lower --format " + fmt


def test_measure_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["measure", str(tmp_path / "nope.json"), "eof_2x2"], capsys
    )
    assert code == cli.EXIT_INPUT
    assert err.strip()


@pytest.mark.parametrize(
    "diagonal, defect",
    [((0.5, 0.25, 0.25, 0.25), "trace defect"), ((1.2, -0.2, 0.0, 0.0), "minimum eigenvalue")],
    ids=["trace_1.25", "eigenvalue_-0.2"],
)
@pytest.mark.parametrize("measure", sorted(bound_routes()))
def test_measure_invalid_state_diagnostics(tmp_path, capsys, measure, diagonal, defect):
    doc = json.loads(dumps_state(maximally_mixed(2, 2)))
    for i, value in enumerate(diagonal):
        doc["entries"][i][i] = [value, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "csv"):
        code, out, err = run_cli(["measure", str(path), measure, "--format", fmt], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {defect} ")


def test_measure_choices_are_the_measure_table():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    (action,) = [a for a in sub.choices["measure"]._actions if a.dest == "measure"]
    assert action.choices == sorted(bound_routes())


@pytest.mark.parametrize("measure", ["eof_2x2", "concurrence_2x2"])
def test_a_two_qubit_measure_of_a_2x3_state_is_an_input_error(measure, tmp_path, capsys):
    path = tmp_path / "iso23.json"
    path.write_text(dumps_state(isotropic_2x3(0.6)))
    code, out, err = run_cli(["measure", str(path), measure], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == f"error: {measure} does not apply to 2x3 states\n"


def test_there_is_no_way_past_validation(werner_file, capsys):
    code, out, err = run_cli(["measure", werner_file, "log_negativity", "--force"], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("usage: entbounds measure ")
    assert err.endswith("error: unrecognized arguments: --force\n")


def test_measure_cap_exceeded(werner_file, capsys):
    code, _, err = run_cli(["measure", werner_file, "eof_2x2", "--cap", "2"], capsys)
    assert code == cli.EXIT_CAP
    assert err.strip()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_non_positive_cap_is_a_usage_error(werner_file, cap, capsys):
    code, out, err = run_cli(["measure", werner_file, "eof_upper_general", "--cap", cap], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "argument --cap" in err


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


@pytest.mark.parametrize("n", [1000, 8000])
def test_mixing_verify_huge_n_hits_the_cap(werner_file, phi_file, n, capsys):
    code, out, err = run_cli_strict(
        ["mixing-verify", werner_file, phi_file, "--p", "0.5", "--n", str(n)], capsys
    )
    assert code == cli.EXIT_CAP
    assert out == ""
    assert err == f"error: matrix side 4^{n} exceeds size cap 4096\n"


@pytest.mark.parametrize("n", [10**20, 2**53 + 1, 10**309], ids=["1e20", "2^53+1", "1e309"])
@pytest.mark.parametrize("command", ["tail-scan", "concentration", "mixing-verify"])
def test_huge_copy_count_is_refused_before_allocating(command, n, werner_file, phi_file, capsys):
    # without the reach limit, tail-scan tried 2.9 TiB at 1e20 and 28 GiB at 2^53 + 1
    argv = {
        "tail-scan": ["tail-scan", "--p", "0.3", "--n-list", str(n)],
        "concentration": ["concentration", "--lambdas", "0.7,0.3", "--n-list", str(n)],
        "mixing-verify": ["mixing-verify", werner_file, phi_file, "--p", "0.5", "--n", str(n)],
    }[command]
    code, out, err = run_cli_strict(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    expected = (
        "error: int too large to convert to float\n"
        if n > sys.float_info.max
        else f"error: copy count {n} needs \\d+ binomial terms, over the limit of 4194304\n"
    )
    assert re.fullmatch(expected, err), err


def test_mixing_verify_accepts_trace_defect_within_tolerance(tmp_path, capsys):
    # each copy adds its trace defect, so rho_p^(x 3) and Pi sit near 2e-10
    rho = DensityMatrix(2, 2, werner(0.9).entries * (1.0 + 9e-11))
    rho_path, sigma_path = tmp_path / "rho.json", tmp_path / "sigma.json"
    rho_path.write_text(dumps_state(rho))
    sigma_path.write_text(dumps_state(maximally_mixed(2, 2)))
    assert abs(load_state(str(rho_path)).entries.trace() - 1.0) > 8e-11
    code, out, err = run_cli_strict(
        ["mixing-verify", str(rho_path), str(sigma_path), "--p", "0.3", "--n", "3"], capsys
    )
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["passed"] is True


def test_mixing_verify_of_1x1_states_is_exact_and_fast(tmp_path, capsys):
    # every 1x1 state is [[1]], and so are the power and Pi: T = 0 with no
    # block built, where the window recursion grew as n^2 (4.6 s at n = 1000)
    path = tmp_path / "one.json"
    path.write_text(dumps_state(DensityMatrix(1, 1, [[1.0]])))
    start = time.perf_counter()
    code, out, err = run_cli_strict(
        ["mixing-verify", str(path), str(path), "--p", "0.3", "--n", "20000", "--half-width", "1"], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (cli.EXIT_OK, "")
    payload = json.loads(out)
    assert (payload["trace_distance"], payload["passed"]) == (0.0, True)


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


def test_mixing_verify_dimension_mismatch_exit_2(werner_file, tmp_path):
    iso = tmp_path / "iso23.json"
    iso.write_text(dumps_state(isotropic_2x3(0.5)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entbounds", "mixing-verify",
         werner_file, str(iso), "--p", "0.3", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == "error: rho and sigma must share dimensions\n"


# ---- tail-scan ----


def test_format_is_a_measure_option(capsys):
    code, out, err = run_cli(["tail-scan", "--p", "0.5", "--n-list", "4", "--format", "json"], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "--format" in err


# a complete invocation of each subcommand; its files are never opened
COMPLETE_ARGV = {
    "measure": ["measure", "x.json", "ed_lower"],
    "mixing-verify": ["mixing-verify", "x.json", "y.json", "--p", "0.3", "--n", "2"],
    "tail-scan": ["tail-scan", "--p", "0.5", "--n-list", "4"],
    "ball-scan": ["ball-scan", "x.json", "--epsilon", "1e-3", "--samples", "4"],
    "border-scan": ["border-scan", "--system", "2x2", "--grid", "3"],
    "concentration": ["concentration", "--lambdas", "0.5,0.5", "--n-list", "2"],
    "eta-scan": ["eta-scan"],
    "catalytic": ["catalytic", "--delta", "0.1", "--ec-sigma", "0.5", "--ed-rho-p", "0.8"],
}


@pytest.mark.parametrize("command", sorted(COMPLETE_ARGV))
def test_every_subcommand_refuses_tolerance(command, capsys):
    # the slack of every certified inequality is CERTIFICATION_TOL, with no way past it
    code, out, err = run_cli([*COMPLETE_ARGV[command], "--tolerance", "0.5"], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith(f"usage: entbounds {command} ")
    assert err.endswith("error: unrecognized arguments: --tolerance 0.5\n")


# every option of every subcommand, --help aside: 38 options and 5 positionals
OPTIONS = {
    "measure": {"--seed", "--cap", "--out", "--budget", "--format"},
    "mixing-verify": {"--cap", "--out", "--p", "--n", "--half-width"},
    "tail-scan": {"--out", "--p", "--n-list", "--half-width"},
    "ball-scan": {"--seed", "--cap", "--out", "--epsilon", "--samples", "--p-points"},
    "border-scan": {"--seed", "--out", "--system", "--grid", "--include-eof", "--budget"},
    "concentration": {"--out", "--lambdas", "--n-list"},
    "eta-scan": {"--out", "--eps-start", "--eps-stop", "--eps-points", "--xi-file"},
    "catalytic": {"--out", "--delta", "--ec-sigma", "--ed-rho-p"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    actions = {
        name: [a for a in p._actions if a.dest != "help"] for name, p in sub.choices.items()
    }
    taken = {name: {s for a in acts for s in a.option_strings} for name, acts in actions.items()}
    assert taken == OPTIONS
    assert taken.keys() == COMPLETE_ARGV.keys()
    assert sum(map(len, actions.values())) == 43
    assert sum(map(len, taken.values())) == 38


def test_help_says_which_inputs_must_be_bounds_and_which_constants_are_sampled():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    about = {name: p.description for name, p in sub.choices.items()}
    assert "factor is a lower bound on the gain only when --ec-sigma is an upper bound" in about["catalytic"]
    assert "the ball constants are sampled estimates" in about["ball-scan"]


def test_budget_has_one_help_in_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    helps = {
        name: a.help for name, p in sub.choices.items() for a in p._actions if a.dest == "budget"
    }
    assert set(helps) == {"measure", "border-scan"}
    assert len(set(helps.values())) == 1
    assert "eof_upper_general" in helps["measure"] and "ec_upper" in helps["measure"]
    # border-scan's own default leaves measure's alone
    defaults = {name: sub.choices[name].get_default("budget") for name in helps}
    assert defaults == {"measure": 2000, "border-scan": 400}


@pytest.mark.parametrize(
    "argv",
    [
        ["mixing-verify", "x.json", "y.json", "--p", "0.3", "--n", "2", "--seed", "1"],
        ["tail-scan", "--p", "0.3", "--n-list", "10", "--seed", "1"],
        ["concentration", "--lambdas", "0.5,0.5", "--n-list", "2", "--seed", "1"],
        ["eta-scan", "--seed", "1"],
        ["catalytic", "--delta", "0.1", "--ec-sigma", "0.5", "--ed-rho-p", "0.8", "--seed", "1"],
        ["tail-scan", "--p", "0.3", "--n-list", "10", "--cap", "8"],
        ["border-scan", "--system", "2x2", "--grid", "3", "--cap", "8"],
        ["concentration", "--lambdas", "0.5,0.5", "--n-list", "2", "--cap", "8"],
        # the contamination state is two-qubit, so no cap could matter
        ["eta-scan", "--cap", "8"],
        ["catalytic", "--delta", "0.1", "--ec-sigma", "0.5", "--ed-rho-p", "0.8", "--cap", "8"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}",
)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n")
    assert err.startswith(f"usage: entbounds {argv[0]} ")


def _record(report: str) -> dict:
    """The audit of a JSON report, or the `# key: value` lines that head a
    CSV report, each value as the text the CSV prints."""
    if report.startswith("{"):
        return json.loads(report)["audit"]
    comments = [line.removeprefix("# ") for line in report.splitlines() if line.startswith("# ")]
    return dict(line.partition(": ")[::2] for line in comments)


def test_the_audit_is_the_record_of_the_run(tmp_path, monkeypatch, capsys):
    # the invocation, then seed and size_cap where the subcommand takes
    # --seed and --cap, and nothing else, in JSON and in CSV alike
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text(dumps_state(werner(0.9)))
    (tmp_path / "y.json").write_text(dumps_state(phi_plus()))
    reports = {}
    for command, argv in COMPLETE_ARGV.items():
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        expected = ["invocation"]
        expected += ["seed"] * ("--seed" in OPTIONS[command]) + ["size_cap"] * ("--cap" in OPTIONS[command])
        keys = list(_record(out))
        if out.startswith("{"):
            assert keys == expected
        else:  # a CSV's own comments, such as concentration's protocol, follow the record
            assert keys[: len(expected)] == expected
            assert not {"invocation", "seed", "size_cap"} & set(keys[len(expected) :])
        assert _record(out)["invocation"] == "entbounds " + shlex.join(argv)
        reports[command] = out
    # measure prints one record whichever the format
    csv = run_cli([*COMPLETE_ARGV["measure"], "--format", "csv"], capsys)[1]
    audit = json.loads(reports["measure"])["audit"]
    audit["invocation"] += " --format csv"
    assert _record(csv) == {key: str(value) for key, value in audit.items()}
    mixing, ball = (json.loads(reports[name]) for name in ("mixing-verify", "ball-scan"))
    assert mixing["bound"] == mixing["tail_mass"] + 1e-09
    assert ball["corridor"]["tolerance"] == 1e-09


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


def test_tail_scan_underflow_prints_no_exact_zero(capsys):
    code, out, _ = run_cli(
        ["tail-scan", "--p", "0.5", "--n-list", "1000000", "--half-width", "30000"], capsys
    )
    assert code == cli.EXIT_OK
    comments = [ln for ln in out.splitlines() if ln.startswith("# log10_tail_mass")]
    data_lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert data_lines[0] == "n,window_lo,window_hi,tail_mass,hoeffding_bound"
    n, lo, hi, tail, hoeffding = data_lines[1].split(",")
    assert (n, lo, hi) == ("1000000", "470000", "530000")
    assert float(tail) > 0.0 and float(hoeffding) > 0.0
    assert len(comments) == 1 and comments[0].startswith("# log10_tail_mass n=1000000: ")
    # mpmath at 40 digits, summing outward from both edges until a term
    # falls below 1e-35 of the sum: log10 tail = -784.1022102784062
    assert float(comments[0].split(": ")[1]) == pytest.approx(-784.1022102784062, abs=1e-6)


# mpmath at 40 digits, summing outward from the upper edge until a term
# falls below 1e-35 of the sum and doubling by symmetry: the tail of
# Binomial(1e6, 1/2) outside the window, rounded up, and its log10.
SUBNORMAL_TAILS = {
    19100: ("2.2694478935929913e-319", -318.6440797841856),
    19210: ("4.9115768292556980e-323", -322.3087790581201),
}


@pytest.mark.parametrize("half_width", sorted(SUBNORMAL_TAILS))
def test_tail_scan_subnormal_tail_prints_an_upper_bound(half_width, capsys):
    code, out, _ = run_cli(
        ["tail-scan", "--p", "0.5", "--n-list", "1000000", "--half-width", str(half_width)],
        capsys,
    )
    assert code == cli.EXIT_OK
    true_tail, true_log10 = SUBNORMAL_TAILS[half_width]
    comments = [ln for ln in out.splitlines() if ln.startswith("# log10_tail_mass")]
    data_lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    _, _, _, tail, hoeffding = data_lines[1].split(",")
    # exact rational comparison: a subnormal keeps too few digits to round safely
    assert Fraction(float(tail)) >= Fraction(true_tail)
    assert Fraction(float(hoeffding)) >= Fraction(true_tail)
    assert len(comments) == 1
    assert float(comments[0].split(": ")[1]) == pytest.approx(true_log10, abs=1e-9)


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


def test_ball_scan_unplaceable_sample_exit_2(werner_file, capsys):
    # at epsilon 1 no direction draw lands a sample inside the state space
    code, out, err = run_cli(
        ["ball-scan", werner_file, "--epsilon", "1", "--samples", "1"], capsys
    )
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: could not place ball sample 0 after 200 direction draws\n"


def test_ball_scan_zero_samples(werner_file, capsys):
    code, _, _ = run_cli(
        ["ball-scan", werner_file, "--epsilon", "1e-3", "--samples", "0"], capsys
    )
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("points", ["0", "1"])
def test_ball_scan_rejects_fewer_than_two_p_points(werner_file, points, capsys):
    # 0 points certified an empty corridor; 1 point checked p = 0 only
    code, out, err = run_cli(
        ["ball-scan", werner_file, "--epsilon", "1e-3", "--samples", "3", "--p-points", points],
        capsys,
    )
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: p-points must be at least 2\n"


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


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["tail-scan", "--p", "0.3", "--n-list", ","], "n-list must contain at least one copy count"),
        (["concentration", "--lambdas", ",", "--n-list", "2"], "lambdas and n-list must be non-empty"),
        (["eta-scan", "--eps-points", "1"], "eps-points must be at least 2"),
    ],
    ids=["tail-scan", "concentration", "eta-scan"],
)
def test_empty_lists_and_single_points_are_refused(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == f"error: {message}\n"


# ---- validation ----


@pytest.mark.parametrize(
    ("argv", "validated"),
    [
        (["ball-scan", "{rho}", "--epsilon", "1e-3", "--samples", "200", "--p-points", "20"], 241),
        (["eta-scan"], 2),
        (["mixing-verify", "{rho}", "{sigma}", "--p", "0.3", "--n", "4"], 2),
    ],
    ids=["ball-scan", "eta-scan", "mixing-verify"],
)
def test_each_state_is_validated_once(argv, validated, werner_file, phi_file, capsys):
    # the loaded files, ball samples and corridor states; neither the ball
    # directions nor the eta and n-copy mixtures built from validated states
    argv = [arg.format(rho=werner_file, sigma=phi_file) for arg in argv]
    with validation_counts() as counts:
        code, _, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert counts == {"calls": validated, "matrices": validated}


@pytest.mark.parametrize(
    ("argv", "checked"),
    [
        # the lists of four bound_values calls and of trace_distances
        (["ball-scan", "{rho}", "--epsilon", "1e-3", "--samples", "200"], 5),
        # per block of STACK_BLOCK: the stack of the spectra and best
        (["border-scan", "--system", "2x2", "--grid", "401"], 4),
        # best checks and stacks the one state, whatever the measure
        *((["measure", "{rho}", measure, "--budget", "5"], 1) for measure in sorted(bound_routes())),
    ],
    ids=["ball-scan", "border-scan", *(f"measure-{measure}" for measure in sorted(bound_routes()))],
)
def test_each_block_is_checked_for_one_shape_once(argv, checked, werner_file, capsys):
    argv = [arg.format(rho=werner_file) for arg in argv]
    with shape_checks() as checks:
        code, _, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert len(checks) == checked


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
        code, out, err = run_cli_strict(["measure", str(path), measure], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error: entry (1,1)")


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): 1e308, (1, 1): -1e308 + 1},
        {(0, 0): 0.5, (0, 1): 1e308, (1, 0): 1e308, (1, 1): 0.5},
        {**{(i, i): 0.25 for i in range(4)}, (0, 3): 1.7e308, (3, 0): -1.7e308},
    ],
    ids=["diagonal", "hermitian-pair", "anti-hermitian-pair"],
)
def test_state_entries_near_the_float_maximum_exit_2(tmp_path, capsys, entries):
    # refused before the validation's sums, which overflowed with a RuntimeWarning
    doc = {"dim_a": 2, "dim_b": 2, "entries": [[[0.0, 0.0]] * 4 for _ in range(4)]}
    for (i, j), value in entries.items():
        doc["entries"][i][j] = [value, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli_strict(["measure", str(path), "ed_lower"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: entries must have modulus at most 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["concentration", "--lambdas", "nan,1", "--n-list", "2"],
        ["concentration", "--lambdas", "0.5,inf", "--n-list", "2"],
        ["catalytic", "--delta", "nan", "--ec-sigma", "0.5", "--ed-rho-p", "0.8"],
        ["catalytic", "--delta", "0.1", "--ec-sigma", "inf", "--ed-rho-p", "0.8"],
        # finite arguments whose rate overflows
        ["catalytic", "--delta", "1e308", "--ec-sigma", "1e-308", "--ed-rho-p", "1"],
        ["tail-scan", "--p", "nan", "--n-list", "4"],
        ["eta-scan", "--eps-stop", "inf"],
    ],
)
def test_non_finite_arguments_exit_2(argv, capsys):
    code, out, err = run_cli_strict(argv, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "finite" in err


def test_concentration_rejects_entries_above_one_before_summing(capsys):
    # the sum of 1e308 and 1e308 overflowed with a RuntimeWarning first
    argv = ["concentration", "--lambdas", "1e308,1e308", "--n-list", "2"]
    code, out, err = run_cli_strict(argv, capsys)
    assert (code, out, err) == (cli.EXIT_INPUT, "", "error: distribution entries must not exceed 1\n")


@pytest.mark.parametrize(
    "flag, value",
    [("--eps-start", "0"), ("--eps-start", "-1e-3"), ("--eps-stop", "1.5"), ("--eps-stop", "-0.0")],
)
def test_eta_scan_epsilon_out_of_range_exit_2(flag, value, capsys):
    code, out, err = run_cli_strict(["eta-scan", f"{flag}={value}"], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == f"error: {flag} must lie in (0, 1], got {float(value)!r}\n"


@pytest.mark.parametrize(
    "bounds",
    [
        ["--eps-start", "1e-3", "--eps-stop", "1e-3", "--eps-points", "2"],
        # np.logspace repeats 0.1 on this grid
        ["--eps-start", "0.1", "--eps-stop", "0.10000000000000002", "--eps-points", "5"],
    ],
    ids=["equal-ends", "rounded-steps"],
)
def test_eta_scan_grid_with_a_repeated_point_exit_2(bounds, capsys):
    code, out, err = run_cli_strict(["eta-scan", *bounds], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


HUGE = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max])
# any JSON value, huge integers and floats near the float maximum among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-(10**400), 10**400) | st.floats() | HUGE,
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)


def _mutated(draw, doc: dict) -> dict:
    """doc with one mutation: an entry, one of its components, a field, a
    dimension, or a Hermitian pair of huge finite entries."""
    side = len(doc["entries"])
    i, j = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    kind = draw(st.sampled_from(["entry", "component", "field", "dims", "pair"]))
    if kind == "entry":
        doc["entries"][i][j] = draw(JSON_VALUES)
    elif kind == "component":
        doc["entries"][i][j][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    elif kind == "field":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "dims":
        doc[draw(st.sampled_from(["dim_a", "dim_b"]))] = draw(JSON_VALUES | st.integers(-2, 9))
    else:
        re, im = draw(HUGE | st.floats(allow_nan=False, allow_infinity=False)), draw(HUGE)
        doc["entries"][i][j], doc["entries"][j][i] = [re, im], [re, -im]
    return doc


@pytest.mark.parametrize("measure", sorted(bound_routes()))
@given(data=st.data())
@settings(
    deadline=None, derandomize=True, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_measure_on_mutated_state_documents(measure, data, tmp_path, capsys):
    # the four conditions of the fuzz gate, with every warning an error
    state = data.draw(st.sampled_from([werner(0.9), isotropic_2x3(0.6)]))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data.draw(st.composite(_mutated)(json.loads(dumps_state(state))))))
    code, out, err = run_cli_strict(["measure", str(path), measure, "--budget", "1"], capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CAP, cli.EXIT_CERTIFICATION)
    assert "Traceback" not in err and "Warning" not in err
    if code != cli.EXIT_OK:
        assert out == ""
    else:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in a report"))


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "error: cannot parse JSON: maximum recursion depth exceeded"),
        (
            '{"dim_a": 1' + "0" * 4999 + ', "dim_b": 1, "entries": []}',
            "error: cannot parse JSON: Exceeds the limit",
        ),
    ],
    ids=["nested-100000-deep", "5000-digit-dim_a"],
)
def test_console_script_rejects_unparseable_state(tmp_path, text, message):
    # json.loads raises RecursionError and int()'s digit-limit ValueError here
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entbounds", "measure", str(path), "ed_lower"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def test_refused_allocation_exit_2(monkeypatch, capsys):
    # what numpy raises for border-scan --grid 1000000000000, stubbed so that
    # nothing is allocated
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "border_scan", refuse)
    code, out, err = run_cli(["border-scan", "--system", "2x2", "--grid", "5"], capsys)
    assert (code, out, err) == (cli.EXIT_INPUT, "", f"error: {message}\n")


# ---- console script ----


_SCIPY_PROBE = """
import sys
import entbounds
import entbounds.cli
code = entbounds.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("scipy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["measure", "iso23.json", "ec_upper", "--budget", "20"],
        ["border-scan", "--system", "2x2", "--grid", "5"],
        ["tail-scan", "--p", "0.3", "--n-list", "10,100"],
        ["concentration", "--lambdas", "0.7,0.3", "--n-list", "4,16"],
        ["mixing-verify", "werner09.json", "phi.json", "--p", "0.5", "--n", "3"],
    ],
    ids=["import", "measure", "border-scan", "tail-scan", "concentration", "mixing-verify"],
)
def test_no_command_loads_scipy(argv, tmp_path):
    # scipy.special alone doubles start-up; the binomial weights need numpy only
    for name, state in (
        ("iso23.json", isotropic_2x3(0.5)),
        ("werner09.json", werner(0.9)),
        ("phi.json", phi_plus()),
    ):
        (tmp_path / name).write_text(dumps_state(state))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCIPY_PROBE, *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_console_script_runs(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(dumps_state(phi_plus()))
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
