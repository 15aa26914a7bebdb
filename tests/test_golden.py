"""Byte identity of CLI reports against the golden corpus in tests/golden/.

Each case runs `entbounds.cli.main` in a fresh working directory that
holds the input state files, written by `dumps_state`.  Every path in
the argv is relative, so the invocation embedded in a report does not
depend on where the test runs.  The case's stdout and any files it
writes must equal the golden files byte for byte.

A golden file changes only in a change that says why.  To rewrite the
corpus from the current code, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from entbounds import cli
from entbounds.linalg import mix
from entbounds.sampling import random_density_matrix
from entbounds.stateio import dumps_state
from entbounds.states import phi_plus, werner

GOLDEN = Path(__file__).with_name("golden")

STATES = {
    "werner09.json": lambda: werner(0.9),
    # entangled, with no zero entries: exercises every closed form
    "mixed.json": lambda: mix(
        phi_plus().to_density_matrix(), random_density_matrix(2, 2, seed=11), 0.1
    ),
    "ginibre.json": lambda: random_density_matrix(2, 2, seed=5),
}

CLOSED_FORMS = (
    "log_negativity",
    "eof_2x2",
    "concurrence_2x2",
    "ed_lower",
    "von_neumann_entropy",
)

# case name -> (argv, files the command writes besides stdout)
CASES = {
    **{
        f"measure_{measure}_{fmt}": (
            ["measure", "mixed.json", measure, "--format", fmt], ()
        )
        for measure in CLOSED_FORMS
        for fmt in ("json", "csv")
    },
    "measure_eof_upper_general": (
        ["measure", "ginibre.json", "eof_upper_general", "--budget", "10"], ()
    ),
    "tail_scan_default": (
        ["tail-scan", "--p", "0.3", "--n-list", "10,100,1000,10000"], ()
    ),
    "tail_scan_half_width": (
        ["tail-scan", "--p", "0.5", "--n-list", "16,64,256", "--half-width", "3"], ()
    ),
    "concentration": (
        ["concentration", "--lambdas", "0.7,0.2,0.1", "--n-list", "2,16,128,1024"], ()
    ),
    "eta_scan": (["eta-scan"], ()),
    "eta_scan_xi_file": (
        ["eta-scan", "--eps-points", "7", "--xi-file", "ginibre.json"], ()
    ),
    "catalytic": (
        ["catalytic", "--delta", "0.1", "--ec-sigma", "0.5", "--ed-rho-p", "0.8"], ()
    ),
    "border_scan_2x2": (["border-scan", "--system", "2x2", "--grid", "11"], ()),
    "border_scan_2x3": (["border-scan", "--system", "2x3", "--grid", "11"], ()),
    "ball_scan": (
        [
            "ball-scan", "werner09.json", "--epsilon", "1e-3", "--samples", "12",
            "--p-points", "5", "--out", "ball.json",
        ],
        ("ball.json", "ball_corridor.csv", "ball_lipschitz.csv"),
    ),
}


def render(case: str, workdir: str) -> dict[str, bytes]:
    """Run one case in workdir; map golden file names to the bytes produced."""
    argv, files = CASES[case]
    for name, make in STATES.items():
        Path(workdir, name).write_text(dumps_state(make()))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(
        stdout
    ), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, (case, code, stderr.getvalue())
    assert stderr.getvalue() == ""
    outputs = {f"{case}.stdout": stdout.getvalue().encode()}
    for name in files:
        outputs[f"{case}.{name}"] = Path(workdir, name).read_bytes()
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    for name, blob in render(case, str(tmp_path)).items():
        assert blob == (GOLDEN / name).read_bytes(), name


def test_golden_corpus_has_no_strays():
    expected = set()
    for case, (_, files) in CASES.items():
        expected.add(f"{case}.stdout")
        expected.update(f"{case}.{name}" for name in files)
    assert {p.name for p in GOLDEN.iterdir()} == expected


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            for name, blob in render(case, workdir).items():
                (GOLDEN / name).write_bytes(blob)
                print("wrote", os.path.join(GOLDEN.name, name))


if __name__ == "__main__":
    write_goldens()
