"""Byte identity of CLI reports against the golden corpus in tests/golden/.

Each case runs `entbounds.cli.main` in a fresh working directory that
holds the input state files, written by `dumps_state`; a `mixing-verify`
case runs `python -m entbounds` there, in a child process with one BLAS
thread, since its last digits depend on the thread count.  Every path in
the argv is relative, so the invocation embedded in a report does not
depend on where the test runs.  The case's stdout and any files it
writes must equal the golden files byte for byte.  The replay test runs
the invocation each golden file embeds, split by `shlex.split`, and
must reproduce the same bytes.

A golden file changes only in a change that says why.  To rewrite the
corpus from the current code, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from entbounds import cli
from entbounds.linalg import mix
from entbounds.sampling import random_density_matrix
from entbounds.stateio import dumps_state
from entbounds.states import isotropic_2x3, phi_plus, werner
from support import embedded_invocation

GOLDEN = Path(__file__).with_name("golden")

STATES = {
    "werner09.json": lambda: werner(0.9),
    # entangled, with no zero entries: exercises every closed form
    "mixed.json": lambda: mix(
        phi_plus(), random_density_matrix(2, 2, seed=11), 0.1
    ),
    "ginibre.json": lambda: random_density_matrix(2, 2, seed=5),
    "iso23.json": lambda: isotropic_2x3(0.6),
    "ginibre23.json": lambda: random_density_matrix(2, 3, seed=5),
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
    # one case per method string of the two bound dispatchers
    "measure_ec_upper": (["measure", "mixed.json", "ec_upper"], ()),
    "measure_ec_upper_search": (
        ["measure", "iso23.json", "ec_upper", "--budget", "10"], ()
    ),
    "measure_ed_lower_vacuous": (["measure", "iso23.json", "ed_lower"], ()),
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
    # a narrow window, and a full one whose T is rounding alone
    "mixing_verify_narrow": (
        ["mixing-verify", "werner09.json", "ginibre.json", "--p", "0.3", "--n", "5",
         "--half-width", "1"],
        (),
    ),
    "mixing_verify_full": (
        ["mixing-verify", "werner09.json", "ginibre.json", "--p", "0.3", "--n", "4",
         "--half-width", "4"],
        (),
    ),
    # 2x3 copies, d = 6: each swapped pair splits into 21 symmetric and 15
    # antisymmetric dimensions, against 10 and 6 for the qubit pairs above
    "mixing_verify_2x3": (
        ["mixing-verify", "iso23.json", "ginibre23.json", "--p", "0.3", "--n", "4",
         "--half-width", "1"],
        (),
    ),
    "catalytic": (
        ["catalytic", "--delta", "0.1", "--ec-sigma", "0.5", "--ed-rho-p", "0.8"], ()
    ),
    "border_scan_2x2": (["border-scan", "--system", "2x2", "--grid", "11"], ()),
    "border_scan_2x3": (["border-scan", "--system", "2x3", "--grid", "11"], ()),
    "border_scan_2x3_eof": (
        ["border-scan", "--system", "2x3", "--grid", "3", "--include-eof", "--budget", "20"],
        (),
    ),
    "ball_scan": (
        [
            "ball-scan", "werner09.json", "--epsilon", "1e-3", "--samples", "12",
            "--p-points", "5", "--out", "ball.json",
        ],
        ("ball.json", "ball_corridor.csv", "ball_lipschitz.csv"),
    ),
}


def run_in(workdir: str, argv: list[str]) -> dict[str, bytes]:
    """Run argv in workdir holding the input states; map "stdout" and each
    file the run writes to its bytes."""
    for name, make in STATES.items():
        Path(workdir, name).write_text(dumps_state(make()))
    if argv[0] == "mixing-verify":
        code, out, err = run_on_one_blas_thread(workdir, argv)
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.chdir(workdir), contextlib.redirect_stdout(
            stdout
        ), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
    assert code == cli.EXIT_OK, (argv, code, err)
    assert err == ""
    written = {p.name: p.read_bytes() for p in Path(workdir).iterdir() if p.name not in STATES}
    return {"stdout": out.encode(), **written}


def run_on_one_blas_thread(workdir: str, argv: list[str]) -> tuple[int, str, str]:
    """Run argv in a child process with one BLAS thread, as CI does.

    BLAS may split an eigensolve or a product between threads and round
    it differently: the dense sector pass that mixing-verify once ran
    read the narrow case 0.19359201821640493 on one thread and ...495 on
    two, and the halves of its class blocks read it ...0465 on one and
    ...0473 on two.  The thread count is fixed when numpy loads, so the
    case gets its own process.
    """
    env = {
        **os.environ,
        **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
        "PYTHONPATH": str(Path(cli.__file__).parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "entbounds", *argv],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def render(case: str, workdir: str) -> dict[str, bytes]:
    """Run one case in workdir; map golden file names to the bytes produced."""
    argv, files = CASES[case]
    outputs = run_in(workdir, argv)
    assert set(outputs) == {"stdout", *files}
    return {f"{case}.{name}": blob for name, blob in outputs.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    for name, blob in render(case, str(tmp_path)).items():
        assert blob == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report_replays_from_its_invocation(case, tmp_path):
    goldens = {
        path.name.removeprefix(f"{case}."): path.read_bytes()
        for path in GOLDEN.glob(f"{case}.*")
    }
    (invocation,) = {embedded_invocation(blob.decode()) for blob in goldens.values() if blob}
    program, *argv = shlex.split(invocation)
    assert program == "entbounds"
    assert run_in(str(tmp_path), argv) == goldens


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
