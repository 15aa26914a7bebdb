"""Negative controls: every benchmark check passes a true report and flags a corrupted one.

    python3 -m pytest entbench

Reports come from the real CLI at small sizes where that is cheap, and
are then corrupted the way a faulty program could corrupt them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from entbounds import cli  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from worker import check_ops, compact  # noqa: E402


def run(argv, files=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0
    return {"stdout": out.getvalue(), "files": {name: open(name).read() for name in files}}


def passes(check, out):
    problems, _ = check(out)
    assert problems == [], problems


def flags(check, out):
    problems, _ = check(out)
    assert problems, "the corrupted report was not flagged"


def edit_json(out, change, name=None):
    doc = json.loads(out["stdout"] if name is None else out["files"][name])
    change(doc)
    text = json.dumps(doc, indent=1) + "\n"
    if name is None:
        return {"stdout": text, "files": out["files"]}
    return {"stdout": out["stdout"], "files": {**out["files"], name: text}}


def edit_csv(out, row, col, change):
    lines = out["stdout"].splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[body[row]] = ",".join(cells)
    return {"stdout": "\n".join(lines) + "\n", "files": {}}


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def write_state(name, matrix, dim_a, dim_b):
    with open(name, "w") as handle:
        handle.write(wl.state_text(matrix, dim_a, dim_b))


def test_eof_2x2_window_around_wootters():
    rho = wl.entangled_2x2(5)
    exact = ref.wootters_eof(rho)
    check = wl.check_eof_2x2(rho)
    good = {"stdout": json.dumps({"value": exact + 1e-12, "kind": "upper_bound"}), "files": {}}
    passes(check, good)
    flags(check, edit_json(good, lambda d: d.update(value=exact - 1e-6)))
    flags(check, edit_json(good, lambda d: d.update(value=exact + 2e-3)))
    flags(check, edit_json(good, lambda d: d.update(kind="exact")))


def test_iso_2x3_upper_bound_against_caf_lower_bound():
    lower = ref.caf_lower_bound(ref.isotropic_2x3_matrix(0.6), 2, 3)
    assert lower == pytest.approx(0.3186, abs=1e-4)
    check = wl.check_iso_2x3(0.6)
    good = {"stdout": json.dumps({"value": 0.3481, "kind": "upper_bound"}), "files": {}}
    passes(check, good)
    flags(check, edit_json(good, lambda d: d.update(value=lower - 0.01)))
    flags(check, edit_json(good, lambda d: d.update(value=1.2)))
    separable = wl.check_iso_2x3(0.2)
    passes(separable, edit_json(good, lambda d: d.update(value=4e-14)))
    flags(separable, edit_json(good, lambda d: d.update(value=1e-3)))


@pytest.mark.parametrize("half_width", [1, 3])
def test_mixing_against_own_recursion(half_width):
    rng = np.random.default_rng(3)
    rho, sigma = wl.ginibre_state(rng, 4), wl.ginibre_state(rng, 4)
    write_state("rho.json", rho, 2, 2)
    write_state("sigma.json", sigma, 2, 2)
    argv = ["mixing-verify", "rho.json", "sigma.json", "--p", "0.3", "--n", "3",
            "--half-width", str(half_width)]
    check = wl.check_mixing(rho, sigma, 0.3, 3, half_width)
    good = run(argv)
    passes(check, good)
    flags(check, edit_json(good, lambda d: d.update(trace_distance=d["trace_distance"] + 1e-6)))
    flags(check, edit_json(good, lambda d: d.update(tail_mass=2 * d["tail_mass"] + 1e-6)))
    if half_width == 3:  # full window: Pi is the n-fold power, T must vanish
        flags(check, edit_json(good, lambda d: d.update(trace_distance=1e-8)))
        return
    # a report for another sigma stands for a Pi built from the wrong blocks
    write_state("sigma.json", wl.ginibre_state(rng, 4), 2, 2)
    flags(check, run(argv))


def test_tail_scan_against_exact_and_hoeffding():
    ns = [10, 100, 1000, 100_000]
    check = wl.check_tail_scan(0.3, ns, 20.0)
    good = run(["tail-scan", "--p", "0.3", "--n-list", "10,100,1000,100000", "--half-width", "20.0"])
    passes(check, good)
    flags(check, edit_csv(good, 2, 3, lambda t: 2 * t))  # doubled tail at n = 1000
    flags(check, edit_csv(good, 3, 3, lambda t: 2 * t))  # doubled tail at n = 1e5 (scipy)
    flags(check, edit_csv(good, 1, 4, lambda h: h / 2))  # Hoeffding ceiling halved


def test_concentration_against_exact_sum():
    check = wl.check_concentration([0.5, 0.5], [1, 10, 100])
    good = run(["concentration", "--lambdas", "0.5,0.5", "--n-list", "1,10,100"])
    passes(check, good)
    flags(check, edit_csv(good, 1, 1, lambda v: v + 1e-6))
    flags(check, edit_csv(good, 2, 1, lambda v: 1.01))  # above H = 1


def test_border_scan_against_werner_closed_form():
    check = wl.check_border_2x2(21)
    good = run(["border-scan", "--system", "2x2", "--grid", "21"])
    passes(check, good)
    flags(check, edit_csv(good, 15, 1, lambda v: v + 1e-6))
    flags(check, edit_csv(good, 5, 3, lambda v: v - 0.01))


def test_eta_scan_against_closed_form():
    check = wl.check_eta(20)
    good = run(["eta-scan", "--eps-points", "20"])
    passes(check, good)
    flags(check, edit_csv(good, 10, 1, lambda v: v - 0.05))


def test_ball_scan_against_regenerated_samples():
    center = ref.werner_matrix(0.9)
    write_state("w.json", center, 2, 2)
    argv = ["ball-scan", "w.json", "--epsilon", repr(wl.BALL_EPSILON), "--samples",
            str(wl.BALL_SAMPLES), "--p-points", str(wl.BALL_P_POINTS), "--seed", "11"]
    check = wl.check_ball(center, 11, None, "w.json")
    good = run(argv)
    passes(check, good)

    def outside(d):
        d["lipschitz"][7]["trace_distance"] = 1.5 * wl.BALL_EPSILON

    def margin(d):
        d["corridor"]["rows"][4]["margin_center_side"] -= 1e-6

    flags(check, edit_json(good, outside))
    flags(check, edit_json(good, margin))
    flags(check, edit_json(good, lambda d: d["constants"].update(r=d["constants"]["r"] * 0.99)))
    flags(wl.check_ball(center, 12, None, "w.json"), good)  # samples from another seed

    files = ("b.json", "b_corridor.csv", "b_lipschitz.csv")
    stored = run(argv + ["--out", "b.json"], files)
    out_check = wl.check_ball(center, 11, "b.json", "w.json")
    passes(out_check, stored)
    flags(out_check, edit_json(stored, outside, name="b.json"))


@pytest.mark.parametrize("measure", sorted(wl.MEASURE_REFERENCE))
def test_closed_form_measures(measure):
    rho = wl.ginibre_state(np.random.default_rng(9), 4)
    write_state("r.json", rho, 2, 2)
    check = wl.check_measure(rho, measure, "json")
    good = run(["measure", "r.json", measure, "--format", "json"])
    passes(check, good)
    flags(check, edit_json(good, lambda d: d.update(value=d["value"] + 1e-6)))
    flags(check, edit_json(good, lambda d: d.update(kind="upper_bound")))


def test_round_identity_and_exit_codes():
    ok = wl.Op("ok", ["x"], lambda out: ([], {}))
    nan = wl.Op("nan", ["y"], None, expect=2, fault=wl.NAN_FAULT, fault_exit=0)
    first = [{"code": 0, "seconds": 1.0, "cpu_seconds": 1.0, "stdout": "a", "stderr": "", "files": {}},
             {"code": 0, "seconds": 1.0, "cpu_seconds": 1.0, "stdout": "", "stderr": "", "files": {}}]
    same = compact(first, first)
    summary, failed = check_ops([ok, nan], first, [same, same])
    assert failed == 2 and summary[1]["fault"] == wl.NAN_FAULT and not summary[0]["failed"]
    changed = compact([dict(first[0], stdout="b"), first[1]], first)
    summary, failed = check_ops([ok, nan], first, [same, changed])
    assert failed == 4 and summary[0]["failed"] == 2 and summary[0]["fault"] is None
    # the fault explains exit 0 only: a crash or another code is a new failure
    for code in (1, "raised ValueError('x')"):
        crashed = compact([first[0], dict(first[1], code=code)], first)
        summary, failed = check_ops([ok, nan], first, [same, crashed])
        assert failed == 2 and summary[1]["fault"] is None


def test_missing_output_file():
    op = wl.Op("out", ["z"], lambda out: ([], {}), files=("o.json",))
    written = {"code": 0, "seconds": 1.0, "cpu_seconds": 1.0, "stdout": "", "stderr": "",
               "files": {"o.json": "{}"}}
    missing = dict(written, files={"o.json": None})
    summary, failed = check_ops([op], [written], [compact([written], [written])])
    assert failed == 0
    summary, failed = check_ops([op], [missing], [compact([missing], [missing])])
    assert failed == 1 and "not written" in summary[0]["problems"][0]
    summary, failed = check_ops([op], [written], [compact([written], [written]), compact([missing], [written])])
    assert failed == 2 and summary[0]["fault"] is None
