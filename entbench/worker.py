"""One workload in one fresh process: set up, run rounds, check, report.

Started by run.py; not meant to be run by hand.  It imports entbounds
from the checkout's own `src/`, writes the workload's state files, and
calls `entbounds.cli.main(argv)` in-process for every operation.  Rounds
of the same operations repeat until `--seconds` have passed.  With
`--trace 1` every second round runs with spans installed.  The last line
of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time


def run_round(cli, ops, tracer=None) -> list[dict]:
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        for name in op.files:  # a file the call fails to write reads as missing, not stale
            if os.path.exists(name):
                os.remove(name)
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        files = {}
        for name in op.files:
            if os.path.exists(name):
                with open(name) as handle:
                    files[name] = handle.read()
            else:
                files[name] = None
        records.append({"code": code, "seconds": seconds, "cpu_seconds": cpu_seconds,
                        "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "files": files})
    return records


def compact(records: list[dict], first: list[dict]) -> list[dict]:
    """A round's record without its outputs, which are only compared with round one's.

    Keeping every round's outputs would make the process's peak memory grow
    with the number of rounds, that is with the machine's speed.
    """
    return [
        {"code": rec["code"], "seconds": rec["seconds"], "cpu_seconds": rec["cpu_seconds"],
         "same": (rec["stdout"], rec["files"]) == (one["stdout"], one["files"])}
        for rec, one in zip(records, first)
    ]


def check_ops(ops, first, rounds) -> tuple[list[dict], int]:
    """Check round one against the references and later rounds against round one.

    `first` holds round one's full records, `rounds` every round's compact
    records.  Reports promise to be byte-identical for an identical
    invocation, so a later round whose output differs from round one fails.
    """
    summary, failed = [], 0
    for index, op in enumerate(ops):
        rec = first[index]
        problems, figures = [], {}
        missing = [name for name, text in rec["files"].items() if text is None]
        if rec["code"] != op.expect:
            problems.append(f"exit {rec['code']}, expected {op.expect}: {rec['stderr'].strip()[:200]}")
        elif missing:
            problems.append(f"output files not written: {missing}")
        elif op.check is not None:
            try:
                problems, figures = op.check(rec)
            except Exception as exc:  # an unparsable report fails its check
                problems = [f"check raised {exc!r}"]
        for later in rounds[1:]:
            again = later[index]
            if again["code"] != rec["code"]:
                problems.append(f"exit {again['code']} in a later round, {rec['code']} in round one")
            elif op.expect == 0 and not again["same"]:
                problems.append("output differs from round one for the same invocation")
        op_failed = len(rounds) if problems else 0
        failed += op_failed
        # a known fault explains a failure only if every round failed the way it does
        explained = op.fault is not None and all(r[index]["code"] == op.fault_exit for r in rounds)
        summary.append({
            "label": op.label, "argv": op.argv, "expect": op.expect, "exit": rec["code"],
            "seconds_median": statistics.median(r[index]["seconds"] for r in rounds),
            "failed": op_failed, "problems": problems[:20], "figures": figures,
            "fault": op.fault if op_failed and explained else None,
        })
    return summary, failed


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() before the spawn")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    try:
        from entbounds import cli
    except ImportError as exc:
        print(f"entbench: cannot import entbounds from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"entbench: entbounds came from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    files, ops = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = os.path.join(here, "out")
    work = os.path.join(out_dir, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)  # nothing from an earlier run is read back
    os.makedirs(work)
    os.chdir(work)
    for name, text in files.items():
        with open(name, "w") as handle:
            handle.write(text)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    first, rounds, traced_flags = None, [], []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.enable()
        try:
            records = run_round(cli, ops, tracer if traced else None)
        finally:
            if traced:
                tracer.disable()
        first = first or records
        rounds.append(compact(records, first))
        traced_flags.append(traced)
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and time.monotonic() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary, failed = check_ops(ops, first, rounds)
    round_s = [sum(rec["seconds"] for rec in r) for r in rounds]
    plain_s = [t for t, f in zip(round_s, traced_flags) if not f]
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(plain_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    gaps = [op["figures"]["gap_2x3"] for op in summary if "gap_2x3" in op["figures"]]
    # A workload without a 2x3 search point reports the trivial gap of one
    # point, 0 <= E_F <= 1: a fixed marker, since every workload must carry
    # every end-to-end metric and none may read 0.
    metrics["eof_gap_2x3_bits"] = (sum(gaps) if gaps else 1.0, "ebit")
    if tracer is not None:
        traced_rounds = [i for i, f in enumerate(traced_flags) if f]
        # each traced round against the untraced round just before it, so
        # that a drift in machine speed over the run cancels
        overhead = statistics.median(round_s[i] - round_s[i - 1] for i in traced_rounds)
        metrics = {}
        for name, (calls, self_s) in tracer.per_round(traced_rounds).items():
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.jsonl"))

    unexplained = [op["label"] for op in summary if op["failed"] and not op["fault"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "rounds": len(rounds), "traced_rounds": traced_flags,
        "round_s": round_s, "round_cpu_s": [sum(rec["cpu_seconds"] for rec in r) for r in rounds],
        "ops": summary,
        "correct": not unexplained, "attempted": len(rounds) * len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as h:
        json.dump(result, h, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
