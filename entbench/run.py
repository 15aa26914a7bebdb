"""entbench: end-to-end benchmark of the entbounds command line.

    python3 entbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each call measures one workload in a
fresh Python process (entbench/worker.py), which imports entbounds from
the checkout's `src/`, writes the seeded input files, and calls
`entbounds.cli.main(argv)` for each operation, round after round, until
S seconds have passed.  Every report is checked against entbench's own
references.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 the per-layer span metrics.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Details go to
entbench/out/.  See entbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("eof-search", "mixing-corridor", "scalar-scans")
# One BLAS thread (nproc is 2 where the reference figures were taken): the
# process then competes least with its neighbours, and the timings in the
# README were taken the same way.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 8
DEADLINE_S = 175.0


def spawn(argv: list[str], timeout: float) -> dict:
    """Run the worker; return its last stdout line as JSON, or exit 2."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(t0)] + argv
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"entbench: worker exceeded {timeout:.0f} s", file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"entbench: worker exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    os.environ.update(BLAS_ENV)
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    # Set-up is timed in separate short-lived processes as well, so that its
    # median does not rest on one sample.
    setups = []
    if not args.trace:
        setups = [spawn(base + ["--setup-only"], 60.0)["setup_s"] for _ in range(SETUP_PROBES)]
    remaining = DEADLINE_S - (time.monotonic() - start)
    result = spawn(base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], remaining)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    machine = result["machine"]
    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds, "
          f"BLAS threads {machine['blas_env']}, nproc {machine['nproc']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}")
    for op in result["ops"]:
        if op["failed"]:
            reason = op["fault"] or "; ".join(op["problems"][:3])
            print(f"  FAILED {op['label']} ({op['failed']} of {result['rounds']}): {reason}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
