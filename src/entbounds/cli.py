"""Command-line surface: each subcommand is a reproducible experiment.

Exit codes: 0 success, 2 input or usage problem, 3 matrix size cap
exceeded, 4 a certification failed (a verified bound did not hold or a
ball left the certified-distillable region).  Every output embeds the
full invocation and the seed so runs can be replayed byte-for-byte.
A subcommand takes only the options it reads; one without --seed or
--cap prints DEFAULT_SEED or DEFAULT_SIZE_CAP in their place.  The slack
of every certified inequality is linalg.CERTIFICATION_TOL, which no
option changes; the audit's "tolerance" field is always null.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import shlex
import sys
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from .continuity import (
    BallSpec,
    ball_constants,
    border_scan,
    corridor_consistency_check,
    lipschitz_bounds,
    sample_ball,
    surface_count,
)
from .errors import (
    BallNotCertifiedError,
    EntboundsError,
    SizeCapError,
    StateValidityError,
)
from .linalg import DEFAULT_SIZE_CAP, trace_distances
from .measures import DEFAULT_EOF_BUDGET, best, bound_routes, bound_values
from .mixing import (
    MixtureSpec,
    binomial_window,
    tail_mass_scan,
    verify_mixing_bound,
)
from .protocols import catalytic_rate, concentration_curve, eta_continuity_scan
from .stateio import atomic_write_text, load_state
from .states import isotropic_2x3, maximally_mixed, werner

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CERTIFICATION = 4

# the seed of every sampling command, and the one printed by the others
DEFAULT_SEED = 7


def finite_float(text: str) -> float:
    """A float argument that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def positive_int(text: str) -> int:
    """An integer argument of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def _audit(args) -> dict:
    return {
        "invocation": args.invocation,
        "seed": args.seed,
        "size_cap": args.cap,
        "tolerance": None,
    }


def _csv_text(args, rows: list[dict], extra_comments=()) -> str:
    """The rows as a CSV table headed by the keys of the first row."""
    buffer = io.StringIO()
    buffer.write(f"# invocation: {args.invocation}\n")
    buffer.write(f"# seed: {args.seed}\n")
    for line in extra_comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row.values()])
    return buffer.getvalue()


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def cmd_measure(args) -> int:
    state = load_state(args.state_file, cap=args.cap)
    record = best(*bound_routes(args.budget, args.seed)[args.measure], [state])[0].as_record()
    if args.fmt == "csv":
        text = _csv_text(args, [record])
    else:
        text = _json_text({"audit": _audit(args), **record})
    _emit(args.out, text)
    return EXIT_OK


def cmd_mixing_verify(args) -> int:
    rho = load_state(args.rho_file, cap=args.cap)
    sigma = load_state(args.sigma_file, cap=args.cap)
    window, _ = binomial_window(args.n, args.p, args.half_width)
    spec = MixtureSpec(rho=rho, sigma=sigma, p=args.p, n=args.n, window=window)
    report = verify_mixing_bound(spec, cap=args.cap)
    payload = {
        "audit": _audit(args),
        "p": args.p,
        "n": args.n,
        "window": list(window),
        **asdict(report),
    }
    _emit(args.out, _json_text(payload))
    return EXIT_OK if report.passed else EXIT_CERTIFICATION


def cmd_tail_scan(args) -> int:
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not ns:
        raise ValueError("n-list must contain at least one copy count")
    rows = tail_mass_scan(args.p, ns, args.half_width)
    table = [{k: v for k, v in asdict(r).items() if k != "log10_tail_mass"} for r in rows]
    logs = [f"log10_tail_mass n={r.n}: {r.log10_tail_mass!r}" for r in rows if r.log10_tail_mass is not None]
    _emit(args.out, _csv_text(args, table, extra_comments=logs))
    return EXIT_OK


def cmd_ball_scan(args) -> int:
    if args.p_points < 2:
        raise ValueError("p-points must be at least 2")
    center = load_state(args.center_file, cap=args.cap)
    spec = BallSpec(center=center, epsilon=args.epsilon, sample_count=args.samples, seed=args.seed)
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples)
    corridor = corridor_consistency_check(
        center, samples[0], constants, np.linspace(0.0, 1.0, args.p_points)
    )
    distances = trace_distances(center, samples)
    n_surface = surface_count(args.samples)
    lipschitz_rows = [
        {"sample": index, "trace_distance": t, "on_surface": index < n_surface, "bound": bound}
        for index, (t, bound) in enumerate(
            zip(distances.tolist(), lipschitz_bounds(distances, constants).tolist())
        )
    ]
    payload = {
        "audit": _audit(args),
        "center_file": args.center_file,
        "epsilon": args.epsilon,
        "sample_count": args.samples,
        "constants": asdict(constants),
        "corridor": {
            "tolerance": corridor.tolerance,
            "all_passed": corridor.all_passed,
            "rows": [asdict(row) for row in corridor.rows],
        },
        "lipschitz": lipschitz_rows,
    }
    _emit(args.out, _json_text(payload))
    if args.out is not None:
        stem = args.out.removesuffix(".json")
        _emit(stem + "_corridor.csv", _csv_text(args, payload["corridor"]["rows"]))
        _emit(stem + "_lipschitz.csv", _csv_text(args, lipschitz_rows))
    return EXIT_OK if corridor.all_passed else EXIT_CERTIFICATION


def cmd_border_scan(args) -> int:
    if args.grid < 2:
        raise ValueError("grid must contain at least 2 points")
    eof = partial(bound_values, "ec_upper", budget=args.budget, seed=args.seed)
    if args.system == "2x2":
        family, header = werner, ["param", "eof", "log_neg", "ppt_margin"]
    elif args.include_eof:
        family, header = isotropic_2x3, ["param", "log_neg", "ppt_margin", "eof_upper"]
    else:
        family, header, eof = isotropic_2x3, ["param", "log_neg", "ppt_margin"], None
    rows = border_scan(family, np.linspace(0.0, 1.0, args.grid), eof)
    table = [{name: getattr(row, "eof" if name == "eof_upper" else name) for name in header} for row in rows]
    _emit(args.out, _csv_text(args, table))
    return EXIT_OK


def cmd_concentration(args) -> int:
    lambdas = [finite_float(x) for x in args.lambdas.split(",") if x.strip()]
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not lambdas or not ns:
        raise ValueError("lambdas and n-list must be non-empty")
    curve = concentration_curve(lambdas, ns)
    text = _csv_text(
        args,
        [{"n": n, "value": value, "asymptote": curve.asymptote} for n, value in curve.points],
        extra_comments=[f"protocol: {curve.protocol}"],
    )
    _emit(args.out, text)
    return EXIT_OK


def cmd_eta_scan(args) -> int:
    if args.eps_points < 2:
        raise ValueError("eps-points must be at least 2")
    for flag, eps in (("--eps-start", args.eps_start), ("--eps-stop", args.eps_stop)):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"{flag} must lie in (0, 1], got {eps!r}")
    grid = np.logspace(
        np.log10(args.eps_start), np.log10(args.eps_stop), args.eps_points
    )
    if np.any(grid[1:] == grid[:-1]):
        raise ValueError("the epsilon grid repeats a point: widen it or take fewer --eps-points")
    xi = (
        maximally_mixed(2, 2)
        if args.xi_file is None
        else load_state(args.xi_file, cap=args.cap)
    )
    rows = eta_continuity_scan(xi, grid)
    slopes = [
        abs(b.value - a.value) / abs(b.epsilon - a.epsilon)
        for a, b in zip(rows, rows[1:])
    ]
    fitted = max(slopes, default=0.0)
    text = _csv_text(
        args,
        [{"epsilon": r.epsilon, "value": r.value, "bound": 1.0 - r.value} for r in rows],
        extra_comments=[
            "value certifies the yield from below; bound = 1 - value caps the loss",
            f"fitted_lipschitz: {fitted!r}",
        ],
    )
    _emit(args.out, text)
    return EXIT_OK


def cmd_catalytic(args) -> int:
    record = catalytic_rate(args.delta, args.ec_sigma, args.ed_rho_p)
    payload = {"audit": _audit(args), **asdict(record)}
    _emit(args.out, _json_text(payload))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: main() parses every argv with the same parser
    # options of more than one subcommand, each declared once; each
    # subcommand takes only those it reads, as Actions of its own
    shared = {
        "--seed": dict(
            type=int,
            default=DEFAULT_SEED,
            help="RNG seed of the EoF search (eof_upper_general, and ec_upper beyond 2x2) "
            "and of ball-scan's samples",
        ),
        "--cap": dict(
            type=positive_int,
            default=DEFAULT_SIZE_CAP,
            help="largest matrix side accepted before aborting with exit 3",
        ),
        "--out": dict(default=None, help="output path (stdout if omitted)"),
        "--budget": dict(
            type=positive_int,
            default=DEFAULT_EOF_BUDGET,
            help="at most this many random restarts are scored by the EoF search"
            " (eof_upper_general, and ec_upper beyond 2x2)",
        ),
    }

    def take(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    parser = argparse.ArgumentParser(
        prog="entbounds",
        description="Bipartite entanglement bounds: measures, mixing, balls, scans.",
    )
    # a subcommand without one of these options still reports its default
    parser.set_defaults(seed=DEFAULT_SEED, cap=DEFAULT_SIZE_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one measure on a state file")
    take(p, "--seed", "--cap", "--out")
    p.add_argument("state_file")
    p.add_argument("measure", choices=sorted(bound_routes()))
    take(p, "--budget")
    p.add_argument("--format", choices=["csv", "json"], default="json", dest="fmt", help="report format")
    p.set_defaults(func=cmd_measure)

    about = (
        "check T(rho_p^(x n), Pi) <= tail mass. T is taken block by block over the sectors "
        "of the copy swaps (1 2), (3 4), ..., each block split by the swaps of whole pairs. "
        "The power is built independently of Pi, so the check verifies Pi's construction: "
        "it holds by construction whenever Pi is correct"
    )
    p = sub.add_parser("mixing-verify", help=about, description=about)
    take(p, "--cap", "--out")
    p.add_argument("rho_file")
    p.add_argument("sigma_file")
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--half-width", type=finite_float, default=None)
    p.set_defaults(func=cmd_mixing_verify)

    p = sub.add_parser("tail-scan", help="binomial window tail masses vs the Hoeffding ceiling")
    take(p, "--out")
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated copy counts")
    p.add_argument("--half-width", type=finite_float, default=None)
    p.set_defaults(func=cmd_tail_scan)

    about = "sample a trace-distance ball and certify the corridor; the ball constants are sampled estimates"
    p = sub.add_parser("ball-scan", help=about, description=about)
    take(p, "--seed", "--cap", "--out")
    p.add_argument("center_file")
    p.add_argument("--epsilon", type=finite_float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--p-points", type=int, default=20)
    p.set_defaults(func=cmd_ball_scan)

    p = sub.add_parser("border-scan", help="measure table along a separability border path")
    take(p, "--seed", "--out")
    p.add_argument("--system", choices=["2x2", "2x3"], required=True)
    p.add_argument("--grid", type=int, required=True, help="number of grid points on [0, 1]")
    p.add_argument("--include-eof", action="store_true")
    take(p, "--budget")
    p.set_defaults(func=cmd_border_scan, budget=400)

    p = sub.add_parser("concentration", help="finite-copy concentration yield curve")
    take(p, "--out")
    p.add_argument("--lambdas", required=True, help="comma-separated Schmidt squares")
    p.add_argument("--n-list", required=True, help="comma-separated copy counts")
    p.set_defaults(func=cmd_concentration)

    p = sub.add_parser("eta-scan", help="hashing yield of a contaminated maximally entangled state")
    take(p, "--cap", "--out")
    p.add_argument("--eps-start", type=finite_float, default=1e-4)
    p.add_argument("--eps-stop", type=finite_float, default=1e-1)
    p.add_argument("--eps-points", type=int, default=20)
    p.add_argument("--xi-file", default=None, help="contamination state (default: maximally mixed)")
    p.set_defaults(func=cmd_eta_scan)

    about = (
        "rate gain from a catalytic side resource: factor is a lower bound on the gain only when "
        "--ec-sigma is an upper bound on E_C(sigma) and --ed-rho-p a lower bound on E_D(rho_p)"
    )
    p = sub.add_parser("catalytic", help=about, description=about)
    take(p, "--out")
    p.add_argument("--delta", type=finite_float, required=True)
    p.add_argument("--ec-sigma", type=finite_float, required=True, help="an upper bound on E_C(sigma)")
    p.add_argument("--ed-rho-p", type=finite_float, required=True, help="a lower bound on E_D(rho_p)")
    p.set_defaults(func=cmd_catalytic)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the subcommand that refused them
            sub = next(a for a in parser._actions if a.dest == "command")
            sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        code = exc.code
        return EXIT_INPUT if code not in (0, None) else EXIT_OK
    args.invocation = "entbounds " + shlex.join(argv)
    try:
        return args.func(args)
    # OverflowError: an integer argument too large to convert to a float;
    # MemoryError: an array numpy refuses to allocate, such as a huge grid
    except (EntboundsError, ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StateValidityError) and exc.report is not None:
            print(
                "  hermiticity defect: "
                f"{exc.report.hermiticity_defect!r}\n"
                f"  trace defect: {exc.report.trace_defect!r}\n"
                f"  min eigenvalue: {exc.report.min_eigenvalue!r}",
                file=sys.stderr,
            )
        if isinstance(exc, SizeCapError):
            return EXIT_CAP
        return EXIT_CERTIFICATION if isinstance(exc, BallNotCertifiedError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
