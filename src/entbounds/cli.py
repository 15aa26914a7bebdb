"""Command-line surface: each subcommand is a reproducible experiment.

Exit codes: 0 success, 2 input or usage problem, 3 matrix size cap
exceeded, 4 a certification failed (a verified bound did not hold or a
ball left the certified-distillable region).  Every output embeds the
full invocation and the seed so runs can be replayed byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .continuity import (
    BallSpec,
    BorderRow2x2,
    BorderRow2xN,
    CorridorRow,
    ball_constants,
    border_scan_2x2,
    border_scan_2xn,
    corridor_consistency_check,
    lipschitz_bound,
    sample_ball,
    surface_count,
)
from .errors import (
    BallNotCertifiedError,
    EmptyWindowError,
    SizeCapError,
    StateFileError,
    StateValidityError,
)
from .linalg import DEFAULT_SIZE_CAP, trace_distance
from .measures import (
    MeasureValue,
    concurrence_2x2,
    ec_upper,
    ed_lower,
    eof_2x2,
    eof_upper_general,
    log_negativity,
    von_neumann_entropy,
)
from .mixing import (
    MixtureSpec,
    TailScanRow,
    binomial_window,
    tail_mass_scan,
    verify_mixing_bound,
)
from .protocols import catalytic_rate, concentration_curve, eta_continuity_scan
from .stateio import atomic_write_text, load_state
from .states import maximally_mixed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_CERTIFICATION = 4


@dataclass(frozen=True)
class RunConfig:
    seed: int
    size_cap: int
    tolerance: float | None
    out: str | None
    fmt: str | None
    invocation: str

    def audit(self) -> dict:
        return {
            "invocation": self.invocation,
            "seed": self.seed,
            "size_cap": self.size_cap,
            "tolerance": self.tolerance,
        }


def _measure_entropy(state, budget, seed):
    return MeasureValue(
        von_neumann_entropy(state.entries), "exact", "von_neumann_entropy"
    )


def _measure_concurrence(state, budget, seed):
    return MeasureValue(concurrence_2x2(state), "exact", "concurrence_2x2")


MEASURES = {
    "log_negativity": lambda state, budget, seed: log_negativity(state),
    "eof_2x2": lambda state, budget, seed: eof_2x2(state),
    "concurrence_2x2": _measure_concurrence,
    "ed_lower": lambda state, budget, seed: ed_lower(state),
    "ec_upper": lambda state, budget, seed: ec_upper(state, budget=budget, seed=seed),
    "eof_upper_general": lambda state, budget, seed: eof_upper_general(
        state, budget=budget, seed=seed
    ),
    "von_neumann_entropy": _measure_entropy,
}


def finite_float(text: str) -> float:
    """A float argument that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def _table(cls, rows, drop=()) -> tuple[list[str], list[list]]:
    """CSV header and rows from the fields of a row dataclass."""
    header = [f.name for f in fields(cls) if f.name not in drop]
    return header, [[getattr(row, name) for name in header] for row in rows]


def _csv_text(config: RunConfig, header: list[str], rows: list[list], extra_comments=()) -> str:
    buffer = io.StringIO()
    buffer.write(f"# invocation: {config.invocation}\n")
    buffer.write(f"# seed: {config.seed}\n")
    for line in extra_comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def _emit(config: RunConfig, text: str, path: str | None = None) -> None:
    target = path if path is not None else config.out
    if target is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(target, text)


def cmd_measure(args, config: RunConfig) -> int:
    state = load_state(args.state_file, force=args.force, cap=config.size_cap)
    fn = MEASURES[args.measure]
    record = fn(state, args.budget, config.seed).as_record()
    if config.fmt == "csv":
        text = _csv_text(config, list(record), [list(record.values())])
    else:
        text = _json_text({"audit": config.audit(), **record})
    _emit(config, text)
    return EXIT_OK


def cmd_mixing_verify(args, config: RunConfig) -> int:
    rho = load_state(args.rho_file, cap=config.size_cap)
    sigma = load_state(args.sigma_file, cap=config.size_cap)
    window, _ = binomial_window(args.n, args.p, args.half_width)
    spec = MixtureSpec(rho=rho, sigma=sigma, p=args.p, n=args.n, window=window)
    tol = 1e-9 if config.tolerance is None else config.tolerance
    report = verify_mixing_bound(spec, cap=config.size_cap, tol=tol)
    payload = {
        "audit": config.audit(),
        "p": args.p,
        "n": args.n,
        "window": list(window),
        **asdict(report),
    }
    _emit(config, _json_text(payload))
    return EXIT_OK if report.passed else EXIT_CERTIFICATION


def cmd_tail_scan(args, config: RunConfig) -> int:
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not ns:
        raise ValueError("n-list must contain at least one copy count")
    rows = tail_mass_scan(args.p, ns, args.half_width)
    _emit(config, _csv_text(config, *_table(TailScanRow, rows)))
    return EXIT_OK


def cmd_ball_scan(args, config: RunConfig) -> int:
    center = load_state(args.center_file, cap=config.size_cap)
    spec = BallSpec(
        center=center,
        epsilon=args.epsilon,
        sample_count=args.samples,
        seed=config.seed,
    )
    samples = sample_ball(spec)
    constants = ball_constants(spec, samples=samples, budget=args.budget)
    sigma_surface = samples[0]
    tol = 1e-9 if config.tolerance is None else config.tolerance
    corridor = corridor_consistency_check(
        center,
        sigma_surface,
        constants,
        np.linspace(0.0, 1.0, args.p_points),
        budget=args.budget,
        seed=config.seed,
        tolerance=tol,
    )
    lipschitz_rows = []
    for index, state in enumerate(samples):
        t = trace_distance(center, state)
        lipschitz_rows.append(
            {
                "sample": index,
                "trace_distance": t,
                "on_surface": index < surface_count(args.samples),
                "bound": lipschitz_bound(center, state, constants),
            }
        )
    payload = {
        "audit": config.audit(),
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
    text = _json_text(payload)
    if config.out is None:
        _emit(config, text)
    else:
        stem = config.out
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        _emit(config, text, path=config.out)
        corridor_csv = _csv_text(config, *_table(CorridorRow, corridor.rows))
        _emit(config, corridor_csv, path=stem + "_corridor.csv")
        lipschitz_csv = _csv_text(
            config,
            list(lipschitz_rows[0]),
            [list(row.values()) for row in lipschitz_rows],
        )
        _emit(config, lipschitz_csv, path=stem + "_lipschitz.csv")
    return EXIT_OK if corridor.all_passed else EXIT_CERTIFICATION


def cmd_border_scan(args, config: RunConfig) -> int:
    if args.grid < 2:
        raise ValueError("grid must contain at least 2 points")
    grid = np.linspace(0.0, 1.0, args.grid)
    if args.system == "2x2":
        table = _table(BorderRow2x2, border_scan_2x2(param_grid=grid))
    else:
        rows = border_scan_2xn(
            param_grid=grid,
            include_eof_search=args.include_eof,
            budget=args.budget,
            seed=config.seed,
        )
        table = _table(BorderRow2xN, rows, drop=() if args.include_eof else ("eof_upper",))
    _emit(config, _csv_text(config, *table))
    return EXIT_OK


def cmd_concentration(args, config: RunConfig) -> int:
    lambdas = [finite_float(x) for x in args.lambdas.split(",") if x.strip()]
    ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not lambdas or not ns:
        raise ValueError("lambdas and n-list must be non-empty")
    curve = concentration_curve(lambdas, ns)
    text = _csv_text(
        config,
        ["n", "value", "asymptote"],
        [[n, value, curve.asymptote] for n, value in curve.points],
        extra_comments=[f"protocol: {curve.protocol}"],
    )
    _emit(config, text)
    return EXIT_OK


def cmd_eta_scan(args, config: RunConfig) -> int:
    if args.eps_points < 2:
        raise ValueError("eps-points must be at least 2")
    grid = np.logspace(
        np.log10(args.eps_start), np.log10(args.eps_stop), args.eps_points
    )
    xi = (
        maximally_mixed(2, 2)
        if args.xi_file is None
        else load_state(args.xi_file, cap=config.size_cap)
    )
    rows = eta_continuity_scan(xi, grid)
    slopes = [
        abs(b.value - a.value) / abs(b.epsilon - a.epsilon)
        for a, b in zip(rows, rows[1:])
    ]
    fitted = max(slopes, default=0.0)
    text = _csv_text(
        config,
        ["epsilon", "value", "bound"],
        [[r.epsilon, r.value, 1.0 - r.value] for r in rows],
        extra_comments=[
            "value certifies the yield from below; bound = 1 - value caps the loss",
            f"fitted_lipschitz: {fitted!r}",
        ],
    )
    _emit(config, text)
    return EXIT_OK


def cmd_catalytic(args, config: RunConfig) -> int:
    record = catalytic_rate(args.delta, args.ec_sigma, args.ed_rho_p)
    payload = {"audit": config.audit(), **asdict(record)}
    _emit(config, _json_text(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=7, help="RNG seed for sampling")
    shared.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SIZE_CAP,
        help="largest matrix side accepted before aborting with exit 3",
    )
    shared.add_argument(
        "--tolerance",
        type=finite_float,
        default=None,
        help="override the default 1e-9 certification slack",
    )
    shared.add_argument("--out", default=None, help="output path (stdout if omitted)")
    shared.add_argument(
        "--format", choices=["csv", "json"], default=None, dest="fmt",
        help="output format where a command supports both",
    )

    parser = argparse.ArgumentParser(
        prog="entbounds",
        description="Bipartite entanglement bounds: measures, mixing, balls, scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[shared], help="evaluate one measure on a state file")
    p.add_argument("state_file")
    p.add_argument("measure", choices=sorted(MEASURES))
    p.add_argument("--budget", type=int, default=2000, help="search restarts for ec_upper paths")
    p.add_argument("--force", action="store_true", help="skip state validation")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("mixing-verify", parents=[shared], help="check the truncated-mixture trace-distance bound")
    p.add_argument("rho_file")
    p.add_argument("sigma_file")
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--half-width", type=finite_float, default=None)
    p.set_defaults(func=cmd_mixing_verify)

    p = sub.add_parser("tail-scan", parents=[shared], help="binomial window tail masses vs the Hoeffding ceiling")
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated copy counts")
    p.add_argument("--half-width", type=finite_float, default=None)
    p.set_defaults(func=cmd_tail_scan)

    p = sub.add_parser("ball-scan", parents=[shared], help="sample a trace-distance ball and certify the corridor")
    p.add_argument("center_file")
    p.add_argument("--epsilon", type=finite_float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--p-points", type=int, default=20)
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(func=cmd_ball_scan)

    p = sub.add_parser("border-scan", parents=[shared], help="measure table along a separability border path")
    p.add_argument("--system", choices=["2x2", "2x3"], required=True)
    p.add_argument("--grid", type=int, required=True, help="number of grid points on [0, 1]")
    p.add_argument("--include-eof", action="store_true")
    p.add_argument("--budget", type=int, default=400)
    p.set_defaults(func=cmd_border_scan)

    p = sub.add_parser("concentration", parents=[shared], help="finite-copy concentration yield curve")
    p.add_argument("--lambdas", required=True, help="comma-separated Schmidt squares")
    p.add_argument("--n-list", required=True, help="comma-separated copy counts")
    p.set_defaults(func=cmd_concentration)

    p = sub.add_parser("eta-scan", parents=[shared], help="hashing yield of a contaminated maximally entangled state")
    p.add_argument("--eps-start", type=finite_float, default=1e-4)
    p.add_argument("--eps-stop", type=finite_float, default=1e-1)
    p.add_argument("--eps-points", type=int, default=20)
    p.add_argument("--xi-file", default=None, help="contamination state (default: maximally mixed)")
    p.set_defaults(func=cmd_eta_scan)

    p = sub.add_parser("catalytic", parents=[shared], help="rate gain from a catalytic side resource")
    p.add_argument("--delta", type=finite_float, required=True)
    p.add_argument("--ec-sigma", type=finite_float, required=True)
    p.add_argument("--ed-rho-p", type=finite_float, required=True)
    p.set_defaults(func=cmd_catalytic)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_INPUT if code not in (0, None) else EXIT_OK
    config = RunConfig(
        seed=args.seed,
        size_cap=args.cap,
        tolerance=args.tolerance,
        out=args.out,
        fmt=args.fmt,
        invocation="entbounds " + " ".join(argv),
    )
    try:
        return args.func(args, config)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BallNotCertifiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except StateValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(
                "  hermiticity defect: "
                f"{exc.report.hermiticity_defect!r}\n"
                f"  trace defect: {exc.report.trace_defect!r}\n"
                f"  min eigenvalue: {exc.report.min_eigenvalue!r}",
                file=sys.stderr,
            )
        return EXIT_INPUT
    except (StateFileError, EmptyWindowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
