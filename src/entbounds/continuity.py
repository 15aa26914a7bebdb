"""Trace-distance balls, mixing corridors and border scans.

The central object is a ball of states around a distillable center.
Sampled extrema of the distillation lower bound and the creation-cost
upper bound over the ball give a gap ratio r, a corridor coefficient
kappa(p) and a Lipschitz ceiling delta that bounds how fast any measure
wedged between the two surrogates can move inside the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import BallNotCertifiedError, EntboundsError, StateValidityError
from .linalg import (
    CERTIFICATION_TOL,
    DensityMatrix,
    _distance,
    _mix,
    blocks,
    mix,
    stack,
    trace_distances,
)
from .measures import _log_negativity, _pt_spectra, bound_values
from .sampling import _ginibre_state

# a bound hook maps a list of states of one shape to one value per state
BoundHook = Callable[[Sequence[DensityMatrix]], Sequence[float]]

MAX_DIRECTION_RETRIES = 200


@dataclass(frozen=True)
class BallSpec:
    """Seeded sampling plan for a trace-distance ball around a center."""

    center: DensityMatrix
    epsilon: float
    sample_count: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be a positive integer")


@dataclass(frozen=True)
class BallConstants:
    ed_min_lower: float
    ec_max_upper: float
    r: float
    delta: float
    epsilon: float
    provenance: str
    reversible: bool


@dataclass(frozen=True)
class CorridorRow:
    p: float
    kappa: float
    scaled_ed_center: float
    ec_mixture: float
    margin_center_side: float
    scaled_ed_mixture: float
    ec_center: float
    margin_mixture_side: float
    passed: bool
    reverse_mix_available: bool


@dataclass(frozen=True)
class CorridorReport:
    rows: list[CorridorRow]
    all_passed: bool
    tolerance: float


@dataclass(frozen=True)
class BorderRow:
    param: float
    log_neg: float
    ppt_margin: float
    eof: float | None


def surface_count(sample_count: int) -> int:
    """How many leading samples sit exactly on the ball surface."""
    return max(1, sample_count // 10)


def sample_ball(spec: BallSpec) -> list[DensityMatrix]:
    """Draw spec.sample_count states with T(center, state) <= epsilon.

    Random full-rank directions are rescaled along the segment toward
    the center so the trace distance lands exactly at u * epsilon.  The
    leading surface_count() samples use u = 1 (they sit on the surface
    and double as directions for mixture families); the rest draw u
    uniformly from (0, 1].  The draw sequence does not depend on
    epsilon, so shrinking the radius under a fixed seed rescales the
    same sample set along the same rays.  Each sample is validated where
    it is made; the directions, which no report holds, are not.
    """
    rng = np.random.default_rng(spec.seed)
    center = spec.center
    n_surface = surface_count(spec.sample_count)
    samples: list[DensityMatrix] = []
    for index in range(spec.sample_count):
        for _ in range(MAX_DIRECTION_RETRIES):
            direction = _ginibre_state(center.side, rng)
            u = 1.0 if index < n_surface else 1.0 - rng.random()
            t0 = float(_distance(center.entries - direction))
            if t0 < 1e-12:
                continue
            s = u * spec.epsilon / t0
            if s > 1.0:
                continue
            samples.append(DensityMatrix(center.dim_a, center.dim_b, _mix(center.entries, direction, s)))
            break
        else:
            raise EntboundsError(
                f"could not place ball sample {index} after "
                f"{MAX_DIRECTION_RETRIES} direction draws"
            )
    return samples


def ball_constants(
    spec: BallSpec,
    samples: Sequence[DensityMatrix] | None = None,
    ed: BoundHook = partial(bound_values, "ed_lower"),
    ec: BoundHook = partial(bound_values, "ec_upper"),
) -> BallConstants:
    """Sampled surrogate extrema over the ball and the derived constants.

    The minimum of the distillation lower bound ed and the maximum of the
    cost upper bound ec run over the center plus the samples.  They are
    estimates of the true extrema, hence provenance "sampled".  ed and ec
    each take the list of the center and the samples once; bind a search
    budget and seed into ec with functools.partial(bound_values, "ec_upper", ...).
    """
    if samples is None:
        samples = sample_ball(spec)
    if not samples:
        raise ValueError("sampled ball constants need at least one sample")
    states = [spec.center, *samples]
    ed_values = np.asarray(ed(states), dtype=float)
    if ed_values[0] <= 0.0:
        raise BallNotCertifiedError(
            "center has vacuous distillation lower bound; shrink epsilon "
            "or pick a certified-distillable center"
        )
    vacuous = np.flatnonzero(ed_values[1:] <= 0.0)
    if vacuous.size:
        index = int(vacuous[0])
        raise BallNotCertifiedError(
            f"sample {index} has vacuous distillation lower bound; "
            "the ball leaves the certified-distillable region",
            sample_index=index,
        )
    ed_min = float(np.min(ed_values))
    ec_max = float(np.max(ec(states)))
    r = min(ed_min / ec_max, 1.0)
    reversible = r == 1.0
    delta = 0.0 if reversible else ec_max * (1.0 - r) / r
    return BallConstants(
        ed_min_lower=ed_min,
        ec_max_upper=ec_max,
        r=r,
        delta=delta,
        epsilon=spec.epsilon,
        provenance="sampled",
        reversible=reversible,
    )


def kappa(p: float, r: float) -> float:
    """p / (p + r/(1-r)), the corridor coefficient; 0 by convention at r = 1.

    The algebraically equal form p(1-r) / (p(1-r) + r) avoids the
    intermediate r/(1-r) blowup for r near 1, and the endpoint branches
    keep kappa(0, r) = 0 and kappa(1, r) = 1 - r exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if r == 1.0 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0 - r
    scaled = p * (1.0 - r)
    return scaled / (scaled + r)


def lipschitz_bounds(distances, constants: BallConstants) -> np.ndarray:
    """delta / epsilon times each trace distance T(center, state), for states
    inside the ball."""
    epsilon = constants.epsilon
    ts = np.asarray(distances, dtype=float)
    outside = np.flatnonzero(ts > epsilon + CERTIFICATION_TOL)
    if outside.size:
        raise ValueError(
            f"state lies outside the ball: T = {float(ts[outside[0]])} exceeds epsilon = {epsilon}"
        )
    return constants.delta / epsilon * ts


def lipschitz_bound(
    center: DensityMatrix,
    other: DensityMatrix,
    constants: BallConstants,
) -> float:
    """delta / epsilon times T(center, other) for states inside the ball."""
    return float(lipschitz_bounds(trace_distances(center, [other]), constants)[0])


def corridor_consistency_check(
    center: DensityMatrix,
    sigma_surface: DensityMatrix,
    constants: BallConstants,
    p_grid,
    ed: BoundHook = partial(bound_values, "ed_lower"),
    ec: BoundHook = partial(bound_values, "ec_upper"),
) -> CorridorReport:
    """Check the two-sided surrogate corridor along the mixture family.

    For each p the mixture rho_p = (1-p) center + p sigma_surface must
    satisfy (1 - kappa(p)) * ed(center) <= ec(rho_p) and
    the same with center and rho_p swapped, both up to CERTIFICATION_TOL.
    Any true asymptotic measure is wedged between the two surrogates,
    so a violation indicts the implementation rather than the bound.
    ed and ec each take the list of the center and the mixtures once.
    The reverse_mix_available flag records whether the affine extension
    past the center (weight p - 1) still lands on a valid state.
    """
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ValueError("the corridor grid must contain at least one p")
    states = [center, *(mix(center, sigma_surface, p) for p in ps)]
    ed_values = np.asarray(ed(states), dtype=float).tolist()
    ec_values = np.asarray(ec(states), dtype=float).tolist()
    ed_center, ec_center = ed_values[0], ec_values[0]
    rows = []
    for p, ed_mixture, ec_mixture in zip(ps, ed_values[1:], ec_values[1:]):
        kap = kappa(p, constants.r)
        scale = 1.0 - kap
        margin_center = ec_mixture - scale * ed_center
        margin_mixture = ec_center - scale * ed_mixture
        try:
            mix(center, sigma_surface, p - 1.0)
            reverse_available = True
        except StateValidityError:
            reverse_available = False
        rows.append(
            CorridorRow(
                p=p,
                kappa=kap,
                scaled_ed_center=scale * ed_center,
                ec_mixture=ec_mixture,
                margin_center_side=margin_center,
                scaled_ed_mixture=scale * ed_mixture,
                ec_center=ec_center,
                margin_mixture_side=margin_mixture,
                passed=bool(margin_center >= -CERTIFICATION_TOL and margin_mixture >= -CERTIFICATION_TOL),
                reverse_mix_available=reverse_available,
            )
        )
    return CorridorReport(
        rows=rows, all_passed=all(row.passed for row in rows), tolerance=CERTIFICATION_TOL
    )


def _border_state(family: Callable[[float], DensityMatrix], param: float) -> DensityMatrix:
    state = family(param)
    if not isinstance(state, DensityMatrix):
        raise TypeError("family must produce DensityMatrix values")
    if state.dim_a != 2:
        raise ValueError("family must keep the first party a qubit")
    return state


def border_scan(
    family: Callable[[float], DensityMatrix],
    param_grid,
    eof: BoundHook | None = None,
) -> list[BorderRow]:
    """Log-negativity, PPT margin and an optional eof along a 2 x N path.

    The partial-transpose spectra and the eof column are taken one block
    of STACK_BLOCK grid points at a time.  eof is a bound hook, as in
    ball_constants: it maps the block's list of states to one value
    each, for instance partial(bound_values, "ec_upper"), the Wootters
    closed form for two qubits and the seeded search elsewhere.  Without
    eof the column holds None.
    """
    rows = []
    for params in blocks([float(param) for param in param_grid]):
        states = [_border_state(family, param) for param in params]
        spectra = _pt_spectra(*stack(states))
        eofs = [None] * len(states) if eof is None else np.asarray(eof(states), dtype=float).tolist()
        for row in zip(params, _log_negativity(spectra).tolist(), spectra[:, 0].tolist(), eofs):
            rows.append(BorderRow(*row))
    return rows
