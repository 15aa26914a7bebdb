"""Finite-copy conversion protocols and their rate records.

Concentration of pure states into singlets by measuring the type class
of the Schmidt spectrum, hashing yields after depolarization toward a
target Bell state, and the rate gain from a catalytic side resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, _mix, blocks
from .measures import _bell_weights, _hashing
from .mixing import _binom_logpmf, _binom_reach, _log_factorials
from .states import phi_plus

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class YieldCurve:
    protocol: str
    asymptote: float
    points: list[tuple[int, float]]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("copy counts must be strictly increasing")
        if any(val < 0 for _, val in self.points):
            raise ValueError("yields must be non-negative")


@dataclass(frozen=True)
class EtaScanRow:
    epsilon: float
    value: float


@dataclass(frozen=True)
class CatalyticRate:
    delta: float
    ec_sigma: float
    ed_rho_p: float
    p: float
    k: float
    factor: float


def _check_distribution(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size == 0:
        raise ValueError("distribution must have at least one entry")
    if not np.all(np.isfinite(weights)):
        raise ValueError("distribution entries must be finite")
    if np.any(weights < -1e-12):
        raise ValueError("distribution entries must be non-negative")
    # checked before the sum, which overflows on entries near the float maximum
    if np.any(weights > 1.0 + 1e-9):
        raise ValueError("distribution entries must not exceed 1")
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1, got {total}")
    return np.clip(weights, 0.0, None) / total


def concentration_yield(schmidt_squares, n: int) -> float:
    """Expected singlets per copy from an n-copy type-class measurement.

    The expected log of the multinomial coefficient splits over the
    marginals: E[log2 C(n; k)] = log2 n! - sum_i E[log2 k_i!] with
    k_i ~ Binomial(n, lambda_i), which is exact and linear in the
    number of Schmidt terms.  Each expectation runs over the binomial reach.
    """
    lam = _check_distribution(schmidt_squares)
    if n < 1:
        raise ValueError("n must be a positive integer")
    expected = math.lgamma(n + 1.0) / LOG2
    for li in lam.tolist():
        if li == 0.0:
            continue
        if li == 1.0:
            expected -= math.lgamma(n + 1.0) / LOG2
            continue
        lo, hi = _binom_reach(n, li)
        weights = np.exp(_binom_logpmf(n, li, lo, hi))
        expected -= float(weights @ (_log_factorials(n, li, lo, hi) / LOG2))
    return float(max(expected / n, 0.0))


def concentration_curve(schmidt_squares, n_list) -> YieldCurve:
    lam = _check_distribution(schmidt_squares)
    asymptote = float(-np.sum(lam[lam > 0] * np.log2(lam[lam > 0])))
    points = [(int(n), concentration_yield(lam, int(n))) for n in n_list]
    return YieldCurve(
        protocol="type_class_measurement", asymptote=asymptote, points=points
    )


def eta_continuity_scan(xi: DensityMatrix, eps_grid) -> list[EtaScanRow]:
    """Hashing yield of (1-eps) phi_plus + eps xi over a grid of eps.

    The yield of the twirled state is 1 - H(probs) clamped at 0, so the
    curve decays continuously from 1 as the contamination grows.  The
    mixtures are made as one stack per STACK_BLOCK points and not
    validated again: each is a convex combination of two validated
    states, and _bell_weights clips what rounding puts below 0.
    """
    if (xi.dim_a, xi.dim_b) != (2, 2):
        raise ValueError("contamination state must be two-qubit")
    target = phi_plus()
    grid = [float(eps) for eps in eps_grid]
    for eps in grid:
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    rows = []
    for block in blocks(grid):
        mixtures = _mix(target.entries, xi.entries, np.array(block)[:, None, None])
        values = _hashing(_bell_weights(mixtures)).tolist()
        rows += [EtaScanRow(epsilon=eps, value=value) for eps, value in zip(block, values)]
    return rows


def catalytic_rate(delta: float, ec_sigma: float, ed_rho_p: float) -> CatalyticRate:
    """Rate gain from mixing weight delta of a side resource sigma.

    Choosing p so that the sigma content pays for itself gives
    p = (delta/ec) / (1 + delta/ec) and a net factor 1 + delta * k
    with k = 1/ec - 1/ed, an improvement whenever sigma is cheaper to
    create than the mixture is to distill.  Inputs whose p, k or factor
    overflow a float raise ValueError.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not ec_sigma > 0.0:
        raise ValueError("ec_sigma must be positive")
    if not ed_rho_p > 0.0:
        raise ValueError("ed_rho_p must be positive")
    ratio = delta / ec_sigma
    p = ratio / (1.0 + ratio)
    k = 1.0 / ec_sigma - 1.0 / ed_rho_p
    factor = 1.0 + delta * k
    if not np.all(np.isfinite([p, k, factor])):
        raise ValueError(
            f"catalytic rate overflows: p={p!r}, k={k!r}, factor={factor!r} are not all finite"
        )
    return CatalyticRate(
        delta=delta, ec_sigma=ec_sigma, ed_rho_p=ed_rho_p, p=p, k=k, factor=factor
    )
