"""Reference values computed apart from entbounds.

Nothing here imports entbounds.  Each function follows a textbook
formula or an exact integer route, so that a report of the program can
be checked against a value the program did not compute.  Matrices use
the bipartite A-major ordering of the state files: row i_A * dim_b + i_B.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)
_S2 = 1.0 / math.sqrt(2.0)
# Bell states |phi+>, |phi->, |psi+>, |psi-> as rows, A-major basis 00,01,10,11.
_BELL = np.array(
    [[_S2, 0, 0, _S2], [_S2, 0, 0, -_S2], [0, _S2, _S2, 0], [0, _S2, -_S2, 0]],
    dtype=complex,
)


def shannon_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def h2(x: float) -> float:
    """Binary entropy in bits."""
    return shannon_bits([x, 1.0 - x])


def formation_from_concurrence(c: float) -> float:
    """h((1 + sqrt(1 - C^2)) / 2), the Wootters / Chen-Albeverio-Fei form."""
    c = min(max(c, 0.0), 1.0)
    return h2((1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_margin(rho: np.ndarray) -> float:
    """l1 - l2 - l3 - l4, the two-qubit concurrence before clipping at 0.

    The l_i are the square roots of the eigenvalues of rho (YxY) rho* (YxY).
    They equal the singular values of Z = sqrt(rho) (YxY) conj(sqrt(rho)),
    because sqrt(rho) rho~ sqrt(rho) = Z Z^dag; the singular values avoid
    the square root of rounding noise near rank deficiency.
    """
    root = _psd_sqrt(rho)
    s = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(s[0] - s[1] - s[2] - s[3])


def wootters_concurrence(rho: np.ndarray) -> float:
    return max(wootters_margin(rho), 0.0)


def wootters_eof(rho: np.ndarray) -> float:
    return formation_from_concurrence(wootters_concurrence(rho))


def partial_transpose_b(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    t = rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 3, 2, 1)
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


def caf_lower_bound(rho: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Chen-Albeverio-Fei lower bound on E_F for 2 x N states.

    C >= ||rho^{T_B}||_1 - 1 bounds the concurrence from below, and
    E_F >= h((1 + sqrt(1 - C^2)) / 2) (PRL 95, 040504 and 210501 (2005)).
    """
    pt = partial_transpose_b(rho, dim_a, dim_b)
    norm = float(np.sum(np.abs(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0))))
    c = norm - 1.0
    return formation_from_concurrence(c) if c > 0.0 else 0.0


def log_negativity(rho: np.ndarray, dim_a: int, dim_b: int) -> float:
    pt = partial_transpose_b(rho, dim_a, dim_b)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return max(float(np.log2(np.sum(np.abs(eigs)))), 0.0)


def entropy_bits(rho: np.ndarray) -> float:
    return shannon_bits(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


def bell_weights(rho: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ij,jk,ik->i", _BELL.conj(), rho, _BELL))


def hashing_yield(rho: np.ndarray) -> float:
    """max(0, 1 - H(Bell weights)), the one-way hashing yield of the twirl."""
    w = np.clip(bell_weights(rho), 0.0, None)
    return max(0.0, 1.0 - shannon_bits(w / w.sum()))


def werner_matrix(w: float) -> np.ndarray:
    singlet = np.array([0.0, _S2, -_S2, 0.0], dtype=complex)
    return w * np.outer(singlet, singlet) + (1.0 - w) * np.eye(4) / 4.0


def werner_eof(w: float) -> float:
    """h(1/2 + sqrt(1 - C^2)/2) with C = max(0, (3w - 1)/2)."""
    return formation_from_concurrence(max(0.0, (3.0 * w - 1.0) / 2.0))


def werner_log_negativity(w: float) -> float:
    # partial transpose spectrum: (1 + w)/4 three times and (1 - 3w)/4
    return max(math.log2(3.0 * (1.0 + w) / 4.0 + abs(1.0 - 3.0 * w) / 4.0), 0.0)


def werner_ppt_margin(w: float) -> float:
    return min((1.0 - 3.0 * w) / 4.0, (1.0 + w) / 4.0)


def isotropic_2x3_matrix(q: float) -> np.ndarray:
    amps = np.zeros(6, dtype=complex)
    amps[0] = amps[4] = _S2
    return q * np.outer(amps, amps) + (1.0 - q) * np.eye(6) / 6.0


def eta_value(eps: float) -> float:
    """Hashing yield of (1 - eps) phi+ + eps I/4: max(0, 1 - H(1-3e/4, e/4, e/4, e/4))."""
    q = eps / 4.0
    return max(0.0, 1.0 - shannon_bits([1.0 - 3.0 * q, q, q, q]))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2.0))))


# ---------------------------------------------------------------------------
# binomial tails and concentration yields, exact in integer arithmetic


def window(n: int, p: float, half_width: float | None) -> tuple[int, int]:
    w = float(n) ** (2.0 / 3.0) if half_width is None else float(half_width)
    return max(0, math.ceil(n * p - w)), min(n, math.floor(n * p + w))


def binomial_tail_exact(n: int, p: float, lo: int, hi: int) -> float:
    """P(l < lo or l > hi) for l ~ Binomial(n, p), summed in integers."""
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    a_pow, b_pow = [1], [1]
    for _ in range(n):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    total = 0
    for ell in list(range(0, lo)) + list(range(hi + 1, n + 1)):
        total += math.comb(n, ell) * a_pow[ell] * b_pow[n - ell]
    return total / d**n  # int / int rounds correctly


def binomial_tail_scipy(n: int, p: float, lo: int, hi: int) -> float:
    from scipy.stats import binom

    lower = float(binom.cdf(lo - 1, n, p)) if lo > 0 else 0.0
    upper = float(binom.sf(hi, n, p)) if hi < n else 0.0
    return lower + upper


def hoeffding(n: int, half_width: float | None) -> float:
    w = float(n) ** (2.0 / 3.0) if half_width is None else float(half_width)
    return 2.0 * math.exp(-2.0 * w * w / n)


def concentration_yield_exact(lambdas, n: int) -> float:
    """(1/n) E[log2 multinomial(n; k)] with k ~ Multinomial(n, lambdas).

    Two-term spectra sum over k in integers; three-term spectra sum over
    every (k1, k2, k3).  The lambdas are normalised exactly to sum 1, and
    each weight is an exact rational rounded once.
    """
    fracs = [Fraction(x) for x in lambdas]
    total = sum(fracs)
    probs = [f / total for f in fracs]
    d = math.lcm(*[f.denominator for f in probs])
    nums = [f.numerator * (d // f.denominator) for f in probs]
    scale = d**n
    acc = 0.0
    if len(nums) == 2:
        for k in range(n + 1):
            weight = math.comb(n, k) * nums[0] ** k * nums[1] ** (n - k)
            acc += weight / scale * math.log2(math.comb(n, k))
    elif len(nums) == 3:
        for k1 in range(n + 1):
            for k2 in range(n - k1 + 1):
                k3 = n - k1 - k2
                multi = math.comb(n, k1) * math.comb(n - k1, k2)
                weight = multi * nums[0] ** k1 * nums[1] ** k2 * nums[2] ** k3
                acc += weight / scale * math.log2(multi)
    else:
        raise ValueError("exact yields are implemented for 2 or 3 terms")
    return acc / n


# ---------------------------------------------------------------------------
# n-copy mixtures, built copy by copy in plain Kronecker order
#
# The trace distance is invariant under one basis permutation applied to
# both arguments, so neither matrix needs the A|B regrouping of the state
# files: both are built as rho_1 x rho_2 x ... in np.kron order.


def truncated_mixture(rho, sigma, p: float, n: int, lo: int, hi: int) -> np.ndarray:
    """Pi from M_m(l) = (1-p) M_{m-1}(l) x rho + p M_{m-1}(l-1) x sigma.

    Only l in [lo - (n - m), hi] can still reach the window, so the others
    are dropped at each step.  Pi is the window sum over its own mass.
    """
    levels = {0: np.ones((1, 1), dtype=complex)}
    for m in range(1, n + 1):
        nxt = {}
        for ell in range(max(0, lo - (n - m)), min(m, hi) + 1):
            acc = None
            if ell in levels:
                acc = (1.0 - p) * np.kron(levels[ell], rho)
            if ell - 1 in levels:
                term = p * np.kron(levels[ell - 1], sigma)
                acc = term if acc is None else acc + term
            if acc is not None:
                nxt[ell] = acc
        levels = nxt
    pi = sum(levels[ell] for ell in range(lo, hi + 1))
    return pi / np.trace(pi).real


def kron_power(rho: np.ndarray, n: int) -> np.ndarray:
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    return out


# ---------------------------------------------------------------------------
# the ball sampler, as documented by entbounds.continuity.sample_ball


def ball_samples(center: np.ndarray, epsilon: float, count: int, seed: int):
    """Regenerate the ball samples of `ball-scan` from its stated algorithm.

    Each sample mixes the center toward a Ginibre-induced random state
    (real then imaginary standard normals, 4x4) so that its trace
    distance to the center is u * epsilon; the first max(1, count // 10)
    samples take u = 1, the rest u = 1 - U(0, 1).
    """
    rng = np.random.default_rng(seed)
    n_surface = max(1, count // 10)
    out = []
    for index in range(count):
        for _ in range(200):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            direction = m / m.trace()
            u = 1.0 if index < n_surface else 1.0 - rng.random()
            t0 = trace_distance(center, direction)
            if t0 < 1e-12:
                continue
            s = u * epsilon / t0
            if s > 1.0:
                continue
            out.append((1.0 - s) * center + s * direction)
            break
        else:
            raise RuntimeError(f"no direction found for ball sample {index}")
    return out, n_surface


def kappa(p: float, r: float) -> float:
    """p / (p + r / (1 - r)); 0 at r = 1."""
    if r >= 1.0 or p == 0.0:
        return 0.0
    return p * (1.0 - r) / (p * (1.0 - r) + r)
