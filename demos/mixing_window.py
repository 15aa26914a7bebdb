"""
Approximating a mixture power by a window of symmetric blocks
=============================================================
"""

from entbounds import MixtureSpec, binomial_window, tail_mass_scan, verify_mixing_bound
from entbounds.sampling import random_density_matrix

rho = random_density_matrix(2, 2, seed=1)
sigma = random_density_matrix(2, 2, seed=2)
p, n = 0.4, 4

window, tail = binomial_window(n, p, half_width=1)
print(f"n = {n}, p = {p}: window {window}, tail mass {tail:.3e}")

spec = MixtureSpec(rho=rho, sigma=sigma, p=p, n=n, window=window)
report = verify_mixing_bound(spec)
print("trace distance to the exact power:", report.trace_distance)
print("certified ceiling:", report.bound)
print("within bound:", report.passed)
print()

# keeping every block reproduces the tensor power to machine precision
full_spec = MixtureSpec(rho=rho, sigma=sigma, p=p, n=n, window=(0, n))
print("full window distance:", verify_mixing_bound(full_spec).trace_distance)
print()

print("tail masses with the default window, p = 0.3:")
for row in tail_mass_scan(0.3, [10, 100, 1000, 10000]):
    print(
        f"  n = {row.n:>6}  window [{row.window_lo}, {row.window_hi}]"
        f"  tail {row.tail_mass:.3e}  ceiling {row.hoeffding_bound:.3e}"
    )
