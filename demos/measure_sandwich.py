"""
Lower and upper bounds bracketing the operational measures
==========================================================

Every state gets a distillation lower bound and a formation upper bound.
For Werner states both ends have closed forms, so the sandwich is visible.
"""

import numpy as np

from entbounds import ec_upper, ed_lower, eof_2x2, log_negativity, phi_plus, werner

phi = phi_plus()
print("maximally entangled pair:")
print("  ed_lower =", ed_lower(phi).value)
print("  ec_upper =", ec_upper(phi).value)
print("  log_neg  =", log_negativity(phi).value)
print()

print("Werner family, weight w on the singlet side:")
print(f"{'w':>6} {'ed_lower':>12} {'eof':>12} {'ec_upper':>12} {'log_neg':>12}")
for w in np.linspace(0.0, 1.0, 11):
    rho = werner(float(w))
    lo = ed_lower(rho).value
    hi = ec_upper(rho).value
    ln = log_negativity(rho).value
    print(f"{w:6.2f} {lo:12.6f} {eof_2x2(rho).value:12.6f} {hi:12.6f} {ln:12.6f}")

# below w = 1/3 everything is zero: the PPT region of the family
# the hashing lower bound only wakes up near w = 0.81
