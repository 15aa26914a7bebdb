"""
Measure behavior crossing the separability border
=================================================
"""

from functools import partial

import numpy as np

from entbounds import border_scan, isotropic_2x3, werner
from entbounds.measures import bound_values

# Werner path: the border sits at weight 1/3; on two qubits the ec_upper
# bound is the Wootters closed form of the entanglement of formation
rows = border_scan(werner, np.linspace(0.25, 0.45, 9), partial(bound_values, "ec_upper"))
print("two-qubit Werner path")
print(f"{'w':>8} {'eof':>12} {'log_neg':>12} {'ppt_margin':>12}")
for row in rows:
    print(f"{row.param:8.3f} {row.eof:12.8f} {row.log_neg:12.8f} {row.ppt_margin:12.8f}")
print()

# qubit-qutrit isotropic path: the border sits at q = 1/4
rows = border_scan(isotropic_2x3, np.linspace(0.1, 0.4, 7))
print("qubit-qutrit isotropic path")
print(f"{'q':>8} {'log_neg':>12} {'ppt_margin':>12}")
for row in rows:
    print(f"{row.param:8.3f} {row.log_neg:12.8f} {row.ppt_margin:12.8f}")
print()
print("in both families the log-negativity switches on exactly where the")
print("partial transpose margin goes negative, and it leaves zero continuously")
