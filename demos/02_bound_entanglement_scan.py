"""Scan the qutrit entanglement-binding family: the output state is PPT for
small mixing weights and NPT for large ones, and the realignment (CCNR)
value certifies entanglement inside the PPT window.

Run: python3 demos/02_bound_entanglement_scan.py
"""

import numpy as np

from pdchannel import channel as ch
from pdchannel import entanglement as ent
from pdchannel import zoo

print(f"{'alpha':>6} {'min PT eig':>12} {'PPT':>5} {'CCNR':>8} {'bound?':>7}")
for alpha in (3.0, 3.1, 3.5, 4.0, 4.3, 4.7, 5.0):
    rho = zoo.horodecki_state(alpha)
    rep = ent.bound_entanglement_report(rho, (3, 3))
    min_eig = min(rep["ppt"]["min_eig_ta"], rep["ppt"]["min_eig_tb"])
    print(f"{alpha:6.1f} {min_eig:12.5f} {str(rep['ppt']['is_ppt']):>5} "
          f"{rep['ccnr_value']:8.5f} {str(rep['flagged_bound_entangled']):>7}")

# the state is exactly the Choi-type output of the matching channel
alpha = 3.5
psi = np.zeros(9, dtype=complex)
for i in range(3):
    psi[i * 3 + i] = 1.0 / np.sqrt(3.0)
rho_in = np.outer(psi, psi.conj())
big = ch.tensor(ch.identity_channel(3), zoo.horodecki_channel(alpha))
delta = np.max(np.abs(ch.apply(big, rho_in) - zoo.horodecki_state(alpha)))
print(f"\nchannel-state consistency at alpha={alpha}: max deviation {delta:.2e}")

rep = ent.is_entanglement_breaking(zoo.horodecki_channel(alpha))
print(f"entanglement-breaking verdict for the channel: {rep['verdict']}")
print(f"  witness: {rep['witness']}")
