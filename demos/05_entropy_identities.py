"""Entropy identities along the isometry chain of the channel and both
degrading maps, each entropy that of one channel output, then compare the
conditional-entropy expressions of the coherent information.

Run: python3 demos/05_entropy_identities.py
"""

import numpy as np

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import zoo

n_ab = zoo.symmetric_pd_channel()

print("case 1: identity degradings on the self-complementary symmetric channel")
ident = ch.identity_channel(8)
rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
out = cap.coherent_information_pd(n_ab, ident, ident, rho)
for key, value in out.items():
    print(f"  {key:>20}: {value:+.9f}")
print(f"  standard I_coh      : {cap.coherent_information(n_ab, rho):+.9f}")

print("\ncase 2: repaired 8->2 degrading on both legs, input on its support")
d_rep = zoo.d_e_to_eprime(repair=True)
resid = deg.verify_pd_identity(n_ab, d_rep, d_rep)
print(f"  identity residual: {resid:.2e}")
rho0 = np.zeros((4, 4), dtype=complex)
rho0[0, 0] = 1.0
out = cap.coherent_information_pd(n_ab, d_rep, d_rep, rho0)
for key, value in out.items():
    print(f"  {key:>20}: {value:+.9f}")

print("\ncase 3: degradable channel, solved degrading as the output leg")
c = zoo.amplitude_damping(0.2)
_, d_b_to_e = deg.is_degradable(c)
rho = np.eye(2, dtype=complex) / 2
out = cap.coherent_information_pd(c, ch.identity_channel(2), d_b_to_e, rho)
print(f"  h_b_minus_h_eprime  : {out['h_b_minus_h_eprime']:+.9f}")
print(f"  standard I_coh      : {cap.coherent_information(c, rho):+.9f}")

print("\nstrong subadditivity over 100 random tripartite states:")
rng = np.random.default_rng(2024)
worst = np.inf
for _ in range(100):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = a @ a.conj().T
    worst = min(worst, cap.ssa_check(m / np.trace(m).real, (2, 2, 2)))
print(f"  minimum slack: {worst:.6f} (never below -1e-9)")
