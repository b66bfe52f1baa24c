"""Partial-degradability classification: the symmetric channel whose output
and environment marginals coincide, a lossy degraded environment, and the
exclusion checks for candidate degrading maps.

Run: python3 demos/04_pd_classification.py
"""

import numpy as np

from pdchannel import channel as ch
from pdchannel import degradability as deg
from pdchannel import zoo

n_ab = zoo.symmetric_pd_channel()
n_ae = ch.complementary(n_ab)
rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
print("symmetric channel: output and environment marginals agree ->",
      np.allclose(ch.apply(n_ab, rho), ch.apply(n_ae, rho)))

res = deg.classify_pd(n_ab)
print(f"\nclassification with the identity E->E' map: {res['label']}")
for key, sol in res["solutions"].items():
    print(f"  {key:>6}: success={sol['success']} residual={sol['residual']:.2e}")

# a lossy degraded environment breaks the reverse direction
d_rep = zoo.d_e_to_eprime(repair=True)
print(f"\ndegrading map: {d_rep.name} ({d_rep.dim_in} -> {d_rep.dim_out})")
resid = deg.verify_pd_identity(n_ab, d_rep, d_rep)
print(f"partial-degradability identity residual: {resid:.2e}")
res = deg.classify_pd(n_ab, d_rep)
print(f"classification with the lossy map: {res['label']}")
print("  B->E' success:", res["solutions"]["B->E'"]["success"])
print("  E'->B success:", res["solutions"]["E'->B"]["success"])

rep = res["reports"]["choi_n_ae"]
print(f"\nenvironment Choi: PPT={rep['ppt']['is_ppt']} CCNR={rep['ccnr_value']:.4f} "
      f"bound-entanglement flag={rep['flagged_bound_entangled']}")

print("\nexclusion findings for candidate E->E' maps:")
for cand in (ch.identity_channel(2), zoo.depolarizing(1.0), zoo.amplitude_damping(0.2)):
    f = deg.check_theorem3_exclusions(cand)
    print(f"  {cand.name:>26}: identity={f['identity']} "
          f"eb={f['entanglement_breaking']['verdict']} "
          f"disqualified={f['disqualified']}")
