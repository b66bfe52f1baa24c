"""Degrading-map solving: sweep amplitude damping through its degradable /
anti-degradable transition and inspect the certificates of each solve.

Run: python3 demos/03_degradability_tour.py
"""

from pdchannel import degradability as deg
from pdchannel import zoo

print("amplitude damping, B->E (degradable) and E->B (anti-degradable) solves")
print(f"{'gamma':>6} {'B->E':>10} {'residual':>10} {'cp_min':>10} "
      f"{'E->B':>10} {'label':>16}")
for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
    c = zoo.amplitude_damping(gamma)
    fwd, _ = deg.is_degradable(c)
    bwd, _ = deg.is_antidegradable(c)
    label = deg.classify_pd(c)["label"]
    print(f"{gamma:6.1f} {fwd['status']:>10} {fwd['residual']:10.2e} "
          f"{fwd['cp_min_eig']:10.2e} {bwd['status']:>10} {label:>16}")

print("\nerasure channel behaves the same way around p = 1/2:")
for p in (0.25, 0.5, 0.75):
    c = zoo.erasure(p)
    print(f"  p={p}: B->E {deg.is_degradable(c)[0]['status']}, "
          f"E->B {deg.is_antidegradable(c)[0]['status']}")

# a solve returns (report, map): a successful one hands back the degrading
# map itself as a Kraus channel
_, m = deg.is_degradable(zoo.amplitude_damping(0.2))
print(f"\nreturned degrading map: {m.dim_in} -> {m.dim_out}, "
      f"{len(m.kraus)} Kraus ops, tp residual {m.tp_residual():.2e}")
print("a failed solve reports its certificates instead of raising; this one")
print("is 'impossible': the first Douglas-Rachford displacement gives a Farkas")
print("witness (Y, z), scaled to unit norm, whose score proves that no CPTP map")
print("exists:")
failed, _ = deg.is_degradable(zoo.amplitude_damping(0.9))
witness = failed.pop("witness")
print(" ", failed)
print(f"  witness: {witness['kind']} score {witness['score']:.4f} < -margin {witness['margin']:g}")
print("\nhorodecki(3.5) E->B: the least-squares candidate is not CP, and no")
print("displacement witness proves anything, so Douglas-Rachford refines it to a map:")
sol, m = deg.is_antidegradable(zoo.horodecki_channel(3.5))
print(f"  status {sol['status']}, {m.dim_in} -> {m.dim_out}, {len(m.kraus)} Kraus ops, "
      f"map residual {sol['map_residual']:.1e}, tp residual {sol['map_tp_residual']:.1e}")
