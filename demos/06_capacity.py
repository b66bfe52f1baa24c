"""Coherent-information maximization: calibration against channels with
known optima, then the two-copy additivity probe.

Run: python3 demos/06_capacity.py  (a few seconds)
"""

import numpy as np

from pdchannel import capacity as cap
from pdchannel import channel as ch
from pdchannel import zoo

print("calibration (32 restarts, seed 42; on a degradable channel the optimum"
      " is at most value + certified gap, up to the rounding of value):")
cases = (
    ("identity qubit", ch.identity_channel(2), 1.0),
    ("identity qutrit", ch.identity_channel(3), np.log2(3.0)),
    ("erasure p=0.25", zoo.erasure(0.25), 0.5),
    ("erasure p=0.50", zoo.erasure(0.5), 0.0),
    ("amp damp g=0.5", zoo.amplitude_damping(0.5), 0.0),
)
for label, channel, want in cases:
    res = cap.maximize_coherent_information(channel, restarts=32, seed=42)
    gap = res["certificate"]["gap"]
    print(f"  {label:>16}: {res['value']:.6f}  (expected {want:.6f}, "
          f"converged={res['converged']}, certified gap "
          f"{'none' if gap is None else f'{gap:.2e}'})")

print("\ntwo-copy additivity probe (gap = joint - 2 * single):")
for channel in (zoo.amplitude_damping(0.2), zoo.amplitude_damping(0.3),
                zoo.dephasing(0.3)):
    probe = cap.additivity_probe(channel, restarts=32, seed=42)["additivity"]
    print(f"  {channel.name:>28}: single={probe['single']:.6f} "
          f"joint={probe['joint']:.6f} gap={probe['gap']:+.2e}")
