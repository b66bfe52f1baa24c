"""Tour of the channel representations: Kraus, Stinespring, Choi, and the
complementary channel, plus the JSON interchange format.

Run: python3 demos/01_channel_representations.py
"""

import os
import tempfile

import numpy as np

from pdchannel import channel as ch
from pdchannel import qmat, zoo

c = zoo.amplitude_damping(0.3)
print(f"channel: {c.name}  ({c.dim_in} -> {c.dim_out}, {len(c.kraus)} Kraus ops)")
print(f"trace-preservation residual: {c.tp_residual():.2e}")

rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
out = ch.apply(c, rho)
print("\ninput state:\n", rho.real)
print("output state:\n", out.real.round(6))

v = ch.stinespring(c)
print(f"\nStinespring isometry: {v.shape}, V^dag V = I ->",
      np.allclose(v.conj().T @ v, np.eye(2)))
big = v @ rho @ v.conj().T
out_via_iso = qmat.partial_trace(big, (c.dim_out, c.dim_env), keep=[0])
print("tracing the environment reproduces the channel action ->",
      np.allclose(out_via_iso, out))

comp = ch.complementary(c)
env = ch.apply(comp, rho)
env_via_iso = qmat.partial_trace(big, (c.dim_out, c.dim_env), keep=[1])
print("complementary channel matches the environment marginal ->",
      np.allclose(env, env_via_iso))

choi = ch.to_choi(c)
print(f"\nChoi matrix: trace {np.trace(choi).real:.3f}, "
      f"rank {qmat.numerical_rank(qmat.eigh(choi)[0])} (= minimal environment dimension)")

rebuilt = ch.KrausChannel(ch.kraus_from_choi(choi * c.dim_in, c.dim_in, c.dim_out))
print("Kraus re-extraction from the Choi acts identically ->",
      np.allclose(ch.apply(rebuilt, rho), out, atol=1e-10))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "channel.json")
    ch.save_channel(c, path)
    loaded = ch.load_channel(path)
    print("\nJSON roundtrip preserves every operator ->",
          all(np.array_equal(a, b) for a, b in zip(loaded.kraus, c.kraus)))
