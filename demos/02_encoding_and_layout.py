"""Map a model onto Rydberg hardware quantities and place real atoms.

The XOR triangle has uniform repulsive couplings, so it encodes directly:
V = 4J and a final detuning per atom. The geometry stage then searches for
atom positions whose van der Waals interaction C6/r^6 reproduces V.
"""

import numpy as np

from rydqubo import (HardwareLimits, as_ising, embed_layout,
                     encode_for_annealing, layout_interactions,
                     preset_instance, validate)

model = as_ising(preset_instance("xor_sat").model)
outcome = encode_for_annealing(model, mode="physical")
enc = outcome.target

print("interaction matrix V (rad/us):")
print(np.array_str(enc.v, precision=3))
print("final detunings:", enc.delta_final)
print("signed interactions needed:", outcome.signed)

layout, report = embed_layout(enc, dim=2, seed=0)
print("\natom positions (um):")
print(np.array_str(layout.positions, precision=3))
print(f"worst relative interaction error: {report.max_rel_error:.2e} "
      f"on pair {report.worst_pair}")

check = validate(enc, layout, tol=1e-3)
print(f"layout validation passed: {check.passed}")

# the nearest pair's interaction against the cap that r_min sets
achieved = layout_interactions(layout)
limits = HardwareLimits()
print(f"\nnearest-pair V: {achieved.max():.3f} rad/us "
      f"(r_min limit allows up to {limits.c6 / limits.r_min**6:.0f})")
