"""Propagate a slow annealing sweep and watch the ground-state fidelity grow.

A two-atom parity constraint is encoded, each detuning ramps from the
uniform term -s to its final value over 100 us while a weak half-sine drive
mixes the states; the final fidelity, the probability of the model's ground
states, exceeds 0.99 (adiabatic regime).
"""

from rydqubo import IsingModel, Schedule, encode, enumerate_spectrum, propagate

# x1 XOR x2 = 1 expressed as spins: E = 0.5 + 0.5 s1 s2
model = IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5)
enc = encode(model)  # no gauge flips: encoded index k is pattern k

schedule = Schedule(t_total=100.0, delta_coeffs=(), omega_coeffs=(1.0,),
                    sample_count=11)
state, traj = propagate(enc, schedule,
                        ground_indices=enumerate_spectrum(model).ground_states)

print(" t (us)   Omega    Delta_G   <E>      fidelity")
for k in range(len(traj.times)):
    print(f"{traj.times[k]:7.1f} {traj.omega[k]:8.3f} {traj.delta_g[k]:8.3f} "
          f"{traj.energy[k]:9.4f} {traj.fidelity[k]:9.6f}")

print(f"\nfinal fidelity {traj.fidelity[-1]:.6f}, "
      f"norm error {traj.norm_error:.1e}")
