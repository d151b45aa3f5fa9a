"""Build each reference problem instance and inspect its exact spectrum.

Every problem family compiles to a quadratic binary model; enumerating all
assignments (feasible for these small instances) gives the exact ground
energy, its degeneracy, and the full cost histogram.
"""

from rydqubo import PRESET_NAMES, enumerate_spectrum, preset_instance, state_bits

for name in PRESET_NAMES:
    preset = preset_instance(name)
    table = enumerate_spectrum(preset.model)
    print(f"\n{name}: {preset.metadata['description']}")
    print(f"  variables: {preset.model.n}")
    print(f"  spectrum:  " + ", ".join(
        f"{e:g} (x{m})" for e, m in zip(table.energies[:6], table.counts))
        + (" ..." if len(table.energies) > 6 else ""))
    bits = [''.join(map(str, state_bits(s, preset.model.n)))
            for s in table.ground_states[:4]]
    print(f"  optimum {table.e_min:g} with degeneracy {table.counts[0]}; "
          f"e.g. {' '.join(bits)}")
