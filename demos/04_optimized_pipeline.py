"""Full pipeline: build, encode, optimize the pulse shapes, and report R.

The optimizer runs BFGS on the exact adjoint gradient of the final-time
energy (the default plan is one stage of 32 objective calls) and tunes the
detuning and drive coefficients to maximize the final-time solution quality
R = (C_max - C_obt) / (C_max - C_opt).
"""

from rydqubo import StagePlan, preset_instance, result_json, run_pipeline

plan = StagePlan.default()

preset = preset_instance("set_packing")
result = run_pipeline(preset.model, "set_packing", preset_name="set_packing",
                      plan=plan, seed=0)

payload = result_json(result)
print(f"instance:       {payload['instance']}")
print(f"plan:           {plan.to_dict()['stages']}")
print(f"R:              {payload['R']:.5f}")
print(f"fidelity:       {payload['F_final']:.5f}")
print(f"cost obtained:  {payload['C_obt']:.5f} (optimum {payload['C_opt']:g}, "
      f"worst {payload['C_max']:g})")
print(f"evaluations:    {payload['evaluations']}")
print(f"run manifest:   {payload['manifest_hash']}")
