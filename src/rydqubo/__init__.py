"""QUBO problems on a simulated Rydberg annealer with local light shifts."""

__version__ = "0.12.0"

from .models import (IsingModel, QuboModel, SpectrumTable, as_ising, as_qubo,
                     enumerate_spectrum, ising_to_qubo, qubo_to_ising,
                     state_bits)
from .encoding import (AtomLayout, EncodedTarget, HardwareLimits,
                       NotEncodableError, embed_layout, encode, gauge_fix,
                       layout_interactions, rescale, validate)
from .annealer import PropagationConfig, Schedule, Trajectory, propagate
from .optimizer import (AnnealObjective, OptimizationResult, Stage, StagePlan,
                        approximation_ratio, run_hybrid)
from .hardness import (HardnessReport, analyze_model, analyze_spectrum,
                       format_csv, format_table, hardness_parameter,
                       report_rows, sigma, threatening_set)
from .problems import (PRESET_NAMES, ClusteringInstance, ProteinToyInstance,
                       QapInstance, SetPackingInstance, TwoSatInstance,
                       XorSatInstance, build_binary_clustering, build_mixed,
                       build_protein_toy, build_qap, build_set_packing,
                       build_two_sat, build_xor_sat, preset_instance,
                       shared_residue_exclusions)
from .pipeline import (PipelineResult, RunManifest, default_schedule,
                       encode_for_annealing, preset_report_rows, result_json,
                       run_pipeline, trajectory_csv)
