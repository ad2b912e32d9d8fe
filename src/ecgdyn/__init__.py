"""Physiologically constrained 12-lead heartbeat synthesis and scoring.

A coupled three-coordinate oscillator traces one cardiac cycle per
revolution of an attracting unit circle; Gaussian events on the circle
shape the P, Q, R, S and T waves. On top of that model the package
provides fixed-step integrators, 12-lead assembly honoring the limb-lead
identities, consistency distances with analytic gradients, parameter
fitting, waveform refinement, and RR-interval segmentation of raw
recordings.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, EcgDynError, FitDiverged,
                     InsufficientDataError, IntegrationDiverged, NoRhythmError,
                     ParamFileError)
from .model import (DEFAULT_ETA, DEFAULT_RHYTHM, EdmParams, RhythmParams,
                    State, WaveParams, baseline, eta_to_vector, vector_to_eta,
                    wrap_angle)
from .integrate import (DEFAULT_INIT, SamplingGrid, Trajectory, beat_grid,
                        integrate_euler, integrate_rk4)
from .leads import (FREE_LEADS, LEAD_NAMES, ConsistencyReport, Heartbeat,
                    LeadRelation, check_lead_consistency, limb_relations,
                    synthesize_heartbeat)
from .params import (ParamDistribution, default_distributions,
                     default_param_path, read_param_file, sample_eta,
                     write_param_file)
from .fidelity import (LeadSignal, LossWeights, euler_loss_combined,
                       grad_sim_distance_wrt_eta, grad_sim_distance_wrt_h,
                       reference_trajectory, sim_distance,
                       sim_distance_interlead)
from .fitting import (FitResult, OptimConfig, estimate_distribution,
                      fit_params, refine_waveform)
from .segmentation import Record, detect_r_peaks, resample_cycle, segment_record

__all__ = [
    "ConfigurationError", "EcgDynError", "FitDiverged",
    "InsufficientDataError", "IntegrationDiverged", "NoRhythmError",
    "ParamFileError",
    "DEFAULT_ETA", "DEFAULT_RHYTHM", "EdmParams", "RhythmParams", "State",
    "WaveParams", "baseline", "eta_to_vector", "vector_to_eta", "wrap_angle",
    "DEFAULT_INIT", "SamplingGrid", "Trajectory", "beat_grid",
    "integrate_euler", "integrate_rk4",
    "FREE_LEADS", "LEAD_NAMES", "ConsistencyReport", "Heartbeat",
    "LeadRelation", "check_lead_consistency", "limb_relations",
    "synthesize_heartbeat",
    "ParamDistribution", "default_distributions", "default_param_path",
    "read_param_file", "sample_eta", "write_param_file",
    "LeadSignal", "LossWeights", "euler_loss_combined",
    "grad_sim_distance_wrt_eta", "grad_sim_distance_wrt_h",
    "reference_trajectory", "sim_distance", "sim_distance_interlead",
    "FitResult", "OptimConfig", "estimate_distribution", "fit_params",
    "refine_waveform",
    "Record", "detect_r_peaks", "resample_cycle", "segment_record",
]
