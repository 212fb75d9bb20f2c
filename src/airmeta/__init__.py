"""airmeta: over-the-air personalized federated meta-learning at desk scale.

A deterministic simulator for MAML-style federated pre-training over a
fading multiple-access channel (sparsification with error feedback, linear
compression, analog superposition, server-side estimation), together with
exact oracles on synthetic linear-regression tasks and evaluators for the closed-form
convergence and generalization bounds.
"""

__version__ = "0.1.0"

from .bounds import (AssumptionConstants, BoundReport, DerivedConstants,
                     adaptive_rate_bound, constant_rate_bound, derived_constants,
                     estimate_constants, generalization_bound, memory_gain,
                     sub_gaussian_proxy)
from .channel import (compression_block, estimate_error, estimate_stack, fading_moments,
                      global_update, replay_dtype, snr_noise_var, transmit_mac)
from .meta import local_rounds, meta_grad_estimate
from .metrics import (mean_se, meta_test_loss, meta_training_loss,
                      stationary_convergence_error, trial_gap)
from .protocol import (ROUND_DTYPE, ExperimentConfig, Trajectory, constant_rate_limit,
                       lr_schedule, meets_constant_rate, memory_identity_residuals,
                       replay_experiment, run_experiment, run_stack)
from .sparsify import (PowerPolicy, comp_k, energies, memory_fold, phase_precompensate,
                       power_scale)
from .sweeps import SweepSpec, apply_axis, run_sweep, run_trials, trial_configs
from .tasks import (Dataset, TaskEnvironment, population_meta_grad, population_meta_loss,
                    sample_dataset, sample_device, stack_datasets)

__all__ = [name for name in dir() if not name.startswith("_")]
