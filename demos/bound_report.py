"""Bound evaluation on a run that satisfies the step-size validity condition.

Picks the outer rate at 90% of the admissible limit, runs the full pipeline,
and prints the per-term decomposition of the convergence bound next to the
measured average squared meta-gradient, plus the generalization bound next
to the measured gap.
"""
import numpy as np

from airmeta import metrics, report
from airmeta.protocol import ExperimentConfig, constant_rate_limit, run_experiment

q = 5
l_f = 4.0  # unit input covariance: L_G = 1, constant Hessian
cfg = ExperimentConfig(
    rounds=200, n_devices=9, active_fraction=1 / 3, dim=20, local_steps=q,
    batch_size=16, samples_per_device=150, train_samples=75,
    eta=0.9 * constant_rate_limit(q, l_f), alpha=0.4, sparsify_k=1,
    channel_uses=8, estimator="lmmse", fading="rayleigh", task_spread=0.5,
    label_noise_var=1.0, snr_db=19.0, master_seed=11,
)
assert cfg.validate() == []

traj = run_experiment(cfg)
ac, dc = report.run_constants(traj)
entries = report.run_bounds(traj, ac, dc)
rep = entries["bound_constant"]
lhs = metrics.stationary_convergence_error(traj)

print("measured assumption constants (trajectory maxima where not analytic):")
for name in ("l_g", "l_h", "g_sq", "sigma_g_sq", "sigma_h_sq", "gamma_g_sq"):
    print(f"  {name:<12} {getattr(ac, name):12.4f}  [{ac.provenance[name]}]")
print(f"  {'l_f':<12} {dc.l_f:12.4f}   {'memory_gain':<12} {dc.gain:12.1f}")

print("\nconstant-rate convergence bound, per term:")
for name, val in rep.terms.items():
    print(f"  {name:<26} {val:12.4e}")
print(f"  {'total':<26} {rep.total:12.4e}")
print(f"  {'measured average':<26} {lhs:12.4e}   "
      f"({'holds' if lhs <= rep.total else 'VIOLATED'})")

gen_bound = entries["bound_generalization"]
test, train = metrics.trial_gap(traj)
print(f"\ngeneralization: measured |gap| {abs(test - train):.4f}, bound {gen_bound:.2f}")
print(f"estimation-error variance per round: mean {np.mean(traj.series('v_realized')):.4f}, "
      f"model {np.mean(traj.series('v_model')):.4f}")
