"""Bound evaluation on a run that satisfies the step-size validity condition.

Runs the convergence setup of ``airmeta verify``, whose outer rate sits at
90% of the admissible limit, through the full pipeline at seed 11, and
prints the per-term decomposition of the convergence bound next to the
measured average squared meta-gradient, plus the generalization bound next
to the measured gap.
"""
import numpy as np

from airmeta import bounds, metrics, report, verify
from airmeta.protocol import run_experiment

cfg = verify.default_convergence_config(master_seed=11)
assert cfg.validate() == []

traj = run_experiment(cfg)
ac, dc = report.run_constants(traj)
entries = report.bound_entries(traj, ac, dc)
rep = entries["bound_constant"]
lhs = metrics.stationary_convergence_error(traj)

print("measured assumption constants (trajectory maxima where not analytic):")
for name in ("l_g", "l_h", "g_sq", "sigma_g_sq", "sigma_h_sq", "gamma_g_sq"):
    print(f"  {name:<12} {getattr(ac, name):12.4f}  [{bounds.PROVENANCE[name]}]")
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
