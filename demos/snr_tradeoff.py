"""Convergence-generalization trade-off against the received SNR.

Runs the small-data generalization setup over an SNR grid (same seeds per
point) and prints, per point, the stationary convergence error, the measured
generalization gap, and the information-theoretic bound.  More noise slows
convergence but shrinks the gap; the bound moves the same way.
"""
import csv
import pathlib

from airmeta.protocol import ExperimentConfig
from airmeta.sweeps import SweepSpec, aggregate_rows, run_point, AGGREGATE_COLUMNS

OUT = pathlib.Path(__file__).resolve().parent / "out"

base = ExperimentConfig(
    rounds=300, n_devices=9, active_fraction=1.0, dim=20, local_steps=1,
    batch_size=4, samples_per_device=16, train_samples=8, eta=0.005, alpha=0.25,
    sparsify_k=1, channel_uses=8, estimator="lmmse", fading="rayleigh",
    task_spread=0.1, label_noise_var=2.0, snr_db=19.0, n_test_devices=96,
    master_seed=2,
)
spec = SweepSpec(axis="snr_db", values=(0.0, 5.0, 10.0, 15.0, 20.0), base=base, seeds=10)

print(f"{'snr_db':>7} {'conv_error':>11} {'|gap|':>8} {'gen_bound':>10}")
results = []
for value in spec.values:
    pr = run_point(spec, value)
    results.append(pr)
    print(f"{value:7.1f} {pr.conv_error_mean:11.4f} {pr.gap_abs:8.4f} "
          f"{pr.gen_bound_mean:10.2f}")

OUT.mkdir(exist_ok=True)
with open(OUT / "snr_tradeoff.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(AGGREGATE_COLUMNS)
    writer.writerows(aggregate_rows(results))
print(f"wrote {OUT / 'snr_tradeoff.csv'}")
