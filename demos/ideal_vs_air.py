"""Side-by-side runs of the noiseless chain and the over-the-air pipeline.

Two runs on identical seeds and datasets:
  1. the noiseless chain: the air pipeline degenerated to plain averaging of
     the model differences (keep every entry, spend every channel use with
     the matched estimator, unit fading, no noise),
  2. the full air pipeline at 19 dB with sparsification and compression.

Writes a plot-ready CSV with one gradient-norm column per variant.
"""
import csv
import pathlib

from airmeta.protocol import ExperimentConfig, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out"

base = dict(rounds=150, n_devices=4, active_fraction=1.0, dim=20, local_steps=5,
            batch_size=16, samples_per_device=150, train_samples=75,
            eta=0.004, alpha=0.4, task_spread=0.5, label_noise_var=1.0,
            master_seed=7)

degenerate = run_experiment(ExperimentConfig(
    **base, sparsify_k=20, channel_uses=20, estimator="matched", fading="unit",
    noise_var=0.0, snr_db=None))
air = run_experiment(ExperimentConfig(
    **base, sparsify_k=1, channel_uses=8, estimator="lmmse", fading="rayleigh",
    snr_db=19.0))

degenerate_g, air_g = (run.records["grad_norm_sq"].tolist() for run in (degenerate, air))
print(f"final gradient norm^2: noiseless {degenerate_g[-1]:.5f}, air 19 dB {air_g[-1]:.5f}")

OUT.mkdir(exist_ok=True)
with open(OUT / "ideal_vs_air.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["round", "grad_norm_sq_degenerate", "grad_norm_sq_air19db"])
    for t in range(len(degenerate.records)):
        writer.writerow([t, degenerate_g[t], air_g[t]])
print(f"wrote {OUT / 'ideal_vs_air.csv'}")
