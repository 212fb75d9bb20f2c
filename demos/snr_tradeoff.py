"""Convergence-generalization trade-off against the received SNR.

Runs the small-data generalization setup over an SNR grid (same seeds per
point; each point's seeds run in lockstep chunks, one chunk per core, as
the tasks of one process pool) and prints, per point, the stationary
convergence error, the measured generalization gap, and the
information-theoretic bound.  More noise slows convergence but shrinks the
gap; the bound moves the same way.
"""
import csv
import os
import pathlib

from airmeta.storage import read_config
from airmeta.sweeps import SweepSpec, aggregate_rows, run_sweep, AGGREGATE_COLUMNS

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "demos" / "out"

base = read_config(ROOT / "configs" / "generalization.json").replace(master_seed=2, trials=1)
spec = SweepSpec(axis="snr_db", values=(0.0, 5.0, 10.0, 15.0, 20.0), base=base, seeds=10)

print(f"{'snr_db':>7} {'conv_error':>11} {'|gap|':>8} {'gen_bound':>10}")
results = []
for pr in run_sweep(spec, threads=len(os.sched_getaffinity(0))):
    results.append(pr)
    print(f"{pr.value:7.1f} {pr.conv_error_mean:11.4f} {pr.gap_abs:8.4f} "
          f"{pr.gen_bound_mean:10.2f}")

OUT.mkdir(exist_ok=True)
with open(OUT / "snr_tradeoff.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(AGGREGATE_COLUMNS)
    writer.writerows(aggregate_rows(results))
print(f"wrote {OUT / 'snr_tradeoff.csv'}")
