"""Parameter sweeps over the trade-off axes, with per-point aggregation.

Trials reuse the same per-trial seeds across sweep points (common random
numbers), which sharpens trend comparisons without biasing any single point.
"""
from __future__ import annotations

import concurrent.futures
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import metrics, report, rng
from .protocol import ExperimentConfig, run_experiment

SWEEP_AXES = ("snr_db", "m_over_d", "k_over_d", "n_devices", "heterogeneity", "eta")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    base: ExperimentConfig
    seeds: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("sweep needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sweep values must be finite")
        diffs = np.diff(vals)
        if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        object.__setattr__(self, "values", vals)


def apply_axis(base: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "snr_db":
        return base.replace(snr_db=float(value), noise_var=None)
    if axis == "m_over_d":
        return base.replace(channel_uses=max(1, int(round(value * base.dim))))
    if axis == "k_over_d":
        return base.replace(sparsify_k=max(1, int(round(value * base.dim))))
    if axis == "n_devices":
        return base.replace(n_devices=int(round(value)))
    if axis == "heterogeneity":
        return base.replace(task_spread=float(value))
    if axis == "eta":
        return base.replace(eta=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}")


@dataclass
class PointResult:
    """Aggregates over the seeds of one sweep point."""

    axis: str
    value: float
    n_seeds: int
    conv_error_mean: float
    conv_error_se: float
    gap_mean: float
    gap_se: float
    gap_abs: float
    gen_bound_mean: float
    gen_bound_se: float
    conv_bound_mean: float
    test_mean: float
    train_mean: float
    per_seed: dict


def run_point(spec: SweepSpec, value: float) -> PointResult:
    """Run every seed of one sweep point and aggregate the seeds' summaries.
    A seed whose summary carries no bounds (its constants or bounds do not
    apply) adds no bound entry."""
    cfg0 = apply_axis(spec.base, spec.axis, value)
    conv, tests, trains, gen_bounds, conv_bounds = [], [], [], [], []
    for trial in range(spec.seeds):
        cfg = cfg0.replace(master_seed=rng.trial_seed(spec.base.master_seed, trial))
        traj = run_experiment(cfg)
        if traj.aborted_at is not None:
            raise RuntimeError(
                f"trial {trial} at {spec.axis}={value} aborted at round {traj.aborted_at}"
            )
        summary = report.summarize(traj)
        conv.append(summary["convergence_error"])
        tests.append(summary["final_test_loss"])
        trains.append(summary["final_train_loss"])
        if "bound_constant" in summary:
            gen_bounds.append(summary["bound_generalization"])
            conv_bounds.append(summary["bound_constant"].total)
    gap = metrics.meta_generalization_error(list(zip(tests, trains)))
    conv_arr = np.array(conv)
    return PointResult(
        axis=spec.axis, value=float(value), n_seeds=spec.seeds,
        conv_error_mean=float(conv_arr.mean()),
        conv_error_se=float(conv_arr.std(ddof=1) / np.sqrt(len(conv)))
        if len(conv) > 1 else float("nan"),
        gap_mean=gap.value, gap_se=gap.stderr, gap_abs=gap.abs_value,
        gen_bound_mean=float(np.mean(gen_bounds)) if gen_bounds else float("nan"),
        gen_bound_se=float(np.std(gen_bounds, ddof=1) / np.sqrt(len(gen_bounds)))
        if len(gen_bounds) > 1 else float("nan"),
        conv_bound_mean=float(np.mean(conv_bounds)) if conv_bounds else float("nan"),
        test_mean=float(np.mean(tests)), train_mean=float(np.mean(trains)),
        per_seed={"conv_error": conv, "test": tests, "train": trains,
                  "gen_bound": gen_bounds, "conv_bound": conv_bounds},
    )


def run_sweep(spec: SweepSpec, threads: int = 1) -> Iterator[PointResult]:
    """Yield one PointResult per sweep value, in the order given.

    With ``threads > 1`` the points run in a process pool; each result is
    yielded as soon as it and every point before it are done, so a caller
    can persist finished points before a later one fails.
    """
    if threads <= 1 or len(spec.values) == 1:
        for v in spec.values:
            yield run_point(spec, v)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_point, spec, v) for v in spec.values]
        for fut in futures:
            yield fut.result()


AGGREGATE_COLUMNS = [
    "axis", "value", "n_seeds", "conv_error_mean", "conv_error_se",
    "gap_mean", "gap_se", "gap_abs", "gen_bound_mean", "gen_bound_se",
    "conv_bound_mean", "test_mean", "train_mean",
]


def aggregate_rows(results: list[PointResult]) -> list[list]:
    return [[getattr(pr, name) for name in AGGREGATE_COLUMNS] for pr in results]
