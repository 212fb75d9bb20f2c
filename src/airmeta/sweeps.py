"""Seeded trials, and parameter sweeps over the trade-off axes.

``trial_configs`` derives the config of each trial and ``run_trials`` runs
tasks, serially or on a process pool.  A sweep task is a chunk of one
point's seeds, run in lockstep as one stack (``protocol.run_stack``).
Sweep points reuse the same per-trial seeds (common random numbers), which
sharpens trend comparisons without biasing any single point.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
import multiprocessing
import numbers
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import metrics, report, rng
from .protocol import ExperimentConfig, run_stack

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
        # like config values, sweep values are checked, never coerced
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"sweep values must be numbers, got {v!r}")
        if isinstance(self.seeds, bool) or not isinstance(self.seeds, numbers.Integral):
            raise TypeError(f"seeds must be an integer, got {self.seeds!r}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        # float() of an integer beyond the float range raises; NaN fails too
        if not all(abs(v) <= sys.float_info.max for v in self.values):
            raise ValueError("sweep values must be finite")
        vals = tuple(float(v) for v in self.values)
        diffs = np.diff(vals)
        if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")
        if self.axis == "n_devices" and not all(v.is_integer() for v in vals):
            raise ValueError(f"n_devices sweep values must be integers, got {list(vals)}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.base.trials != 1:  # `seeds` is the one trial count of a sweep
            raise ValueError(f"a sweep runs `seeds` trials per point, so its base "
                             f"needs trials = 1, got {self.base.trials}")
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


def trial_configs(cfg: ExperimentConfig, n: int) -> list[ExperimentConfig]:
    """The configs of trials 0..n-1: trial k runs ``cfg`` at master seed
    ``rng.trial_seed(cfg.master_seed, k)``.  The one place trial seeds are
    derived."""
    return [cfg.replace(master_seed=rng.trial_seed(cfg.master_seed, k)) for k in range(n)]


def run_trials(fn: Callable, tasks: Iterable, threads: int = 1) -> Iterator:
    """Yield ``fn(task)`` for each task (a config, or a list of configs for
    ``fn`` to run as one stack), in task order: one call at a time in this
    process, as each result is asked for, when ``threads <= 1`` or there is
    one task; otherwise as the tasks of one process pool, each result once
    it and every result before it are in.  Closing the generator cancels the
    tasks not yet started.  ``fn``, the tasks and the results must pickle."""
    tasks = list(tasks)
    if threads <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    # fork, not spawn: workers inherit the imported package, and whatever is
    # patched into it (perfbench's tracer), instead of importing numpy and
    # scipy again
    with concurrent.futures.ProcessPoolExecutor(
            min(threads, len(tasks)), mp_context=multiprocessing.get_context("fork")) as pool:
        yield from pool.map(fn, tasks)


PER_SEED = ("conv_error", "test", "train", "gen_bound", "conv_bound")


def seed_summaries(configs: list) -> list[dict]:
    """The ``PER_SEED`` numbers of the run of each seed of a stack (a pool
    task), read from ``report.summarize``: no bound entries where its
    constants or bounds do not apply, and only ``aborted_at`` if it
    aborted."""
    return [_seed_summary(traj) for traj in run_stack(configs)]


def _seed_summary(traj) -> dict:
    if traj.aborted_at is not None:
        return {"aborted_at": traj.aborted_at}
    summary = report.summarize(traj)
    out = {"conv_error": summary["convergence_error"], "test": summary["final_test_loss"],
           "train": summary["final_train_loss"]}
    if "bound_constant" in summary:
        out |= {"gen_bound": summary["bound_generalization"],
                "conv_bound": summary["bound_constant"].total}
    return out


def _point_result(axis: str, value: float, per_seed: dict) -> PointResult:
    conv_mean, conv_se = metrics.mean_se(per_seed["conv_error"])
    gap_mean, gap_se = metrics.mean_se(np.subtract(per_seed["test"], per_seed["train"]))
    gen_mean, gen_se = metrics.mean_se(per_seed["gen_bound"])
    return PointResult(
        axis=axis, value=float(value), n_seeds=len(per_seed["conv_error"]),
        conv_error_mean=conv_mean, conv_error_se=conv_se,
        gap_mean=gap_mean, gap_se=gap_se, gap_abs=abs(gap_mean),
        gen_bound_mean=gen_mean, gen_bound_se=gen_se,
        conv_bound_mean=metrics.mean_se(per_seed["conv_bound"])[0],
        test_mean=metrics.mean_se(per_seed["test"])[0],
        train_mean=metrics.mean_se(per_seed["train"])[0],
        per_seed=per_seed,
    )


def run_sweep(spec: SweepSpec, threads: int = 1) -> Iterator[PointResult]:
    """Yield one PointResult per sweep value, in the order given.

    A point's seeds run in ``min(threads, seeds)`` contiguous chunks of
    near-equal size, each one ``run_trials`` task that runs its seeds in
    lockstep, so the ``threads`` workers share the chunks of all points.
    How the seeds are chunked moves no number.  A point is yielded once its
    seeds are in, so a caller can persist finished points before a later
    one fails; an aborted seed fails its point.
    """
    parts = np.array_split(np.arange(spec.seeds), min(max(threads, 1), spec.seeds))
    chunks = []
    for v in spec.values:
        configs = trial_configs(apply_axis(spec.base, spec.axis, v), spec.seeds)
        chunks += [configs[part[0]:part[-1] + 1] for part in parts]
    with contextlib.closing(run_trials(seed_summaries, chunks, threads)) as results:
        for value in spec.values:
            per_seed = {key: [] for key in PER_SEED}
            summaries = itertools.chain.from_iterable(itertools.islice(results, len(parts)))
            for trial, summary in enumerate(summaries):
                if "aborted_at" in summary:
                    raise RuntimeError(f"trial {trial} at {spec.axis}={value} aborted "
                                       f"at round {summary['aborted_at']}")
                for key, val in summary.items():
                    per_seed[key].append(val)
            yield _point_result(spec.axis, value, per_seed)


AGGREGATE_COLUMNS = [f.name for f in fields(PointResult) if f.name != "per_seed"]


def aggregate_rows(results: list[PointResult]) -> list[list]:
    return [[getattr(pr, name) for name in AGGREGATE_COLUMNS] for pr in results]
