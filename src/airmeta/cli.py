"""Command-line front end: run, sweep, verify, bounds.

Exit codes: 0 ok, 1 verification failure, 2 usage/config error, 3 runtime
abort.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, metrics, report, storage, sweeps
from .protocol import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _load_config(path: str, seed_override=None) -> tuple[ExperimentConfig, list[str]]:
    """The config at ``path`` and its ``validate()`` warnings."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        cfg = storage.read_config(p)
    except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"cannot parse config {p}: {exc}") from exc
    if seed_override is not None:
        cfg = cfg.replace(master_seed=int(seed_override))
    try:
        return cfg, cfg.validate()
    except ValueError as exc:
        raise UsageError(f"invalid config {p}: {exc}") from exc


def cmd_run(args) -> int:
    cfg, cfg_warnings = _load_config(args.config, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_config(cfg, out_dir / "config.json")
    t0 = time.perf_counter()
    trials = sweeps.trial_configs(cfg, cfg.trials)
    trial_seeds = [tcfg.master_seed for tcfg in trials]
    for w in cfg_warnings:  # every trial shares them, so they print once
        print(f"warning: {w}", file=sys.stderr)

    outputs = {}
    summaries = []
    for k, traj in enumerate(sweeps.run_trials(run_experiment, trials)):
        tdir = out_dir if cfg.trials == 1 else out_dir / f"trial_{k:03d}"
        tdir.mkdir(parents=True, exist_ok=True)
        summary = report.summarize(traj)
        test_loss = summary.get("final_test_loss", float("nan"))
        storage.write_trajectory_csv(traj, tdir / "trajectory.csv", test_loss)
        storage.write_replay_csv(traj, tdir / "replay_log.csv")
        storage.write_json(summary, tdir / "summary.json")
        if args.dump_datasets:
            storage.write_datasets_csv(traj.datasets, tdir / "datasets.csv")
        outputs[f"trial_{k}"] = str(tdir)
        summaries.append(summary)
        if traj.aborted_at is not None:
            break
        for w in summary["warnings"][len(cfg_warnings):]:  # what this trial adds
            print(f"warning: {w}", file=sys.stderr)

    if traj.aborted_at is None and cfg.trials > 1:
        gap_mean, gap_se = metrics.mean_se([s["generalization_gap"] for s in summaries])
        storage.write_json({"trials": summaries, "generalization_gap_mean": gap_mean,
                            "generalization_gap_se": gap_se}, out_dir / "summary.json")
    storage.write_manifest(out_dir / "manifest.json", cfg, trial_seeds, outputs,
                           time.perf_counter() - t0)
    if traj.aborted_at is not None:
        # a round that sent has its rho recorded; one that could not send
        # keeps the preset NaN
        if np.isnan(traj.records["rho"][traj.aborted_at]):
            cause = ("it could not send: its model differences are not finite, or its "
                     "power scale is not a finite positive number")
        else:
            cause = "its next iterate is not finite"
        print(f"error: trial {k} aborted at round {traj.aborted_at}: {cause}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"run complete: {cfg.trials} trial(s) -> {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    p = Path(args.spec)
    if not p.exists():
        raise UsageError(f"sweep spec not found: {p}")
    try:
        raw = json.loads(p.read_text())
        base = ExperimentConfig.from_dict(raw["base"])
        if args.seed is not None:
            base = base.replace(master_seed=int(args.seed))
        spec = sweeps.SweepSpec(axis=raw["axis"], values=tuple(raw["values"]),
                                base=base, seeds=raw.get("seeds", 1))
        warned = {}  # each distinct config warning -> the axis values it applies to
        for value in spec.values:  # every point, before any of them runs
            for w in sweeps.apply_axis(base, spec.axis, value).validate():
                warned.setdefault(w, []).append(value)
        point_dirs = [f"{spec.axis}_{value:g}" for value in spec.values]
        if len(set(point_dirs)) < len(point_dirs):
            raise ValueError(f"sweep values {list(spec.values)} do not all have distinct "
                             f"point directories: {point_dirs}")
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse sweep spec {p}: {exc}") from exc
    for w, values in warned.items():
        print(f"warning: {w} ({spec.axis} = {', '.join(f'{v:g}' for v in values)})",
              file=sys.stderr)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name, pr in zip(point_dirs, sweeps.run_sweep(spec, max(1, args.threads))):
            pdir = out_dir / name  # partial results persist
            pdir.mkdir(parents=True, exist_ok=True)
            storage.write_json(pr.per_seed | {"axis": spec.axis, "value": pr.value},
                               pdir / "point.json")
            results.append(pr)
    finally:
        if results:
            rows = sweeps.aggregate_rows(results)
            storage.write_csv(sweeps.AGGREGATE_COLUMNS, rows, out_dir / "aggregate.csv")
    print(f"sweep complete: {len(results)}/{len(spec.values)} points -> {out_dir}")
    return EXIT_OK if len(results) == len(spec.values) else EXIT_RUNTIME


def cmd_verify(args) -> int:
    """Run the invariant suite; its module is imported by this command
    alone, not by every CLI call."""
    from . import verify

    results = verify.run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


@contextlib.contextmanager
def _run_artifact(path):
    """Turn the errors of reading a malformed run artifact into a UsageError
    that names the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"malformed run artifact {path}: {type(exc).__name__}: {exc}") from exc


def cmd_bounds(args) -> int:
    """Print and gate on the bounds the run stored in its summary.json."""
    run_dir = Path(args.trajectory)
    traj_path = run_dir / "trajectory.csv"
    summary_path = run_dir / "summary.json"
    for path in (traj_path, summary_path):
        if not path.exists():
            raise UsageError(f"missing run artifact: {path}")
    with _run_artifact(summary_path):
        summary = json.loads(summary_path.read_text())
        if "constants" not in summary:
            raise UsageError("run summary carries no measured constants (see its warnings); "
                             "bounds need a completed run")
        rounds = summary["rounds_completed"]
        if rounds < 1:
            raise UsageError("bounds need a run with at least one round")
        entries = {key: val for key, val in summary.items() if key.startswith("bound_")}
        # gate on the schedule's own bound: constant rates bound the average
        # squared meta-gradient, 1/t rates the best one; only an adaptive
        # run stores an adaptive bound or its error
        adaptive = "bound_adaptive" in entries or "bound_adaptive_error" in entries
        kind = "adaptive" if adaptive else "constant"
        name = f"bound_{kind}"
        error = entries.get(f"{name}_error")
        if error is None:
            terms = {term: float(entries[name]["terms"][term]) for term in bounds.TERMS[kind]}
            total = float(entries[name]["total"])
        gen = float(entries["bound_generalization"])
        gap = abs(float(summary["generalization_gap"]))  # a completed run measures it
    with _run_artifact(traj_path):
        grad = storage.read_trajectory_csv(traj_path)["grad_norm_sq"]
    if grad.size != rounds:
        raise UsageError(f"malformed run artifact {traj_path}: {grad.size} rounds, but "
                         f"{summary_path.name} records {rounds}")
    entries["measured_convergence_error"] = float(np.mean(grad))
    if kind == "adaptive":
        measured = "best"
        entries["measured_best_grad_norm_sq"] = lhs = float(np.min(grad))
    else:
        measured = "average"
        lhs = entries["measured_convergence_error"]
    holds = error is None and lhs <= total
    if error is not None:
        print(f"{name}_error: {error}")
    else:
        print(f"{kind}-rate convergence bound")
        for term, val in terms.items():
            print(f"  {term:<26} {val:.6e}")
        print(f"  {'total':<26} {total:.6e}")
        print(f"  {'measured ' + measured:<26} {lhs:.6e}  "
              f"({'<= bound' if holds else 'EXCEEDS bound'})")

    print("generalization bound")
    print(f"  {'value':<26} {gen:.6e}" + ("  (vacuous: noiseless round)"
                                          if not np.isfinite(gen) else ""))
    print(f"  {'measured |gap|':<26} {gap:.6e}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        storage.write_json(entries, out_dir / "bounds.json")
    return EXIT_OK if holds else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="airmeta",
                                     description="Over-the-air federated meta-learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dump-datasets", action="store_true",
                       help="also write the per-device datasets as CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out-dir", default="sweep_out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="gate a stored run on the bounds in its summary")
    p_bounds.add_argument("--trajectory", required=True,
                          help="run or trial directory holding summary.json and trajectory.csv")
    p_bounds.add_argument("--out-dir", default=None)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime abort
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
