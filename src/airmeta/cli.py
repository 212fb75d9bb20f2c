"""Command-line front end: run, sweep, verify, bounds.

Exit codes: 0 ok, 1 verification failure, 2 usage/config error, 3 runtime
abort.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import metrics, report, rng, storage, sweeps, verify
from .protocol import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _load_config(path: str, seed_override=None) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        cfg = storage.read_config(p)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse config {p}: {exc}") from exc
    if seed_override is not None:
        cfg = cfg.replace(master_seed=int(seed_override))
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(f"invalid config {p}: {exc}") from exc
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_config(cfg, out_dir / "config.json")
    t0 = time.perf_counter()
    trial_seeds = [rng.trial_seed(cfg.master_seed, k) for k in range(cfg.trials)]

    gaps = []
    outputs = {}
    summaries = []
    for k, seed in enumerate(trial_seeds):
        tcfg = cfg.replace(master_seed=seed)
        traj = run_experiment(tcfg)
        tdir = out_dir if cfg.trials == 1 else out_dir / f"trial_{k:03d}"
        tdir.mkdir(parents=True, exist_ok=True)
        summary = report.summarize(traj)
        test_loss = summary.get("final_test_loss", float("nan"))
        storage.write_trajectory_csv(traj, tdir / "trajectory.csv", test_loss)
        storage.write_replay_csv(traj, tdir / "replay_log.csv")
        storage.write_json(summary, tdir / "summary.json")
        if args.dump_datasets:
            storage.write_datasets_csv(traj.datasets, tdir / "datasets.csv")
        if args.format == "json":
            storage.write_trajectory_json(traj, tdir / "trajectory.json", test_loss)
        outputs[f"trial_{k}"] = str(tdir)
        summaries.append(summary)
        if traj.aborted_at is not None:
            storage.write_manifest(out_dir / "manifest.json", cfg, trial_seeds,
                                   outputs, time.perf_counter() - t0)
            print(f"error: trial {k} aborted with non-finite iterate at round "
                  f"{traj.aborted_at}", file=sys.stderr)
            return EXIT_RUNTIME
        if "generalization_gap" in summary:
            gaps.append((summary["final_test_loss"], summary["final_train_loss"]))
        for w in summary["warnings"]:
            print(f"warning: {w}", file=sys.stderr)

    top = {"trials": summaries[0] if cfg.trials == 1 else summaries}
    if len(gaps) >= 2:
        est = metrics.meta_generalization_error(gaps)
        top["generalization_gap_mean"] = est.value
        top["generalization_gap_se"] = est.stderr
    if cfg.trials > 1:
        storage.write_json(top, out_dir / "summary.json")
    storage.write_manifest(out_dir / "manifest.json", cfg, trial_seeds, outputs,
                           time.perf_counter() - t0)
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
        for value in spec.values:  # every point, before any of them runs
            sweeps.apply_axis(base, spec.axis, value).validate()
        point_dirs = [f"{spec.axis}_{value:g}" for value in spec.values]
        if len(set(point_dirs)) < len(point_dirs):
            raise ValueError(f"sweep values {list(spec.values)} do not all have distinct "
                             f"point directories: {point_dirs}")
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse sweep spec {p}: {exc}") from exc

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
            if args.format == "json":
                storage.write_json({"columns": sweeps.AGGREGATE_COLUMNS, "rows": rows},
                                   out_dir / "aggregate.json")
    print(f"sweep complete: {len(results)}/{len(spec.values)} points -> {out_dir}")
    return EXIT_OK if len(results) == len(spec.values) else EXIT_RUNTIME


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed or 0)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config, None)
    run_dir = Path(args.trajectory)
    if run_dir.is_file():
        run_dir = run_dir.parent
    # a trial of a multi-trial run keeps the run's manifest one level up
    manifest_dir = run_dir.parent if run_dir.name.startswith("trial_") else run_dir
    manifest_path = manifest_dir / "manifest.json"
    traj_path = run_dir / "trajectory.csv"
    summary_path = run_dir / "summary.json"
    for path in (manifest_path, traj_path, summary_path):
        if not path.exists():
            raise UsageError(f"missing run artifact: {path}")
    manifest = storage.read_manifest(manifest_path)
    if manifest["config_sha256"] != storage.config_sha256(cfg):
        raise UsageError("config does not match the trajectory's manifest "
                         "(sha256 mismatch)")
    summary = json.loads(summary_path.read_text())
    if "constants" not in summary:
        raise UsageError("run summary carries no measured constants (see its warnings); "
                         "bounds need a completed run")
    table = storage.read_trajectory_csv(traj_path)
    entries = report.bound_entries(cfg, table, *report.summary_constants(cfg, summary),
                                   summary["f_init"], summary["f_star"])
    entries.pop("eps_g")  # bounds.json holds bound values, not their inputs
    grad = table["grad_norm_sq"]
    entries["measured_convergence_error"] = float(np.mean(grad))
    # gate on the schedule's own bound: constant rates bound the average
    # squared meta-gradient, 1/t rates the best one
    if cfg.lr_schedule == "adaptive":
        name, measured = "bound_adaptive", "best"
        entries["measured_best_grad_norm_sq"] = lhs = float(np.min(grad))
    else:
        name, measured = "bound_constant", "average"
        lhs = entries["measured_convergence_error"]
    rep = entries.get(name)
    holds = rep is not None and lhs <= rep.total
    if rep is None:
        print(f"bound_adaptive_error: {entries['bound_adaptive_error']}")
    else:
        print(f"{name.split('_')[1]}-rate convergence bound")
        for term, val in rep.terms.items():
            print(f"  {term:<26} {val:.6e}")
        print(f"  {'total':<26} {rep.total:.6e}")
        print(f"  {'measured ' + measured:<26} {lhs:.6e}  "
              f"({'<= bound' if holds else 'EXCEEDS bound'})")

    gen = entries["bound_generalization"]
    print("generalization bound")
    print(f"  {'value':<26} {gen:.6e}" + ("  (vacuous: noiseless round)"
                                          if not np.isfinite(gen) else ""))
    if "final_test_loss" in summary:
        measured_gap = summary["final_test_loss"] - summary["final_train_loss"]
        print(f"  {'measured |gap|':<26} {abs(measured_gap):.6e}")
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
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--dump-datasets", action="store_true",
                       help="also write the per-device datasets as CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("--spec", "--config", dest="spec", required=True)
    p_sweep.add_argument("--out-dir", default="sweep_out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate bounds for a stored run")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--trajectory", required=True,
                          help="run directory (or its trajectory.csv)")
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
