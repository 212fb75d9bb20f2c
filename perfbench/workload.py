"""Measured passes of one benchmark workload, run in a process of its own.

``run.py`` starts this script from the root of a checkout with ``src`` on
``PYTHONPATH`` and reads the JSON object on the last line of its output.
A pass is one ``airmeta`` CLI call through ``airmeta.cli.main``; for
``conv_run`` the pass also reads ``replay_log.csv`` back and replays it.
Passes repeat with the same seed until ``--seconds`` have elapsed, with
calibration-kernel samples taken alongside (see ``calibrate.py``).

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the tracing overhead, the traced ones the per-layer metrics, and the
traced ones must agree exactly on every call count.

    python3 perfbench/workload.py --workload conv_run --seed 0 --write-reference
stores the reference outputs that the default seed is compared against.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import check
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

# workload -> (CLI command, config or sweep spec)
WORKLOADS = {
    "conv_run": ("run", "configs/convergence.json"),
    "gen_trials": ("run", "configs/generalization.json"),
    "snr_sweep": ("sweep", "configs/sweep_snr.json"),
}
DEFAULT_SEED = 0  # master_seed of the shipped configs; the reference outputs use it

# per-layer metrics: traced function -> fields reported for it
LAYER_FIELDS = {
    "meta.local_rounds": ("calls", "s", "self_s"),
    "meta.meta_grad_estimate": ("calls", "self_s"),
    "meta.batch_pools": ("calls",),
    "tasks.batch_grad": ("calls", "s", "self_s"),
    "tasks.batch_hessian": ("s",),
    "rng.substream": ("calls", "s"),
    "sparsify.memory_fold": ("calls", "s", "self_s"),
    "sparsify.power_scale": ("s",),
    "sparsify.phase_precompensate": ("calls", "s", "self_s"),
    "channel.make_compression": ("calls", "s"),
    "channel.sample_channel": ("s",),
    "channel.transmit_mac": ("s",),
    "channel.estimate": ("calls", "s"),
    "channel.global_update": ("s",),
    "protocol.run_experiment": ("calls", "self_s"),
    "protocol.replay_experiment": ("s",),
    "metrics.meta_training_loss": ("calls", "self_s"),
    "tasks.mean_meta_grad": ("calls", "s"),
    "tasks.meta_curvature": ("calls",),
    "report.summarize": ("s",),
    "report.run_constants": ("s",),
    "bounds.estimate_constants": ("s",),
    "tasks.hessian_spectral_variance": ("calls", "s"),
    "metrics.meta_test_loss": ("s",),
    "storage.write_trajectory_csv": ("s",),
    "storage.write_replay_csv": ("s",),
    "storage.read_replay_csv": ("s",),
    "storage.write_json": ("s",),
    "sweeps.run_point": ("calls", "s"),
    "cli.main": ("self_s",),
}
# counts the simulator's determinism makes exact; they must repeat across passes
EXACT_COUNTS = ("channel.estimate.pinv_fallbacks", "protocol.rounds", "protocol.aborted",
                "storage.bytes_written")


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in EXACT_COUNTS[:3]:
        return "count"
    if name == "storage.bytes_written":
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cli_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    command, config = WORKLOADS[workload]
    if command == "run":
        return ["run", "--config", config, "--out-dir", str(out_dir), "--seed", str(seed)]
    return ["sweep", "--spec", config, "--out-dir", str(out_dir), "--seed", str(seed),
            "--threads", str(nproc())]


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def trial_dir(out_dir: Path, trials: int, k: int) -> Path:
    return out_dir if trials == 1 else out_dir / f"trial_{k:03d}"


def trial_config(out_dir: Path, k: int):
    """Config of trial k as run: the per-trial seed comes from the manifest."""
    from airmeta import storage

    cfg = storage.read_config(out_dir / "config.json")
    seed = storage.read_manifest(out_dir / "manifest.json")["trial_seeds"][k]
    return cfg.replace(master_seed=seed)


class Pass:
    """One CLI call, timed, with what the correctness gate needs.

    With a ``calibrator``, the calibration kernel also runs after every run
    the CLI makes in this process, for about a tenth of that run's time, so
    that its samples cover the whole pass; their time is taken out of the
    pass's times.  A pass whose runs happen in pool workers is calibrated
    after it ends.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path, tracer: Tracer | None,
                 calibrator: calibrate.Calibrator | None = None):
        from airmeta import cli

        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        self.trajs: list = []
        self.replayed = None
        self.calib: list[float] = []
        log = io.StringIO()
        if tracer is not None:
            tracer.install()
        run_experiment = cli.run_experiment
        trajs, calib, paused = self.trajs, self.calib, [0.0, 0.0]

        def keep(*args, **kwargs):
            w0 = time.perf_counter()
            traj = run_experiment(*args, **kwargs)
            trajs.append(traj)
            if calibrator is not None:
                w1, c1 = time.perf_counter(), cpu_seconds()
                calib.extend(calibrator.sample(0.1 * (w1 - w0)))
                paused[0] += time.perf_counter() - w1
                paused[1] += cpu_seconds() - c1
            return traj

        cli.run_experiment = keep
        try:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                self.rc = cli.main(cli_argv(workload, seed, out_dir))
            self.replay_error = None
            if workload == "conv_run" and self.rc == 0:
                try:
                    self.replayed = check.replay_from_log(trial_config(out_dir, 0),
                                                          out_dir / "replay_log.csv")
                except Exception as exc:  # a failed replay fails the pass, not the run
                    self.replay_error = f"replay raised {exc!r}"
            self.wall = time.perf_counter() - t0 - paused[0]
            self.cpu = cpu_seconds() - cpu0 - paused[1]
        finally:
            cli.run_experiment = run_experiment
            if tracer is not None:
                tracer.uninstall()
        if calibrator is not None and not calib:
            calib.extend(calibrator.sample(0.1 * self.wall))
        self.log = log.getvalue()
        self.rounds = self._rounds()

    def _rounds(self) -> int:
        """Federated rounds the pass simulated, replayed rounds included."""
        if WORKLOADS[self.workload][0] == "run":
            rounds = sum(len(t.records) for t in self.trajs)
            return rounds + (len(self.replayed.records) if self.replayed else 0)
        spec = json.loads((ROOT / WORKLOADS[self.workload][1]).read_text())
        rounds = 0
        for point in self.out_dir.glob("*/point.json"):
            rounds += spec["base"]["rounds"] * len(json.loads(point.read_text())["conv_error"])
        return rounds

    def errors(self, first_digests: dict | None) -> list[str]:
        """Per-pass gate: exit code, aborts, power, memory identity, determinism."""
        if self.rc != 0:
            return [f"exit code {self.rc}: {self.log.strip()[-500:]}"]
        errors = [self.replay_error] if self.replay_error else []
        if WORKLOADS[self.workload][0] == "run":
            cfg = json.loads((ROOT / WORKLOADS[self.workload][1]).read_text())
            if len(self.trajs) != cfg["trials"]:
                errors.append(f"{len(self.trajs)} of {cfg['trials']} trials ran")
            for k, traj in enumerate(self.trajs):
                errors += check.trajectory_errors(traj, f"trial {k}")
            if self.replayed is not None:
                errors += check.replay_errors(self.trajs[0], self.replayed, "trial 0")
        else:
            spec = json.loads((ROOT / WORKLOADS[self.workload][1]).read_text())
            points = list(self.out_dir.glob("*/point.json"))
            if len(points) != len(spec["values"]):
                errors.append(f"{len(points)} of {len(spec['values'])} sweep points written")
        if first_digests is not None and check.digests(self.out_dir) != first_digests:
            errors.append("outputs differ from the first pass with the same seed")
        return errors


def full_gate(p: Pass) -> list[str]:
    """Checks too slow for every pass, made once per run on the last pass."""
    errors = []
    if p.rc != 0:
        return errors
    try:
        if WORKLOADS[p.workload][0] == "sweep":
            errors += sweep_sample_errors(p)
        elif p.workload != "conv_run":  # conv_run replays inside every pass
            for k, traj in enumerate(p.trajs):
                tdir = trial_dir(p.out_dir, len(p.trajs), k)
                replayed = check.replay_from_log(trial_config(p.out_dir, k),
                                                 tdir / "replay_log.csv")
                errors += check.replay_errors(traj, replayed, f"trial {k}")
    except Exception as exc:  # a program error fails the pass, not the benchmark
        errors.append(f"gate raised {exc!r}")
    if p.seed == DEFAULT_SEED:
        errors += check.reference_errors(p.workload, p.out_dir)
    return errors


def sweep_sample_errors(p: Pass) -> list[str]:
    """Re-run one (point, seed) of the sweep in this process, chosen by the
    seed, check it like a run and compare it with the sweep's point.json."""
    from airmeta import metrics, protocol, rng, storage, sweeps

    spec = json.loads((ROOT / WORKLOADS[p.workload][1]).read_text())
    base = protocol.ExperimentConfig.from_dict(spec["base"]).replace(master_seed=p.seed)
    value = float(spec["values"][p.seed % len(spec["values"])])
    trial = p.seed % int(spec["seeds"])
    cfg = sweeps.apply_axis(base, spec["axis"], value).replace(
        master_seed=rng.trial_seed(p.seed, trial))
    label = f"{spec['axis']}={value:g} seed {trial}"
    traj = protocol.run_experiment(cfg)
    errors = check.trajectory_errors(traj, label)
    log_path = p.out_dir.parent / f"{p.out_dir.name}-sample" / "replay_log.csv"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    storage.write_replay_csv(traj, log_path)
    errors += check.replay_errors(traj, check.replay_from_log(cfg, log_path), label)
    point = json.loads((p.out_dir / f"{spec['axis']}_{value:g}" / "point.json").read_text())
    test, train = metrics.trial_gap(traj)
    mine = {"conv_error": metrics.stationary_convergence_error(traj), "test": test,
            "train": train}
    for key, val in mine.items():
        if point[key][trial] != val:
            errors.append(f"{label}: sweep {key} {point[key][trial]!r} != rerun {val!r}")
    return errors


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer, threads: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the per-function table."""
    table = tracer.collect()
    funcs = table.per_function()
    out = {}
    for name, fields in LAYER_FIELDS.items():
        calls, total, self_s = funcs.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": total, "self_s": self_s}
        for field in fields:
            out[f"{name}.{field}"] = values[field]
    for name in EXACT_COUNTS:
        out[name] = table.counts.get(name, 0)
    for name in ("meta.batch_pools", "tasks.meta_curvature"):
        calls = funcs.get(name, (0,))[0]
        out[f"{name}.useful_ratio"] = len(table.sets.get(name, ())) / calls if calls else 0.0
    out.update(pool_metrics(table, threads))
    return out, funcs


def pool_metrics(table, threads: int) -> dict:
    """Sweep pool accounting from the run_point spans timed in the workers."""
    pids, starts, ends = table.spans_of("sweeps.run_point")
    _, sweep_start, sweep_end = table.spans_of("cli.cmd_sweep")
    if pids.size == 0 or sweep_start.size == 0:
        return {"sweeps.worker_busy_frac": 0.0, "sweeps.task_imbalance": 0.0,
                "sweeps.pool_startup_s": 0.0, "sweeps.worker_busy_max_s": 0.0,
                "sweeps.worker_busy_min_s": 0.0}
    busy = {}
    for pid, s, e in zip(pids.tolist(), starts.tolist(), ends.tolist()):
        busy[pid] = busy.get(pid, 0.0) + (e - s)
    workers = max(threads, len(busy))
    per_worker = sorted(busy.values(), reverse=True) + [0.0] * (workers - len(busy))
    pool_wall = float(sweep_end[0] - sweep_start[0])
    mean_busy = sum(per_worker) / workers
    return {
        "sweeps.worker_busy_frac": sum(per_worker) / (workers * pool_wall),
        "sweeps.task_imbalance": max(per_worker) / mean_busy,
        "sweeps.pool_startup_s": float(starts.min() - sweep_start[0]),
        "sweeps.worker_busy_max_s": max(per_worker),
        "sweeps.worker_busy_min_s": min(per_worker),
    }


# -- environment record --------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it exposes one."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    """Digest of the package sources and configs, for checkouts without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/airmeta/*.py"), *ROOT.glob("configs/*.json")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# -- measuring loop -----------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = env_record()
    threads = nproc() if WORKLOADS[workload][0] == "sweep" else 1
    if threads == 1:  # a one-process pass is pinned, and calibrated, on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if trace:
        result = _measure(workload, seed, seconds, None, threads)
    else:
        with calibrate.Calibrator(threads) as calibrator:
            result = _measure(workload, seed, seconds, calibrator, threads)
    result["env"] = env
    return result


def _measure(workload: str, seed: int, seconds: float,
             calibrator: calibrate.Calibrator | None, threads: int) -> dict:
    import airmeta.cli  # noqa: F401  (import cost is setup_s, measured apart)

    trace = calibrator is None
    out_dir = OUT_ROOT / workload
    spool = OUT_ROOT / f"{workload}-spans"
    untraced, traced, layer_runs, failures = [], [], [], []
    first_digests = None
    funcs = {}
    calib = [] if trace else calibrator.sample(0.3, at_least=3)
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if trace:
            if len(traced) >= 2 and elapsed >= seconds:
                break
            with_trace = len(untraced) > len(traced)
        else:
            if untraced and elapsed >= seconds:
                break
            with_trace = False
        tracer = None
        if with_trace:
            shutil.rmtree(spool, ignore_errors=True)
            spool.mkdir(parents=True)
            tracer = Tracer(str(spool))
        p = Pass(workload, seed, out_dir, tracer, calibrator)
        calib += p.calib
        errors = p.errors(first_digests)
        if first_digests is None and p.rc == 0:
            first_digests = check.digests(out_dir)
        timing = {"wall_s": p.wall, "cpu_s": p.cpu, "rounds": p.rounds}
        if with_trace:
            metrics, funcs = layer_metrics(tracer, threads)
            tracer.close()
            shutil.rmtree(spool)
            layer_runs.append(metrics)
            traced.append(timing)
        else:
            untraced.append(timing)
        failures.append(errors)
        last = p
    failures[-1] += full_gate(last)
    if trace:
        failures[-1] += count_mismatches(layer_runs)
    result = {
        "passes": untraced,
        "errors": failures,
        "threads": threads,
    }
    if trace:
        result["layers"] = merge_layer_runs(layer_runs)
        walls_u = statistics.median(t["wall_s"] for t in untraced)
        walls_t = statistics.median(t["wall_s"] for t in traced)
        result["layers"]["trace.overhead_frac"] = walls_t / walls_u - 1.0
        result["functions"] = funcs
    else:
        result["peak_rss_mb"] = peak_rss_mb()
        result["calibration_s"] = calib
    return result


def count_mismatches(layer_runs: list[dict]) -> list[str]:
    """Exact-count check: every traced pass of one seed counts the same."""
    keys = [k for k in layer_runs[0] if k.endswith(".calls") or k in EXACT_COUNTS]
    return [f"{k} differs between traced passes: {[r[k] for r in layer_runs]}"
            for k in keys if len({r[k] for r in layer_runs}) > 1]


def merge_layer_runs(layer_runs: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes."""
    return {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run one pass and store its outputs as the reference")
    args = ap.parse_args(argv)
    if args.write_reference:
        import airmeta.cli  # noqa: F401

        out_dir = OUT_ROOT / args.workload
        p = Pass(args.workload, args.seed, out_dir, None)
        errors = p.errors(None)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        print(check.write_reference(args.workload, out_dir))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
