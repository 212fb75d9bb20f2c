"""Benchmark of the airmeta simulator: one workload per call.

    python3 perfbench/run.py --workload conv_run --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It measures set-up time in fresh
interpreters, then starts ``workload.py`` in a process of its own, which
repeats the workload for ``--seconds`` and checks every output.  It prints
a table of the metrics, the environment record, and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  README.md in this directory explains the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workload import WORKLOADS, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

# Set-up as every CLI call pays it: import the package and the CLI, then
# load and validate the workload's config or sweep spec.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import airmeta.cli
from airmeta import storage, sweeps
kind, path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
if kind == "run":
    storage.read_config(path).replace(master_seed=seed).validate()
else:
    raw = json.loads(open(path).read())
    base = airmeta.ExperimentConfig.from_dict(raw["base"]).replace(master_seed=seed)
    sweeps.SweepSpec(axis=raw["axis"], values=tuple(raw["values"]), base=base,
                     seeds=int(raw.get("seeds", 1)))
    base.validate()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "rounds_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("AIRMETA_THREADS", None)  # it would override the sweep's --threads
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with {proc.returncode}:\n{err[-2000:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def setup_seconds(workload: str, seed: int, deadline: float) -> tuple[list, list]:
    """Set-up times of fresh interpreters, with calibration samples around
    them, all pinned to one CPU."""
    kind, config = WORKLOADS[workload]
    argv = [sys.executable, "-c", SETUP_PROBE, kind, config, str(seed)]
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    calibrator = calibrate.Calibrator()
    try:
        times, calib = [], calibrator.sample(0.0, at_least=2)
        for _ in range(SETUP_REPEATS):
            times.append(float(run_child(argv, deadline - time.monotonic()).stdout.split()[-1]))
            calib += calibrator.sample(0.0, at_least=2)
    finally:
        os.sched_setaffinity(0, mask)
    return times, calib


def import_breakdown(workload: str, seed: int, deadline: float) -> dict:
    """Import times from ``-X importtime`` in a fresh interpreter: all of
    ``airmeta``, and the numpy and scipy modules that ``airmeta`` modules
    import directly (scipy.stats is loaded lazily, so it has no line of its
    own)."""
    kind, config = WORKLOADS[workload]
    argv = [sys.executable, "-X", "importtime", "-c", SETUP_PROBE, kind, config, str(seed)]
    err = run_child(argv, deadline - time.monotonic()).stderr
    lines = []  # (module, depth, cumulative seconds), callees before callers
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            lines.append((name.strip(), depth, int(parts[1]) * 1e-6))
    out = {"setup.import_airmeta_s": 0.0, "setup.import_numpy_s": 0.0,
           "setup.import_scipy_s": 0.0}
    importer: dict[int, str] = {}
    for name, depth, cumulative in reversed(lines):
        parent = importer.get(depth - 2, "")
        importer[depth] = name
        if name == "airmeta":
            out["setup.import_airmeta_s"] = cumulative
        for lib in ("numpy", "scipy"):
            if name.split(".")[0] == lib and parent.startswith("airmeta"):
                out[f"setup.import_{lib}_s"] += cumulative
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="airmeta benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    missing = [p for p in ("src/airmeta/cli.py", WORKLOADS[args.workload][1])
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an airmeta checkout, missing {missing}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            layers = import_breakdown(args.workload, args.seed, deadline)
        else:
            setups, setup_calib = setup_seconds(args.workload, args.seed, deadline)
        child = run_child([sys.executable, str(HERE / "workload.py"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          deadline - time.monotonic())
        result = json.loads(child.stdout.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = result["errors"]
    attempted = len(errors)
    failed = sum(1 for e in errors if e)
    print(f"workload {args.workload}  seed {args.seed}  passes {attempted}  "
          f"threads {result['threads']}")
    for i, errs in enumerate(errors):
        for e in errs:
            print(f"FAIL pass {i}: {e}")
    print(f"{'failed_frac':<40} {failed / attempted:.6g}  ({failed}/{attempted} passes)")

    metrics = {}
    if args.trace:
        layers.update(result["layers"])
        layers["failed_frac"] = failed / attempted
        print("top functions by self time (last traced pass):")
        top = sorted(result["functions"].items(), key=lambda kv: -kv[1][2])[:20]
        for name, (calls, total, self_s) in top:
            print(f"  {name:<38} calls {calls:>9}  s {total:9.4f}  self_s {self_s:9.4f}")
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            print(f"{name:<40} {value:.6g} {layer_unit(name)}")
    else:
        passes = result["passes"]
        to_ref = calibrate.to_reference(result["calibration_s"])
        setup_to_ref = calibrate.to_reference(setup_calib)
        print(f"calibration kernel: mean {calibrate.REFERENCE_S / to_ref:.4g} s host "
              f"(n {len(result['calibration_s'])}) during passes, "
              f"{calibrate.REFERENCE_S / setup_to_ref:.4g} s (n {len(setup_calib)}) "
              f"during set-up; reference {calibrate.REFERENCE_S} s")
        walls = [p["wall_s"] for p in passes]
        rounds = sum(p["rounds"] for p in passes)
        samples = {  # host values per pass, reference value
            "setup_s": (setups, statistics.fmean(setups) * setup_to_ref),
            "wall_s": (walls, statistics.fmean(walls) * to_ref),
            "cpu_s": ([p["cpu_s"] for p in passes],
                      statistics.fmean(p["cpu_s"] for p in passes) * to_ref),
            "rounds_per_s": ([p["rounds"] / p["wall_s"] for p in passes],
                             rounds / (sum(walls) * to_ref)),
            "peak_rss_mb": ([result["peak_rss_mb"]], result["peak_rss_mb"]),
        }
        for name, (values, value) in samples.items():
            lo, hi = quartiles(values)
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            kind = "host" if name == "peak_rss_mb" else "reference mean"
            print(f"{name:<14} {value:10.6g} {unit:<4} {kind:<14} | host median "
                  f"{statistics.median(values):.6g} q1 {lo:.6g} q3 {hi:.6g} "
                  f"min {min(values):.6g} max {max(values):.6g} n {len(values)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
