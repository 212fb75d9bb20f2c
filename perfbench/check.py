"""Correctness gate for benchmark passes.

A pass fails if the CLI exits non-zero, a run sets ``aborted_at``, a power
margin exceeds 1e-12, the error-feedback memory identity leaves a residual
above 1e-8, a replay from the re-read ``replay_log.csv`` does not reproduce
the thetas bit for bit, or the outputs differ from the first pass of the
run.  On the default seed the outputs are also compared with the reference
files kept in ``reference/``, to a relative deviation of 1e-12.
"""
from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

POWER_MARGIN_MAX = 1e-12
MEMORY_RESIDUAL_MAX = 1e-8
REFERENCE_REL_DEV = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# manifest.json records the run's own wall-clock time, so it is not compared
VOLATILE_FILES = {"manifest.json"}


def output_files(out_dir: Path) -> list[str]:
    """Relative paths of the deterministic output files, sorted."""
    files = []
    for root, _, names in os.walk(out_dir):
        for name in names:
            if name not in VOLATILE_FILES:
                files.append(os.path.relpath(os.path.join(root, name), out_dir))
    return sorted(files)


def digests(out_dir: Path) -> dict[str, str]:
    return {rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in output_files(out_dir)}


def trajectory_errors(traj, label: str) -> list[str]:
    """Checks that need only the in-memory trajectory of a finished run."""
    from airmeta import protocol

    errors = []
    if traj.aborted_at is not None:
        errors.append(f"{label}: aborted at round {traj.aborted_at}")
        return errors
    if len(traj.records) != traj.config.rounds:
        errors.append(f"{label}: {len(traj.records)} of {traj.config.rounds} rounds recorded")
    margin = max((rec.power_margin for rec in traj.records), default=0.0)
    if not margin <= POWER_MARGIN_MAX:
        errors.append(f"{label}: power margin {margin:.3e} > {POWER_MARGIN_MAX:g}")
    residual = float(np.max(protocol.memory_identity_residuals(traj), initial=0.0))
    if not residual <= MEMORY_RESIDUAL_MAX:
        errors.append(f"{label}: memory identity residual {residual:.3e} "
                      f"> {MEMORY_RESIDUAL_MAX:g}")
    return errors


def replay_errors(original, replayed, label: str) -> list[str]:
    if replayed.thetas.shape != original.thetas.shape or \
            replayed.thetas.tobytes() != original.thetas.tobytes():
        return [f"{label}: replayed thetas differ from the original run"]
    return []


def replay_from_log(cfg, log_path: Path):
    """Replay a run from its replay log as written to disk."""
    from airmeta import protocol, storage

    return protocol.replay_experiment(cfg, storage.read_replay_csv(log_path))


# -- reference outputs --------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def write_reference(workload: str, out_dir: Path) -> Path:
    """Store the pass outputs compared on the default seed."""
    files = {rel: (out_dir / rel).read_text() for rel in output_files(out_dir)
             if rel.endswith(("trajectory.csv", "summary.json", "aggregate.csv",
                              "point.json"))}
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(files, sort_keys=True).encode()
    # mtime=0 keeps the archive byte-identical when the outputs are
    path.write_bytes(gzip.compress(blob, compresslevel=9, mtime=0))
    return path


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= REFERENCE_REL_DEV * max(abs(a), abs(b))


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(ref: str, got: str, where: str) -> list[str]:
    ref_rows = list(csv.reader(io.StringIO(ref)))
    got_rows = list(csv.reader(io.StringIO(got)))
    if len(ref_rows) != len(got_rows):
        return [f"{where}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    for i, (r_row, g_row) in enumerate(zip(ref_rows, got_rows)):
        if len(r_row) != len(g_row):
            return [f"{where} row {i}: {len(g_row)} cells, reference has {len(r_row)}"]
        for j, (r, g) in enumerate(zip(r_row, g_row)):
            rf, gf = _as_float(r), _as_float(g)
            same = _close(rf, gf) if rf is not None and gf is not None else r == g
            if not same:
                return [f"{where} row {i} col {j}: {g!r} vs reference {r!r}"]
    return []


def _compare_json(ref, got, where: str) -> list[str]:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return [] if ref == got else [f"{where}: {got!r} vs reference {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if _close(float(ref), float(got)) else \
            [f"{where}: {got!r} vs reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(ref) ^ set(got))} differ from reference"]
        return [e for k in sorted(ref) for e in _compare_json(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} vs reference {len(ref)}"]
        return [e for i, (r, g) in enumerate(zip(ref, got))
                for e in _compare_json(r, g, f"{where}[{i}]")]
    return [] if ref == got else [f"{where}: {got!r} vs reference {ref!r}"]


def reference_errors(workload: str, out_dir: Path) -> list[str]:
    path = reference_path(workload)
    if not path.exists():
        return [f"reference outputs missing: {path.name}"]
    files = json.loads(gzip.decompress(path.read_bytes()))
    errors = []
    for rel, ref_text in sorted(files.items()):
        target = out_dir / rel
        if not target.exists():
            errors.append(f"{rel}: missing")
            continue
        got_text = target.read_text()
        if rel.endswith(".csv"):
            errors += _compare_csv(ref_text, got_text, rel)
        else:
            errors += _compare_json(json.loads(ref_text), json.loads(got_text), rel)
    return errors
