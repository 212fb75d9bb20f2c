"""File formats: config JSON, run manifest, trajectory/replay/dataset CSV.

Every value is written with repr-precision floats so a rerun from the same
manifest reproduces each data file byte for byte.  CSV schemas carry a
version; a schema change bumps SCHEMA_VERSION in the manifest.
"""
from __future__ import annotations

import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from .bounds import BoundReport
from .protocol import ExperimentConfig, Trajectory

SCHEMA_VERSION = 1

TRAJECTORY_COLUMNS = [
    "round", "grad_norm_sq", "train_loss", "test_loss", "rho", "v", "snr_db",
    "eta", "alpha", "v_model", "sum_abs_h_sq", "min_g_sq_over_eta_sq",
    "mem_norm_sq_max", "power_margin", "pinv_fallback",
]


def _fmt(v) -> str:
    if v is None:  # an unset value, such as snr_db when noise_var is given
        return "nan"
    if isinstance(v, bool) or isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def config_sha256(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def read_config(path) -> ExperimentConfig:
    data = json.loads(Path(path).read_text())
    return ExperimentConfig.from_dict(data)


def write_manifest(path, cfg: ExperimentConfig, trial_seeds, outputs: dict,
                   wall_clock_sec: float) -> None:
    from . import __version__

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "airmeta",
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_sha256": config_sha256(cfg),
        "master_seed": cfg.master_seed,
        "trial_seeds": [int(s) for s in trial_seeds],
        "outputs": outputs,
        "wall_clock_sec": wall_clock_sec,
        # byte reproducibility of the data files depends on these
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


def trajectory_rows(traj: Trajectory, final_test_loss: float = float("nan")) -> list[list]:
    """One row per round in TRAJECTORY_COLUMNS order; the test loss is known
    only at the final iterate.  A run whose noise is set by noise_var has no
    configured SNR, so its snr_db cells are unset."""
    snr_db = traj.config.snr_db if traj.config.noise_var is None else None
    last = len(traj.records) - 1
    return [
        [rec.t, rec.grad_norm_sq, rec.train_loss,
         final_test_loss if idx == last else float("nan"),
         rec.rho, rec.v_realized, snr_db, rec.eta_t, rec.alpha_t, rec.v_model,
         rec.sum_abs_h_sq, rec.min_g_sq_over_eta_sq, rec.mem_norm_sq_max,
         rec.power_margin, rec.pinv_fallback]
        for idx, rec in enumerate(traj.records)
    ]


def write_trajectory_csv(traj: Trajectory, path, final_test_loss: float = float("nan")) -> None:
    write_csv(TRAJECTORY_COLUMNS, trajectory_rows(traj, final_test_loss), path)


def write_trajectory_json(traj: Trajectory, path, final_test_loss: float = float("nan")) -> None:
    """JSON mirror of trajectory.csv: the columns and one object per round."""
    rows = [dict(zip(TRAJECTORY_COLUMNS, row))
            for row in trajectory_rows(traj, final_test_loss)]
    write_json({"columns": TRAJECTORY_COLUMNS, "rows": rows}, path)


def write_csv(columns, rows, path) -> None:
    """Header plus rows; text cells as they are, numbers via _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def read_trajectory_csv(path) -> dict:
    """Columns as float arrays keyed by name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, val in zip(header, row):
                cols[name].append(float(val))
    return {name: np.array(vals) for name, vals in cols.items()}


def write_replay_csv(traj: Trajectory, path) -> None:
    """Realized channel draws: per-round device rows with the fading
    coefficient, then one row (device_id = -1) carrying the noise block."""
    m = traj.config.channel_uses
    noise_cols = [f"noise_re_{j}" for j in range(m)] + [f"noise_im_{j}" for j in range(m)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "device_id", "re_h", "im_h"] + noise_cols)
        for t, entry in enumerate(traj.replay):
            for dev, h in zip(entry["active"], entry["gains"]):
                writer.writerow([t, int(dev), _fmt(h.real), _fmt(h.imag)] + [""] * 2 * m)
            noise = [_fmt(v) for v in entry["noise_re"]] + [_fmt(v) for v in entry["noise_im"]]
            writer.writerow([t, -1, "", ""] + noise)


def read_replay_csv(path) -> list:
    """Inverse of write_replay_csv; returns entries usable for replay."""
    rounds: dict[int, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for name in header if name.startswith("noise_re_"))
        for row in reader:
            t = int(row[0])
            entry = rounds.setdefault(t, {"active": [], "gains": []})
            dev = int(row[1])
            if dev >= 0:
                entry["active"].append(dev)
                entry["gains"].append(complex(float(row[2]), float(row[3])))
            else:
                vals = [float(v) for v in row[4:4 + 2 * m]]
                entry["noise_re"] = np.array(vals[:m])
                entry["noise_im"] = np.array(vals[m:])
    out = []
    for t in sorted(rounds):
        entry = rounds[t]
        out.append({
            "active": np.array(entry["active"], dtype=int),
            "gains": np.array(entry["gains"], dtype=complex),
            "noise_re": entry["noise_re"],
            "noise_im": entry["noise_im"],
        })
    return out


def write_datasets_csv(data, path) -> None:
    """Stacked device datasets for inspection: device_id, split,
    x_0..x_{d-1}, y."""
    d = data.x.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["device_id", "split"] + [f"x_{j}" for j in range(d)] + ["y"])
        for dev_id, (x, y) in enumerate(zip(data.x, data.y)):
            for row_idx in range(data.m):
                split = "train" if row_idx < data.m_tr else "val"
                writer.writerow([dev_id, split] + [_fmt(v) for v in x[row_idx]]
                                + [_fmt(y[row_idx])])


def write_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, BoundReport):
        return {"terms": obj.terms, "total": obj.total}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")
