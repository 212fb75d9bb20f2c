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
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from .bounds import BoundReport
from .channel import ChannelRound
from .protocol import ExperimentConfig, Trajectory

SCHEMA_VERSION = 1
# the line end of csv.writer's default dialect, which every CSV file keeps
_EOL = "\r\n"

TRAJECTORY_COLUMNS = [
    "round", "grad_norm_sq", "train_loss", "test_loss", "rho", "v", "snr_db",
    "eta", "alpha", "v_model", "sum_abs_h_sq", "min_g_sq_over_eta_sq",
    "mem_norm_sq_max", "power_margin", "pinv_fallback",
]


def _fmt(v) -> str:
    if type(v) is float:  # the common cell, formatted without the checks below
        return f"{v:.17g}"
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


def trajectory_rows(traj: Trajectory, final_test_loss: float = float("nan")) -> list[tuple]:
    """One row per round in TRAJECTORY_COLUMNS order: the fields of the
    round's record and two run-level columns.  The test loss is known only
    at the final iterate.  A run whose noise is set by noise_var has no
    configured SNR, so its snr_db cells are unset."""
    n = len(traj.records)
    run = {"test_loss": [float("nan")] * (n - 1) + [final_test_loss] if n else [],
           "snr_db": [traj.config.snr_db if traj.config.noise_var is None else None] * n}
    return list(zip(*(run[name] if name in run else traj.records[name].tolist()
                      for name in TRAJECTORY_COLUMNS)))


def write_trajectory_csv(traj: Trajectory, path, final_test_loss: float = float("nan")) -> None:
    write_csv(TRAJECTORY_COLUMNS, trajectory_rows(traj, final_test_loss), path)


def write_trajectory_json(traj: Trajectory, path, final_test_loss: float = float("nan")) -> None:
    """JSON mirror of trajectory.csv: the columns and one object per round."""
    rows = [dict(zip(TRAJECTORY_COLUMNS, row))
            for row in trajectory_rows(traj, final_test_loss)]
    write_json({"columns": TRAJECTORY_COLUMNS, "rows": rows}, path)


def write_csv(columns, rows, path) -> None:
    """Header plus rows; text cells as they are, numbers via _fmt.  The lines
    are what ``csv.writer`` writes: a row of numbers is joined here, a row
    with text goes through the writer, which quotes what needs it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            cells = [v if isinstance(v, str) else _fmt(v) for v in row]
            if any(isinstance(v, str) for v in row):
                writer.writerow(cells)
            else:
                fh.write(",".join(cells) + _EOL)


def read_trajectory_csv(path) -> dict:
    """Columns as float arrays keyed by name; an empty file has none."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cols = {name: [] for name in header}
        for row in reader:
            for name, val in zip(header, row):
                cols[name].append(float(val))
    return {name: np.array(vals) for name, vals in cols.items()}


def write_replay_csv(traj: Trajectory, path) -> None:
    """Realized channel draws: per-round device rows with the fading
    coefficient, then one row (device_id = -1) carrying the noise block.
    Written line by line as ``csv.writer`` writes them: no cell needs
    quoting."""
    m = traj.config.channel_uses
    noise_cols = [f"noise_re_{j}" for j in range(m)] + [f"noise_im_{j}" for j in range(m)]
    no_noise = "," * 2 * m + _EOL
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["round", "device_id", "re_h", "im_h"] + noise_cols) + _EOL)
        for t, drawn in enumerate(traj.replay):
            fh.writelines(f"{t},{dev},{re:.17g},{im:.17g}{no_noise}" for dev, re, im in zip(
                drawn.active.tolist(), drawn.gains.real.tolist(), drawn.gains.imag.tolist()))
            noise = drawn.noise.real.tolist() + drawn.noise.imag.tolist()
            fh.write(f"{t},-1,,," + ",".join(f"{v:.17g}" for v in noise) + _EOL)


def read_replay_csv(path) -> list[ChannelRound]:
    """Inverse of write_replay_csv: the ChannelRound of each round.  The log
    must number its rounds 0..T-1 and give each exactly one noise row of M
    values; a ValueError names the first round that does not."""
    active, gains, noise = defaultdict(list), defaultdict(list), defaultdict(list)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for name in header if name.startswith("noise_re_"))
        for row in reader:
            t, dev = int(row[0]), int(row[1])
            if dev >= 0:
                active[t].append(dev)
                gains[t].append(complex(float(row[2]), float(row[3])))
            else:
                noise[t].append(row[4:])
    rounds = active.keys() | noise.keys()
    n_rounds = max(rounds, default=-1) + 1
    for t in sorted(rounds | set(range(n_rounds))):
        cells = noise.get(t, [])
        if t < 0 or len(cells) != 1 or len(cells[0]) != 2 * m or "" in cells[0]:
            raise ValueError(f"replay log {path}: round {t} needs exactly one noise row "
                             f"(device_id -1) of {m} values")
    out = []
    for t in range(n_rounds):
        vals = [float(v) for v in noise[t][0]]
        out.append(ChannelRound(
            active=np.array(active[t], dtype=int), gains=np.array(gains[t], dtype=complex),
            noise=np.array([complex(re, im) for re, im in zip(vals[:m], vals[m:])])))
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
