"""File formats: config JSON, run manifest, trajectory/replay/dataset CSV.

Every value is written with repr-precision floats so a rerun from the same
manifest reproduces each data file byte for byte.  CSV schemas carry a
version; a schema change bumps SCHEMA_VERSION in the manifest.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import platform
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from .bounds import BoundReport
from .channel import replay_dtype
from .protocol import ExperimentConfig, Trajectory

SCHEMA_VERSION = 1
# the line end of csv.writer's default dialect, which every CSV file keeps
_EOL = "\r\n"
# the most lines the CSV writers format with one % operation; bounds the
# memory of a pass for any number of rows or rounds
_CSV_LINES = 4096

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
    """Header plus rows; text cells as they are, numbers as _fmt writes them.
    The lines are what ``csv.writer`` writes: a row with text goes through
    the writer, which quotes what needs it; each run of number rows whose
    cells have the same types is formatted a chunk of rows at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for line, group in itertools.groupby(
                rows, key=lambda row: _spec_line(tuple(map(type, row)))):
            if line is None:
                writer.writerows([v if isinstance(v, str) else _fmt(v) for v in row]
                                 for row in group)
                continue
            while chunk := list(itertools.islice(group, _CSV_LINES)):
                cells = itertools.chain.from_iterable(chunk)
                if "nan" in line:  # an unset cell is a literal nan, not an argument
                    cells = (v for v in cells if v is not None)
                fh.write(line * len(chunk) % tuple(cells))


@functools.cache
def _spec_line(types: tuple):
    """The %-template of a number row whose cells have these types, each
    cell as _fmt writes it; None for a row with text."""
    if any(issubclass(t, str) for t in types):
        return None
    return ",".join("nan" if t is type(None) else
                    "%d" if issubclass(t, (int, np.integer)) else "%.17g"
                    for t in types) + _EOL


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
    The lines are what ``csv.writer`` writes (no cell needs quoting); each
    chunk of rounds is one template filled from a table of its cells."""
    m = traj.config.channel_uses
    noise_cols = [f"noise_re_{j}" for j in range(m)] + [f"noise_im_{j}" for j in range(m)]
    active, gains, noise = (traj.replay[name] for name in ("active", "gains", "noise"))
    n_rounds, rn = gains.shape
    round_lines = ("%d,%d,%.17g,%.17g" + "," * 2 * m + _EOL) * rn \
        + "%d,-1,,," + ",".join(["%.17g"] * 2 * m) + _EOL
    per_chunk = max(1, _CSV_LINES // (rn + 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["round", "device_id", "re_h", "im_h"] + noise_cols) + _EOL)
        for t0 in range(0, n_rounds, per_chunk):
            run = slice(t0, min(t0 + per_chunk, n_rounds))
            n = run.stop - t0
            # a round's cells in line order: (t, device, re, im) per device,
            # then t and the noise's real and imaginary parts
            cells = np.empty((n, 4 * rn + 1 + 2 * m), dtype=object)
            cells[:, 0:4 * rn:4] = cells[:, 4 * rn:4 * rn + 1] = np.arange(t0, run.stop)[:, None]
            cells[:, 1:4 * rn:4] = active[run]
            cells[:, 2:4 * rn:4], cells[:, 3:4 * rn:4] = gains[run].real, gains[run].imag
            cells[:, 4 * rn + 1:] = np.concatenate([noise[run].real, noise[run].imag], axis=-1)
            fh.write(round_lines * n % tuple(cells.ravel().tolist()))


def read_replay_csv(path) -> np.ndarray:
    """Inverse of write_replay_csv: the log, one ``channel.replay_dtype`` row
    per round.  The log must have a header, number its rounds 0..T-1 and
    give each exactly one noise row of M values and as many device rows as
    round 0, every cell a number; a ValueError names the log, and the first
    round that does not or the line whose round is no integer.  A log
    without rounds reads as an empty one without devices.  The numbers are
    parsed round by round and placed by field at once."""
    rounds = defaultdict(lambda: ([], []))  # round -> (device rows, noise rows)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"replay log {path} is empty: it has no header")
        m = sum(1 for name in header if name.startswith("noise_re_"))
        for row in reader:  # device_id -1 marks the noise row
            try:
                t = int(row[0])
            except (ValueError, IndexError):
                raise ValueError(f"replay log {path}: line {reader.line_num} has no integer "
                                 "round") from None
            # a row of one cell is a device row, short of its cells
            rounds[t][row[1:2] == ["-1"]].append(row)
    n_rounds = max(rounds, default=-1) + 1
    rn = len(rounds[0][0]) if n_rounds else 0
    # round by round: the device ids, and the gains' parts device by device,
    # then the noise's
    active, values = [], []
    for t in sorted(rounds.keys() | set(range(n_rounds))):
        devices, noise = rounds[t]
        try:
            if t < 0 or len(devices) != rn or len(noise) != 1 or len(noise[0]) != 4 + 2 * m:
                raise ValueError
            active += [int(row[1]) for row in devices]
            values += [float(v) for row in devices for v in (row[2], row[3])]
            values += map(float, noise[0][4:])
        except (ValueError, IndexError):
            raise ValueError(f"replay log {path}: round {t} needs exactly one noise row (device_id"
                             f" -1) of {m} values and {rn} device rows, all numbers") from None
    log = np.empty(n_rounds, dtype=replay_dtype(rn, m))
    log["active"] = np.array(active, dtype=np.int64).reshape(n_rounds, rn)
    values = np.array(values, dtype=float).reshape(n_rounds, 2 * rn + 2 * m)
    gains = values[:, :2 * rn].reshape(n_rounds, rn, 2)
    log["gains"].real, log["gains"].imag = gains[..., 0], gains[..., 1]
    log["noise"].real, log["noise"].imag = values[:, 2 * rn:2 * rn + m], values[:, 2 * rn + m:]
    return log


def write_datasets_csv(data, path) -> None:
    """Stacked device datasets for inspection: device_id, split,
    x_0..x_{d-1}, y.  The lines are what ``csv.writer`` writes (no cell
    needs quoting); each device's run of rows of one split is formatted at
    most ``_CSV_LINES`` lines at a time, with one template that holds the
    device id and the split as literals."""
    d = data.x.shape[-1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["device_id", "split"] + [f"x_{j}" for j in range(d)] + ["y"]) + _EOL)
        for dev_id, (x, y) in enumerate(zip(data.x, data.y)):
            for split, start, stop in (("train", 0, data.m_tr), ("val", data.m_tr, data.m)):
                line = f"{dev_id},{split}" + ",%.17g" * (d + 1) + _EOL
                for lo in range(start, stop, _CSV_LINES):
                    hi = min(lo + _CSV_LINES, stop)
                    cells = np.column_stack([x[lo:hi], y[lo:hi]])
                    fh.write(line * (hi - lo) % tuple(cells.ravel().tolist()))


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
