"""File formats: config JSON, run manifest, trajectory/replay/dataset CSV.

Every value is written with repr-precision floats so a rerun from the same
manifest reproduces each data file byte for byte.  The trajectory and the
replay log are tables of numbers with one line per round, written by
``write_csv`` and read back by the one strict reader ``read_csv``.  CSV
schemas carry a version; a schema change bumps SCHEMA_VERSION in the
manifest.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .channel import replay_dtype
from .protocol import ExperimentConfig, Trajectory

SCHEMA_VERSION = 2
# the line end of csv.writer's default dialect, which every CSV file keeps
_EOL = "\r\n"
# the most lines the CSV writers format with one % operation; bounds the
# memory of a pass for any number of rows or rounds
_CSV_LINES = 4096
# a line of plain numbers: each an optional sign and decimal digits with an
# optional point and exponent, or inf or nan, as the writers write them;
# float() takes more (underscores, padding, "Infinity"), which no table holds
_NUMBER = r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"
_NUMBER_LINE = re.compile(rf"{_NUMBER}(?:,{_NUMBER})*")

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
    """The run's record: seeds, config hash, outputs, and under
    ``environment`` the versions the data files' bytes depend on.  scipy's
    is the version of the scipy this process has loaded, which a run loads
    only past the chi-squared table (dim > 256), and null if none is."""
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
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
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


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a table of numbers as write_csv writes
    one, each cell as written.  Every line after the header holds as many
    cells as the header, each a plain number; a ValueError names the file
    and the first line that does not.  An empty file has no columns."""
    with open(path, newline="") as fh:
        text = fh.read().replace(_EOL, "\n")
    if not text:
        return [], []
    header, *lines = text.removesuffix("\n").split("\n")
    header = header.split(",")
    for n, line in enumerate(lines, start=2):
        if line.count(",") != len(header) - 1 or not _NUMBER_LINE.fullmatch(line):
            raise ValueError(f"{path}: line {n} is not {len(header)} plain numbers")
    return header, [line.split(",") for line in lines]


def read_trajectory_csv(path) -> dict:
    """Columns as float arrays keyed by name; an empty file has none."""
    header, rows = read_csv(path)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return dict(zip(header, values.T))


def replay_columns(n_active: int, m_uses: int) -> list[str]:
    """The replay log's header: the round, then ``channel.replay_dtype``'s
    fields in order, a column per device id and per real or imaginary part."""
    return (["round"] + [f"{part}_{i}" for part in ("device", "re_h", "im_h")
                         for i in range(n_active)]
            + [f"noise_{part}_{j}" for part in ("re", "im") for j in range(m_uses)])


def write_replay_csv(traj: Trajectory, path) -> None:
    """Realized channel draws, one line per round in replay_columns order."""
    log = traj.replay
    parts = (log["active"], log["gains"].real, log["gains"].imag,
             log["noise"].real, log["noise"].imag)
    rows = [(t, *ids, *re_h, *im_h, *re_z, *im_z) for t, (ids, re_h, im_h, re_z, im_z)
            in enumerate(zip(*(part.tolist() for part in parts)))]
    write_csv(replay_columns(log.dtype["gains"].shape[0], log.dtype["noise"].shape[0]),
              rows, path)


def read_replay_csv(path) -> np.ndarray:
    """Inverse of write_replay_csv: the log, one ``channel.replay_dtype`` row
    per round.  Beyond read_csv's checks, the header must be a log's, the
    rounds must run 0..T-1 in order and the device ids be integers; a
    ValueError names the log and the line that is not."""
    header, rows = read_csv(path)
    rn = sum(name.startswith("device_") for name in header)
    m = sum(name.startswith("noise_re_") for name in header)
    if header != replay_columns(rn, m):
        raise ValueError(f"{path}: line 1 is not a replay log header")
    log = np.empty(len(rows), dtype=replay_dtype(rn, m))
    for t, row in enumerate(rows):
        try:
            if row[0] != str(t):
                raise ValueError
            log["active"][t] = [int(v) for v in row[1:1 + rn]]
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {t + 2} is not round {t} with {rn} integer "
                             "device ids") from None
    values = np.array([row[1 + rn:] for row in rows], dtype=float)
    values = values.reshape(len(rows), 2 * rn + 2 * m)
    re_h, im_h, re_z, im_z = np.split(values, [rn, 2 * rn, 2 * rn + m], axis=1)
    log["gains"].real, log["gains"].imag = re_h, im_h
    log["noise"].real, log["noise"].imag = re_z, im_z
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
