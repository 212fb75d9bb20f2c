"""The bulk CSV writers format up to ``storage._CSV_LINES`` lines with one
``%`` operation: ``write_csv`` a chunk of number rows whose cells share
their types (the replay log's rounds among them) and
``write_datasets_csv`` a chunk of one device's rows of one split.  The
bytes must be what ``csv.writer`` writes cell by cell
(``oracles.write_csv``, ``oracles.write_replay_csv`` and
``oracles.write_datasets_csv``), whatever the chunk size, and every replay
log must read back bit for bit, with its dtype, through
``storage.read_replay_csv``."""
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import storage, tasks
from airmeta.channel import replay_dtype
from airmeta.protocol import ExperimentConfig, run_experiment

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308, 0.1]
CELLS = st.one_of(
    st.floats(), st.sampled_from(SPECIAL), st.booleans(), st.integers(-2**70, 2**70),
    st.none(), st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(max_size=6), st.sampled_from(["", "a,b", 'say "x"', "two\nlines", "cr\r", " "]))
# one real or imaginary part of a logged gain or noise value
PARTS = st.sampled_from(SPECIAL)
# the shipped configs, a run that aborts at round 7 because it cannot send
# (as trial 0 of ``airmeta run`` aborts at round 8), and one whose noise is
# set by noise_var, so its snr_db cells are unset
RUNS = {"convergence": ("convergence", {}), "generalization": ("generalization", {}),
        "aborted": ("convergence", {"eta": 30.0, "theta_init": 1e100}),
        "noise_var": ("convergence", {"noise_var": 0.05})}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, (config, change) in RUNS.items():
        data = json.loads((CONFIGS / f"{config}.json").read_text()) | change
        out[name] = run_experiment(ExperimentConfig.from_dict(data))
    assert out["aborted"].aborted_at == 7
    return out


def same_bytes(tmp_path, write, oracle, *args):
    write(*args, tmp_path / "fast.csv")
    oracle(*args, tmp_path / "slow.csv")
    return (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def reads_back(tmp_path, replay):
    """The log written to fast.csv reads back as ``replay``, bit for bit and
    with its dtype, also when it has no rounds."""
    log = storage.read_replay_csv(tmp_path / "fast.csv")
    return log.tobytes() == replay.tobytes() and log.dtype == replay.dtype


def check_run_outputs(tmp_path, traj):
    rows = storage.trajectory_rows(traj, 1.25)
    assert same_bytes(tmp_path, storage.write_csv, oracles.write_csv,
                      storage.TRAJECTORY_COLUMNS, rows)
    assert same_bytes(tmp_path, storage.write_replay_csv, oracles.write_replay_csv, traj)
    assert reads_back(tmp_path, traj.replay)


@pytest.mark.parametrize("name", ["convergence", "generalization"])
def test_shipped_configs(name, runs, tmp_path):
    check_run_outputs(tmp_path, runs[name])


@pytest.mark.parametrize("name", ["convergence", "generalization"])
def test_datasets_csv(name, runs, tmp_path):
    """Each device's rows of one split are formatted by one template, and
    are what the oracle writes through ``csv.writer``."""
    assert same_bytes(tmp_path, storage.write_datasets_csv, oracles.write_datasets_csv,
                      runs[name].datasets)


@pytest.mark.parametrize("lines", [71, 1])
@pytest.mark.parametrize("name", ["convergence", "generalization", "special"])
def test_datasets_csv_across_chunks(name, lines, runs, tmp_path, monkeypatch):
    """Chunks of 71 lines, which leave a 75-row training split a partial
    last chunk, and of one line; the "special" datasets hold every value of
    ``SPECIAL`` in their points and labels."""
    if name == "special":
        cells = np.resize(SPECIAL, 3 * 10 * 4).reshape(3, 10, 4)
        data = tasks.Dataset(x=cells[..., :3], y=cells[..., 3], m_tr=7, m_va=3)
    else:
        data = runs[name].datasets
    monkeypatch.setattr(storage, "_CSV_LINES", lines)
    assert same_bytes(tmp_path, storage.write_datasets_csv, oracles.write_datasets_csv, data)


@pytest.mark.parametrize("name", ["aborted", "noise_var"])
def test_aborted_and_noise_var_runs(name, runs, tmp_path):
    check_run_outputs(tmp_path, runs[name])


@pytest.mark.parametrize("lines", [71, 1])
@pytest.mark.parametrize("name", list(RUNS))
def test_run_outputs_across_chunks(name, lines, runs, tmp_path, monkeypatch):
    """Chunks of 71 lines, which leave either writer a partial last chunk
    on a full-length run, and of one line (one round of the replay log)."""
    monkeypatch.setattr(storage, "_CSV_LINES", lines)
    check_run_outputs(tmp_path, runs[name])


def test_noise_var_run_leaves_snr_unset(runs):
    rows = storage.trajectory_rows(runs["noise_var"])
    assert {row[storage.TRAJECTORY_COLUMNS.index("snr_db")] for row in rows} == {None}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(CELLS, max_size=6), max_size=6))
@example(rows=[[float("nan"), float("inf"), -float("inf"), -0.0, True, False, 3, None]])
@example(rows=[[""], [], ["x"], ["a,b", 1.5]])
def test_rows_of_any_cells(rows, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rows")
    assert same_bytes(tmp_path, storage.write_csv, oracles.write_csv,
                      ["c0", "c,1", "c2"], rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(runs_of_rows=st.lists(st.tuples(st.lists(CELLS, max_size=4), st.integers(1, 5)),
                             max_size=5),
       lines=st.sampled_from([1, 2, 3]))
@example(runs_of_rows=[([1, None, 0.5], 5), ([], 3), (["a", 2], 2), ([None], 4)], lines=2)
def test_runs_of_rows_across_chunks(runs_of_rows, lines, tmp_path_factory):
    """Runs of rows of the same cells, formatted a few lines at a time."""
    tmp_path = tmp_path_factory.mktemp("chunks")
    rows = [row for row, repeat in runs_of_rows for _ in range(repeat)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_CSV_LINES", lines)
        assert same_bytes(tmp_path, storage.write_csv, oracles.write_csv, ["c0", "c1"], rows)


@st.composite
def replay_logs(draw):
    """A log of 0-6 rounds over 1-3 channel uses, with one device count for
    every round, each gain and noise part a special value."""
    n_active = draw(st.integers(0, 4))
    m = draw(st.integers(1, 3))
    parts = st.tuples(PARTS, PARTS)
    rounds = draw(st.lists(st.tuples(st.lists(parts, min_size=n_active, max_size=n_active),
                                     st.lists(parts, min_size=m, max_size=m)),
                           max_size=6))
    log = np.zeros(len(rounds), dtype=replay_dtype(n_active, m))
    log["active"] = np.arange(n_active) * 2
    for t, (gains, noise) in enumerate(rounds):
        log["gains"][t] = [complex(*g) for g in gains]
        log["noise"][t] = [complex(*z) for z in noise]
    return log


@settings(max_examples=100, deadline=None, derandomize=True)
@given(replay=replay_logs(), lines=st.sampled_from([1, 5, 4096]))
@example(replay=np.zeros(0, dtype=replay_dtype(3, 2)), lines=4096)
def test_replay_log_of_special_values(replay, lines, tmp_path_factory):
    """Gains and noise that are nan, +-inf, -0.0, subnormal or huge, in one
    chunk of rounds and in chunks of one or a few rounds."""
    tmp_path = tmp_path_factory.mktemp("replay")
    traj = SimpleNamespace(config=SimpleNamespace(channel_uses=replay.dtype["noise"].shape[0]),
                           replay=replay)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_CSV_LINES", lines)
        assert same_bytes(tmp_path, storage.write_replay_csv, oracles.write_replay_csv, traj)
    assert reads_back(tmp_path, replay)
