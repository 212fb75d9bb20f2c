"""The bulk CSV writers join each line themselves; the bytes must be what
``csv.writer`` writes cell by cell (``oracles.write_csv`` and
``oracles.write_replay_csv``)."""
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import storage
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


def same_bytes(tmp_path, write, oracle, *args):
    write(*args, tmp_path / "fast.csv")
    oracle(*args, tmp_path / "slow.csv")
    return (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("name", ["convergence", "generalization"])
def test_shipped_configs(name, tmp_path):
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    traj = run_experiment(cfg)
    rows = storage.trajectory_rows(traj, 1.25)
    assert same_bytes(tmp_path, storage.write_csv, oracles.write_csv,
                      storage.TRAJECTORY_COLUMNS, rows)
    assert same_bytes(tmp_path, storage.write_replay_csv, oracles.write_replay_csv, traj)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(CELLS, max_size=6), max_size=6))
@example(rows=[[float("nan"), float("inf"), -float("inf"), -0.0, True, False, 3, None]])
@example(rows=[[""], [], ["x"], ["a,b", 1.5]])
def test_rows_of_any_cells(rows, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rows")
    assert same_bytes(tmp_path, storage.write_csv, oracles.write_csv,
                      ["c0", "c,1", "c2"], rows)


@st.composite
def replay_logs(draw):
    """A log of 1-4 rounds with one device count for every round, each gain
    and noise part a special value."""
    n_active = draw(st.integers(0, 4))
    rounds = draw(st.lists(st.tuples(st.lists(st.tuples(PARTS, PARTS), min_size=n_active,
                                              max_size=n_active),
                                     st.tuples(PARTS, PARTS)),
                           min_size=1, max_size=4))
    log = np.zeros(len(rounds), dtype=replay_dtype(n_active, 1))
    log["active"] = np.arange(n_active) * 2
    log["gains"] = [[complex(*g) for g in gains] for gains, _ in rounds]
    log["noise"] = [[complex(*noise)] for _, noise in rounds]
    return log


@settings(max_examples=60, deadline=None, derandomize=True)
@given(replay=replay_logs())
def test_replay_log_of_special_values(replay, tmp_path_factory):
    """Gains and noise that are nan, +-inf, -0.0, subnormal or huge."""
    tmp_path = tmp_path_factory.mktemp("replay")
    traj = SimpleNamespace(config=SimpleNamespace(channel_uses=1), replay=replay)
    assert same_bytes(tmp_path, storage.write_replay_csv, oracles.write_replay_csv, traj)
