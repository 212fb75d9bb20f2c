import dataclasses
import json
import platform
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import channel, report
from airmeta.cli import main
from airmeta.protocol import (ROUND_DTYPE, SCHEDULES, ExperimentConfig, replay_experiment,
                              run_experiment)
from airmeta.storage import (TRAJECTORY_COLUMNS, config_sha256, read_config, read_replay_csv,
                             read_trajectory_csv, write_config, write_datasets_csv,
                             write_replay_csv, write_trajectory_csv)
from airmeta.sweeps import apply_axis, trial_configs


def run_config(**overrides):
    base = dict(rounds=25, n_devices=4, active_fraction=0.5, dim=8, local_steps=2,
                batch_size=4, samples_per_device=40, train_samples=20, eta=0.01,
                alpha=0.3, sparsify_k=2, channel_uses=4, snr_db=12.0, master_seed=11,
                n_test_devices=16)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStorage:
    def test_config_round_trip(self, tmp_path):
        cfg = run_config()
        write_config(cfg, tmp_path / "c.json")
        assert read_config(tmp_path / "c.json") == cfg

    def test_trajectory_round_trip(self, tmp_path):
        """Every record field of a complete and of an aborted run reads back
        as it was, NaN cells included."""
        for overrides in ({}, dict(eta=30.0, theta_init=1e100)):
            with np.errstate(all="ignore"):
                traj = run_experiment(run_config(**overrides))
            assert (traj.aborted_at is None) == (not overrides)
            write_trajectory_csv(traj, tmp_path / "t.csv", final_test_loss=1.5)
            table = read_trajectory_csv(tmp_path / "t.csv")
            n_rounds = 25 if traj.aborted_at is None else traj.aborted_at + 1
            assert table["round"].size == len(traj.records) == n_rounds
            for name in ROUND_DTYPE.names:
                assert np.array_equal(table[name], traj.records[name], equal_nan=True), name
            assert table["test_loss"][-1] == 1.5 and np.isnan(table["test_loss"][:-1]).all()

    def test_trajectory_columns_are_the_record_fields(self):
        """The CSV columns are the record fields with the two run-level
        columns in their places."""
        names = list(ROUND_DTYPE.names)
        assert TRAJECTORY_COLUMNS == (names[:3] + ["test_loss"] + names[3:5] + ["snr_db"]
                                      + names[5:])

    def test_noise_var_run_has_no_snr_label(self, tmp_path):
        """noise_var sets the noise and wins over snr_db, so the run's
        trajectory carries no SNR; a run set by snr_db carries its own."""
        for cfg, want in ((run_config(rounds=3, noise_var=5.0), "nan"),
                          (run_config(rounds=3), "12")):
            write_trajectory_csv(run_experiment(cfg), tmp_path / "t.csv")
            lines = (tmp_path / "t.csv").read_text().splitlines()
            col = lines[0].split(",").index("snr_db")
            assert [line.split(",")[col] for line in lines[1:]] == [want] * 3

    def test_replay_round_trip_reproduces_run(self, tmp_path):
        """The log of a complete, an aborted and a zero-round run reads back
        with the bytes of the log in memory and replays the run."""
        for cfg in (run_config(), run_config(eta=30.0, theta_init=1e100), run_config(rounds=0)):
            with np.errstate(all="ignore"):
                traj = run_experiment(cfg)
            write_replay_csv(traj, tmp_path / "r.csv")
            replay = read_replay_csv(tmp_path / "r.csv")
            assert replay.tobytes() == traj.replay.tobytes() and len(replay) == len(traj.replay)
            with np.errstate(all="ignore"):
                again = replay_experiment(cfg.replace(rounds=len(replay)), replay)
            assert again.thetas.tobytes() == traj.thetas.tobytes()
            assert again.records.tobytes() == traj.records.tobytes()
            assert again.aborted_at == traj.aborted_at

    def test_extreme_floats_round_trip(self, tmp_path):
        """Subnormals, signed zeros, the float range's ends, 17-digit
        values, infinities and NaN in every gain and noise part, and device
        ids of any size, read back bit for bit."""
        rn, m, n_rounds = 3, 4, 40
        gen = np.random.default_rng(5)
        extremes = np.array([5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                             0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
                             1 / 3, -2 / 3, np.inf, -np.inf, np.nan, 1e-310, 123456789.01234567])
        log = np.zeros(n_rounds, dtype=channel.replay_dtype(rn, m))
        log["active"] = gen.integers(-2**62, 2**62, size=(n_rounds, rn))
        for field, shape in (("gains", (n_rounds, rn)), ("noise", (n_rounds, m))):
            parts = np.where(gen.random((2,) + shape) < 0.5, gen.choice(extremes, (2,) + shape),
                             gen.standard_normal((2,) + shape) * 10.0 ** gen.integers(-300, 300))
            log[field].real, log[field].imag = parts
        holder = dataclasses.make_dataclass("Log", ["config", "replay"])(
            run_config(n_devices=rn, active_fraction=1.0, channel_uses=m), log)
        write_replay_csv(holder, tmp_path / "r.csv")
        assert read_replay_csv(tmp_path / "r.csv").tobytes() == log.tobytes()

    def test_header_only_replay_log_is_empty(self, tmp_path):
        """A log without rounds reads back empty, with its run's dtype, and
        replays a zero-round run."""
        cfg = run_config(rounds=0)
        write_replay_csv(run_experiment(cfg), tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().count("\n") == 1
        replay = read_replay_csv(tmp_path / "r.csv")
        assert replay.shape == (0,) and replay.dtype == channel.replay_dtype(2, 4)
        traj = replay_experiment(cfg, replay)
        assert len(traj.records) == 0 and traj.thetas.shape == (1, cfg.dim)

    # cells of round 10's line that an edit replaces: (column, text)
    CELL_EDITS = {"bad_gain": (4, ""), "underscore_gain": (4, "1_0.5"),
                  "bad_device_id": (1, ""), "float_device_id": (1, "1.0"),
                  "bad_round": (0, "x"), "float_round": (0, "10.0"),
                  "underscore_round": (0, "1_0"), "padded_round": (0, " 10")}

    def edited_log(self, path, edit):
        """The log of a 3-device run of 12 rounds over 4 channel uses, with
        ``edit`` made to its header or to round 10's line, line 12."""
        cfg = run_config(n_devices=3, active_fraction=1.0, rounds=12, channel_uses=4)
        write_replay_csv(run_experiment(cfg), path)
        header, *lines = [line.split(",") for line in path.read_text().splitlines()]
        cells = lines[10]
        if edit in self.CELL_EDITS:
            col, text = self.CELL_EDITS[edit]
            cells[col] = text
        elif edit == "drop_noise_row":
            del cells[-8:]
        elif edit == "double_noise_row":
            cells += cells[-8:]
        elif edit == "short_noise_row":
            cells.pop()
        elif edit == "ragged_round":  # device 1's id and gain
            del cells[8], cells[5], cells[2]
        elif edit == "blank_line":
            lines[10] = []
        elif edit == "one_cell_row":
            lines.insert(10, ["10"])
        elif edit == "drop_round":
            del lines[10]
        elif edit == "double_round":
            lines.insert(10, lines[9])
        elif edit == "swapped_rounds":
            lines[10], lines[11] = lines[11], lines[10]
        elif edit == "swapped_columns":  # re_h_0 and im_h_0
            header[4], header[7] = header[7], header[4]
        elif edit == "schema_1_header":  # padded to the width of a line
            header = (["round", "device_id", "re_h", "im_h"] + header[10:]
                      + [f"pad_{j}" for j in range(6)])
        path.write_text("\n".join(",".join(row) for row in [header] + lines) + "\n")

    @pytest.mark.parametrize("edit", [
        "drop_noise_row", "double_noise_row", "short_noise_row", "ragged_round", "bad_gain",
        "underscore_gain", "bad_device_id", "float_device_id", "underscore_round",
        "padded_round", "one_cell_row", "drop_round", "double_round", "swapped_rounds"])
    def test_malformed_replay_log_names_the_round(self, tmp_path, edit):
        """With full participation a shifted log would still pass the
        active-set check, so the reader itself rejects round 10's line with
        its noise cells dropped, doubled or short of one, a device's cells
        dropped, a gain or device id that is no plain number or no integer,
        or a round spelled as only float() would read it, and a line of one
        cell, a missing, duplicated or swapped round in its place: the
        error names the log and line 12."""
        self.edited_log(tmp_path / "r.csv", edit)
        with pytest.raises(ValueError, match=": line 12 ") as info:
            read_replay_csv(tmp_path / "r.csv")
        assert str(tmp_path / "r.csv") in str(info.value)

    @pytest.mark.parametrize("edit", ["empty", "swapped_columns", "schema_1_header",
                                      "bad_round", "float_round", "blank_line"])
    def test_replay_log_without_rounds_to_read_names_the_log(self, tmp_path, edit):
        """An empty file, or a header that is not a log's (two columns
        swapped, or the long layout of schema 1), has no rounds to read, and
        a round cell that is not the round's integer, or a blank line, holds
        none: the error names the log, and the line."""
        path = tmp_path / "r.csv"
        if edit == "empty":
            path.write_text("")
        else:
            self.edited_log(path, edit)
        line = 12 if edit in ("bad_round", "float_round", "blank_line") else 1
        with pytest.raises(ValueError, match=f": line {line} ") as info:
            read_replay_csv(path)
        assert str(path) in str(info.value)

    def test_dataset_csv_schema(self, tmp_path):
        traj = run_experiment(run_config(rounds=1))
        write_datasets_csv(traj.datasets, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["device_id", "split"]
        assert header[2:] == [f"x_{j}" for j in range(8)] + ["y"]
        assert len(lines) == 1 + 4 * 40

    def test_hash_changes_with_config(self):
        a, b = run_config(), run_config(eta=0.02)
        assert config_sha256(a) != config_sha256(b)


CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
# names each string field accepts
KNOWN_NAMES = {"lr_schedule": SCHEDULES, "estimator": channel.ESTIMATOR_KINDS,
               "fading": channel.FADING_MODELS}
NOT_A_NUMBER = st.one_of(st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
# JSON values of the wrong type for each annotated field type
WRONG_VALUES = {
    "bool": st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none()),
    "int": st.one_of(st.floats(), NOT_A_NUMBER, st.none()),
    "float": st.one_of(NOT_A_NUMBER, st.none()),
    "float | None": NOT_A_NUMBER,
    "str": st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
}
# 401 digits: beyond the float range, so float() of it raises
HUGE = int("9" * 401)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
NEGATIVE = st.floats(max_value=0.0, exclude_max=True)
NOT_POSITIVE = st.floats(max_value=0.0)
# values outside a field's valid range
OUT_OF_RANGE = {
    "local_steps": st.integers(max_value=0), "batch_size": st.integers(max_value=0),
    "n_test_devices": st.integers(max_value=0),
    "eta": NEGATIVE, "alpha": NEGATIVE, "noise_var": NEGATIVE,
    "eta_scale": NEGATIVE, "alpha_scale": NEGATIVE,
    "power_per_use": NOT_POSITIVE, "loss_clip": NOT_POSITIVE, "rho_max": NOT_POSITIVE,
    "input_cov_scale": NOT_POSITIVE,
}


@st.composite
def corrupted_configs(draw):
    """A valid config as a JSON dict with one field given a wrong type, an
    unknown name, a non-finite float, or a value out of its range."""
    data = run_config(rounds=1).to_dict()
    name = draw(st.sampled_from(sorted(data)))
    bad = [WRONG_VALUES[CONFIG_TYPES[name]]]
    if CONFIG_TYPES[name].startswith("float"):
        bad.append(NON_FINITE)
    if name in KNOWN_NAMES:
        bad.append(st.text(max_size=8).filter(lambda s: s not in KNOWN_NAMES[name]))
    if name in OUT_OF_RANGE:
        bad.append(OUT_OF_RANGE[name])
    data[name] = draw(st.one_of(bad))
    return data


class TestCli:
    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_run_outputs_and_reproducibility(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(), cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out_b)]) == 0
        for name in ("trajectory.csv", "replay_log.csv", "summary.json", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_sha256(run_config())
        # the versions the bytes of the data files depend on
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}
        summary = json.loads((out_a / "summary.json").read_text())
        assert "bound_constant" in summary and "convergence_error" in summary
        total = summary["bound_constant"]["total"]
        assert total == pytest.approx(sum(summary["bound_constant"]["terms"].values()))

    def test_runtime_abort_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(eta=80.0, rounds=200), cfg_path)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 3
        # the aborted trial keeps its artifacts, and the run can be repeated
        # from its own directory
        for name in ("trajectory.csv", "replay_log.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert config_sha256(read_config(out / "config.json")) == manifest["config_sha256"]
        aborted_at = json.loads((out / "summary.json").read_text())["aborted_at"]
        assert aborted_at == 41
        # its update energy overflows, so it has no power scale to send with
        assert f"trial 0 aborted at round {aborted_at}: it could not send" in \
            capsys.readouterr().err

    def test_diverging_shipped_config_aborts_because_it_cannot_send(self, tmp_path, capsys):
        """The convergence config from a far start at a large rate aborts at
        round 8 with every stored iterate finite: its model differences are
        finite, but their energy overflows, so the round cannot send.  The
        message names that exit, not a non-finite iterate."""
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "convergence.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg | {"eta": 30.0, "theta_init": 1e100}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
        assert json.loads((out / "summary.json").read_text())["aborted_at"] == 8
        assert "trial 0 aborted at round 8: it could not send" in capsys.readouterr().err

    def test_non_finite_iterate_abort_names_the_iterate(self, tmp_path, capsys, monkeypatch):
        """A round that sends but whose server update leaves the float range
        (forced here at round 3) aborts with its rho recorded, and the
        message names the iterate."""
        update, rounds_done = channel.global_update, []

        def overflowing_update(*args):
            theta_next = update(*args)
            if len(rounds_done) == 3:
                theta_next[:, 0] = np.inf
            rounds_done.append(True)
            return theta_next

        monkeypatch.setattr(channel, "global_update", overflowing_update)
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
        assert json.loads((out / "summary.json").read_text())["aborted_at"] == 3
        assert "trial 0 aborted at round 3: its next iterate is not finite" in \
            capsys.readouterr().err

    def test_overflowed_probe_run_completes_without_constants(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(theta_init=1e200, rounds=5, eta=1e-20), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        for name in ("trajectory.csv", "replay_log.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted_at"] is None and "constants" not in summary
        warning = "constants and bounds are not evaluated for this run: g_sq must be finite"
        assert any(w.startswith(warning) for w in summary["warnings"])
        assert warning in capsys.readouterr().err

    def test_overflowed_run_raises_no_numpy_warning(self, tmp_path, capsys):
        """Overflow in f_init, the per-round records and the summary is
        expected on such a run; the one complaint is airmeta's own."""
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(theta_init=1e200, rounds=5, eta=1e-20), cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "constants and bounds are not evaluated for this run" in err
        assert all(line.startswith("warning: ") for line in err.splitlines())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(corrupted_configs())
    # a NaN rate aborted the run at round 0 (exit 3); an infinite SNR ran (exit 0)
    @example(run_config(rounds=1).to_dict() | {"eta": float("nan")})
    @example(run_config(rounds=1).to_dict() | {"snr_db": float("inf")})
    # the removed uplink selector is an unknown field, whatever its value
    @example(run_config(rounds=1).to_dict() | {"channel_mode": "air"})
    @example(run_config(rounds=1).to_dict() | {"channel_mode": "ideal"})
    # so are the removed compression, selection, adaptation and test-size knobs
    @example(run_config(rounds=1).to_dict() | {"compression": "partial_dft"})
    @example(run_config(rounds=1).to_dict() | {"comp_mode": "topk"})
    @example(run_config(rounds=1).to_dict() | {"first_order": False})
    @example(run_config(rounds=1).to_dict() | {"test_samples": 0})
    # zero input variance divided by L_G = 0 in validate (exit 3)
    @example(run_config(rounds=1).to_dict() | {"input_cov_scale": 0.0})
    # a config that is not a JSON object: a list read as fields (exit 3), a
    # string as field names
    @example([])
    @example("x")
    @example(5)
    @example(None)
    def test_invalid_or_wrongly_typed_config_exits_2(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(data))
            assert main(["run", "--config", str(cfg_path), "--out-dir", str(Path(tmp) / "o")]) == 2

    @pytest.mark.parametrize("name", [name for name, kind in CONFIG_TYPES.items()
                                      if kind.startswith("float")])
    def test_integer_beyond_the_float_range_exits_2_before_any_output(self, tmp_path, capsys,
                                                                       name):
        """A JSON integer that no float holds, of either sign, in a float
        field is a config error: nothing is written, not even config.json."""
        for value in (HUGE, -HUGE):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(run_config(rounds=1).to_dict() | {name: value}))
            out = tmp_path / "o"
            assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
            assert not out.exists()
            assert f"invalid config {cfg_path}: {name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [name for name, kind in CONFIG_TYPES.items()
                                      if kind == "int"])
    def test_int_field_beyond_the_float_range_exits_2_before_any_output(self, tmp_path,
                                                                         capsys, name):
        """A JSON integer that no float holds, of either sign, in an int
        field is a config error too, named by its field: a 401-digit
        ``n_devices`` made ``validate()`` raise OverflowError in the float
        product ``active_fraction * n_devices``."""
        for value in (HUGE, -HUGE):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(run_config(rounds=1).to_dict() | {name: value}))
            out = tmp_path / "o"
            assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
            assert not out.exists()
            assert f"invalid config {cfg_path}: {name} must be finite" in capsys.readouterr().err

    def test_sweep_value_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis": "eta", "values": [0.001, HUGE],
                                         "base": run_config(rounds=1).to_dict()}))
        out = tmp_path / "s"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "sweep values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["eta_scale", "alpha_scale"])
    def test_negative_adaptive_scale_exits_2_before_any_output(self, tmp_path, capsys, scale):
        """A negative scale of the adaptive schedule is a config error, not a
        failed run: nothing is written, not even config.json."""
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "convergence.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg | {"lr_schedule": "adaptive", scale: -0.1}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "invalid config" in capsys.readouterr().err

    def test_bounds_command_reports_and_checks(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(), cfg_path)
        out = tmp_path / "o"
        main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        code = main(["bounds", "--trajectory", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "<= bound" in text
        assert "generalization bound" in text

    @pytest.mark.parametrize("schedule", ["constant", "adaptive"])
    def test_bounds_json_matches_summary(self, tmp_path, schedule):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(lr_schedule=schedule), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        code = main(["bounds", "--trajectory", str(out),
                     "--out-dir", str(tmp_path / "b")])
        summary = json.loads((out / "summary.json").read_text())
        written = json.loads((tmp_path / "b" / "bounds.json").read_text())
        keys = {k for k in summary if k.startswith("bound_")}
        assert keys == {k for k in written if k.startswith("bound_")}
        assert ("bound_adaptive" in keys) == (schedule == "adaptive")
        for key in keys:
            assert written[key] == summary[key]
        # gated on the schedule's own bound and measured quantity
        gated = written["bound_" + schedule]["total"]
        if schedule == "adaptive":
            measured = written["measured_best_grad_norm_sq"]
        else:
            measured = written["measured_convergence_error"]
        assert code == (0 if measured <= gated else 1)

    def test_bounds_adaptive_precondition_failure_exits_1(self, tmp_path, capsys):
        # eta_offset * k/d = 10 * 2/8 is not above 4Q = 8: no adaptive bound
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(lr_schedule="adaptive", eta_offset=10.0), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert "bound_adaptive_error" in json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        code = main(["bounds", "--trajectory", str(out)])
        assert code == 1
        assert "bound_adaptive_error: need a * (k/d) > 4 * Q" in capsys.readouterr().out

    def test_bounds_accepts_trial_directory(self, tmp_path):
        """A trial directory of a multi-trial run gates on its own summary and
        trajectory, as does a single-trial run whose directory is named
        ``trial_*``."""
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(trials=2), cfg_path)
        single_path = tmp_path / "single.json"
        write_config(run_config(), single_path)
        out = tmp_path / "o"
        single = tmp_path / "x" / "trial_run"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert main(["run", "--config", str(single_path), "--out-dir", str(single)]) == 0
        for k, tdir in enumerate([out / "trial_000", out / "trial_001", single]):
            code = main(["bounds", "--trajectory", str(tdir), "--out-dir", str(tmp_path / f"b{k}")])
            assert code in (0, 1)
            summary = json.loads((tdir / "summary.json").read_text())
            written = json.loads((tmp_path / f"b{k}" / "bounds.json").read_text())
            assert written["bound_constant"] == summary["bound_constant"]
            assert written["bound_generalization"] == summary["bound_generalization"]

    def test_bounds_reads_only_summary_and_trajectory(self, tmp_path, capsys):
        """A directory holding only copies of a run's summary.json and
        trajectory.csv gates as the run directory does: no config, manifest
        or replay log is read."""
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("summary.json", "trajectory.csv"):
            shutil.copy(out / name, bare / name)
        capsys.readouterr()
        assert main(["bounds", "--trajectory", str(out), "--out-dir", str(tmp_path / "b")]) == 0
        expected = capsys.readouterr().out
        assert main(["bounds", "--trajectory", str(bare), "--out-dir", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().out == expected
        assert ((tmp_path / "c" / "bounds.json").read_bytes()
                == (tmp_path / "b" / "bounds.json").read_bytes())

    def test_bounds_takes_no_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(rounds=5), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["bounds", "--config", str(cfg_path), "--trajectory", str(out)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_bounds_on_zero_round_run_exits_2(self, tmp_path, capsys):
        """A run with no round carries constants but no bound; bounds says
        so and evaluates nothing."""
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(rounds=0), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "constants" in summary and not any(k.startswith("bound_") for k in summary)
        capsys.readouterr()
        code = main(["bounds", "--trajectory", str(out),
                     "--out-dir", str(tmp_path / "b")])
        captured = capsys.readouterr()
        assert code == 2
        assert "at least one round" in captured.err and captured.out == ""
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("name,edit", [
        ("summary.json", "truncate"), ("summary.json", "drop_bound"),
        ("trajectory.csv", "non_numeric_cell"),
        ("trajectory.csv", "drop_round"), ("trajectory.csv", "empty"),
        ("trajectory.csv", "padded_cell"),
    ])
    def test_bounds_on_malformed_artifact_exits_2_and_names_it(self, tmp_path, capsys,
                                                              name, edit):
        """An artifact cut short or empty, without a key that bounds reads,
        with a cell that is not a number, or with fewer rounds than the
        summary records is a usage error that names the file, as a missing
        one is; nothing is printed or written."""
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(rounds=5), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        path = out / name
        text = path.read_text()
        if edit == "truncate":
            text = text[:len(text) // 2]
        elif edit == "drop_bound":
            summary = json.loads(text)
            del summary["bound_generalization"]
            text = json.dumps(summary)
        elif edit == "non_numeric_cell":
            text = text.replace("\n1,", "\nabc,", 1)
        elif edit == "drop_round":
            text = text[:text.rstrip("\n").rindex("\n") + 1]
        elif edit == "padded_cell":
            text = text.replace("\n1,", "\n 1,", 1)
        else:
            text = ""
        path.write_text(text)
        capsys.readouterr()
        code = main(["bounds", "--trajectory", str(out),
                     "--out-dir", str(tmp_path / "b")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"malformed run artifact {path}" in captured.err and captured.out == ""
        assert not (tmp_path / "b").exists()

    def test_estimation_term_zero_on_noiseless_unit_run(self, tmp_path):
        cfg = run_config(fading="unit", noise_var=0.0, snr_db=None, sparsify_k=8,
                         channel_uses=8, estimator="matched",
                         active_fraction=1.0)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_constant"]["terms"]["estimation"] == 0.0

    def test_sweep_aggregate_shape(self, tmp_path):
        spec = {
            "axis": "snr_db",
            "values": [0.0, 10.0, 20.0],
            "seeds": 2,
            "base": run_config(rounds=15).to_dict(),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per value
        assert lines[0].split(",")[0] == "axis"
        for v in (0.0, 10.0, 20.0):
            assert (out / f"snr_db_{v:g}" / "point.json").exists()

    def test_sweep_pool_writes_same_bytes_as_serial(self, tmp_path):
        spec = {"axis": "snr_db", "values": [0.0, 10.0, 20.0], "seeds": 2,
                "base": run_config(rounds=15).to_dict()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = {}
        for threads in (1, 2):
            outs[threads] = tmp_path / f"t{threads}"
            assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(outs[threads]),
                         "--threads", str(threads)]) == 0
        names = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert len(names) == 4  # three point.json files and aggregate.csv
        assert names == sorted(p.relative_to(outs[2]) for p in outs[2].rglob("*")
                               if p.is_file())
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_seed_k_is_trial_k_of_its_point(self, tmp_path, threads):
        """Each point's seed k is trial k of that point's config, in order: the
        per-seed entries are the numbers of that run's own summary."""
        spec = {"axis": "snr_db", "values": [0.0, 20.0], "seeds": 3,
                "base": run_config(rounds=15).to_dict()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out),
                     "--threads", str(threads)]) == 0
        for v in spec["values"]:
            point = json.loads((out / f"snr_db_{v:g}" / "point.json").read_text())
            want = {"conv_error": [], "test": [], "train": [], "gen_bound": [],
                    "conv_bound": []}
            for cfg in trial_configs(apply_axis(run_config(rounds=15), "snr_db", v), 3):
                summary = report.summarize(run_experiment(cfg))
                want["conv_error"].append(summary["convergence_error"])
                want["test"].append(summary["final_test_loss"])
                want["train"].append(summary["final_train_loss"])
                want["gen_bound"].append(summary["bound_generalization"])
                want["conv_bound"].append(summary["bound_constant"].total)
            assert point == want | {"axis": "snr_db", "value": v}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_abort_keeps_finished_points(self, tmp_path, threads):
        spec = {"axis": "eta", "values": [0.01, 80.0],
                "base": run_config(rounds=200).to_dict()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out),
                     "--threads", str(threads)]) == 3
        assert (out / "eta_0.01" / "point.json").exists()
        assert not (out / "eta_80" / "point.json").exists()
        lines = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("eta,0.01,")

    def test_sweep_without_applicable_bounds_completes(self, tmp_path, capsys):
        """A point whose constants or bounds do not apply (alpha above 1/L_G)
        still aggregates its losses, with no bound entries."""
        spec = json.loads((Path(__file__).parents[1] / "configs" / "sweep_snr.json").read_text())
        spec["base"] |= {"alpha": 2.0, "rounds": 3}
        spec["seeds"] = 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
        assert "runtime error" not in capsys.readouterr().err
        for v in spec["values"]:
            point = json.loads((out / f"snr_db_{v:g}" / "point.json").read_text())
            assert point["gen_bound"] == point["conv_bound"] == []
            assert len(point["test"]) == len(point["train"]) == 1
        rows = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + len(spec["values"])

    def test_sweep_takes_its_spec_only_as_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis": "snr_db", "values": [10.0], "seeds": 1,
                                         "base": run_config(rounds=1).to_dict()}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(spec_path), "--out-dir", str(out)]) == 2
        assert "the following arguments are required: --spec" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_bad_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis": "bogus", "values": [1], "base": {}}))
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "s")]) == 2
        # a base that is not a JSON object is a bad spec, not a runtime error
        spec_path.write_text(json.dumps({"axis": "snr_db", "values": [10.0], "base": []}))
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "s")]) == 2
        # a non-finite axis value is a bad spec, not a failed point
        spec_path.write_text(json.dumps({"axis": "snr_db", "values": [float("nan")],
                                         "base": run_config(rounds=1).to_dict()}))
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "s")]) == 2
        # two values that print alike would share the point directory eta_0.001
        spec_path.write_text(json.dumps({"axis": "eta", "values": [0.001000001, 0.001000002],
                                         "base": run_config(rounds=1).to_dict()}))
        out = tmp_path / "collide"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        # values and seeds are type-checked, not coerced: "10" and true are not
        # numbers, 2.7 seeds are not a count, and 8.4 devices are not a device count
        base = run_config(rounds=1).to_dict()
        for bad in ({"axis": "snr_db", "values": ["10", True]},
                    {"axis": "snr_db", "values": [True]},
                    {"axis": "snr_db", "values": [10.0], "seeds": 2.7},
                    {"axis": "snr_db", "values": [10.0], "seeds": True},
                    {"axis": "n_devices", "values": [4, 8.4]}):
            spec_path.write_text(json.dumps(bad | {"base": base}))
            out = tmp_path / "coerced"
            assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 2, bad
            assert not out.exists()
        # `seeds` is a sweep's one trial count, so a base with its own trials is a bad spec
        spec_path.write_text(json.dumps({"axis": "snr_db", "values": [10.0], "seeds": 2,
                                         "base": base | {"trials": 5}}))
        out = tmp_path / "trials"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("axis, values", [("n_devices", [9, 10]), ("m_over_d", [0.5, 1.5])])
    def test_sweep_invalid_point_exits_2_before_any_run(self, tmp_path, axis, values):
        """A valid base whose later point is invalid (3.33 active devices of
        10, or more channel uses than dimensions) is a bad spec: no point runs."""
        spec = json.loads((Path(__file__).parents[1] / "configs" / "sweep_snr.json").read_text())
        spec |= {"axis": axis, "values": values, "seeds": 1}
        spec["base"]["rounds"] = 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_multi_trial_run_aggregates_gap(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(trials=3, rounds=10), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        for k in range(3):
            assert (out / f"trial_{k:03d}" / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "generalization_gap_mean" in summary
        assert "generalization_gap_se" in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trial_seeds"] == [
            cfg.master_seed for cfg in trial_configs(run_config(trials=3, rounds=10), 3)]

    def test_config_warnings_print_once_per_run(self, tmp_path, capsys):
        """The config's own warnings are shared by every trial and print once;
        what a trial's summary adds prints with that trial."""
        cfg = read_config(Path(__file__).parents[1] / "configs" / "generalization.json")
        write_config(cfg.replace(trials=3, eta=0.5, rounds=3), tmp_path / "gen.json")
        assert main(["run", "--config", str(tmp_path / "gen.json"),
                     "--out-dir", str(tmp_path / "gen")]) == 0
        assert capsys.readouterr().err.count("constant-rate validity condition") == 1
        write_config(run_config(trials=2, theta_init=1e200, rounds=5, eta=1e-20),
                     tmp_path / "big.json")
        assert main(["run", "--config", str(tmp_path / "big.json"),
                     "--out-dir", str(tmp_path / "big")]) == 0
        err = capsys.readouterr().err
        assert err.count("constants and bounds are not evaluated for this run") == 2

    def test_sweep_config_warnings_print_once(self, tmp_path, capsys):
        """A sweep prints each distinct config warning once, with the axis
        values it applies to; a sweep without warnings prints none."""
        base = run_config(rounds=3, eta=0.5)
        for eta, want in ((0.5, 1), (0.001, 0)):
            spec = {"axis": "snr_db", "values": [0.0, 10.0], "seeds": 1,
                    "base": base.replace(eta=eta).to_dict()}
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            assert main(["sweep", "--spec", str(tmp_path / "spec.json"),
                         "--out-dir", str(tmp_path / f"sweep_{eta}")]) == 0
            err = capsys.readouterr().err
            assert err.count("constant-rate validity condition") == want
            assert err.count("(snr_db = 0, 10)") == want
            if not want:
                assert err == ""

    def test_dump_datasets_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(rounds=2), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                     "--dump-datasets"]) == 0
        assert (out / "datasets.csv").exists()

    def test_json_format_writes_mirrors(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(run_config(), cfg_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                     "--format", "json"]) == 0
        assert (out / "trajectory.json").exists()
