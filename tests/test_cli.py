"""End-to-end tests for the command-line interface.

Everything runs through ``main`` in process; the console script points
at the same function.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import driftwatch
from driftwatch import Event, FeatureSchema, Monitor, MonitorConfig, build_report, explain
from driftwatch.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    MANIFEST_FILE,
    SIGNAL_FILE,
    load_run_config,
    main,
)
from driftwatch.report import write_report_files
from driftwatch.stream_model import read_stream

BASE_SPEC = {
    "events": 3000,
    "seed": 5,
    "score": {"weight": 0.9, "a1": 1.5, "b1": 12.0, "a2": 6.0, "b2": 3.0},
    "features": [
        {"name": "amount", "type": "numeric", "mean": 100.0, "std": 15.0,
         "missing_rate": 0.05},
        {"name": "channel", "type": "categorical",
         "values": ["web", "pos", "api"], "weights": [0.6, 0.3, 0.1]},
    ],
    "drifts": [{
        "start": 1500, "length": 600,
        "score": {"weight": 0.1, "a1": 1.5, "b1": 12.0, "a2": 12.0, "b2": 2.5},
        "features": {"amount": {"type": "numeric", "mean": 160.0, "std": 15.0}},
    }],
}

BASE_CONFIG = """
# replay settings for the drift fixture
monitor.n_r = 400
monitor.n_t = 150
monitor.bin_count = 10
monitor.sketch_bins = 20
monitor.min_signal_samples = 450
report.cv_folds = 5
"""

BURN_IN = 400 + 150 + 450


def generate(spec: dict, directory: Path, name: str = "stream") -> Path:
    spec_path = directory / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    out = directory / f"{name}.csv"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out

def run_monitor(stream: Path, directory: Path, run_name: str,
                config: str = BASE_CONFIG, seed: int = 3,
                extra: list[str] = ()) -> tuple[int, Path]:
    config_path = directory / f"{run_name}.conf"
    config_path.write_text(config)
    out = directory / run_name
    code = main([
        "monitor",
        "--input", str(stream),
        "--schema", str(stream) + ".schema.json",
        "--config", str(config_path),
        "--out", str(out),
        "--seed", str(seed),
        *extra,
    ])
    return code, out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    stream = generate(BASE_SPEC, directory)
    code, run_dir = run_monitor(stream, directory, "run_a")
    assert code == EXIT_OK
    manifest = json.loads((run_dir / MANIFEST_FILE).read_text())
    return directory, stream, run_dir, manifest


class TestMonitorRun:
    def test_signal_csv_shape(self, workspace):
        _, _, run_dir, manifest = workspace
        lines = (run_dir / SIGNAL_FILE).read_text().splitlines()
        assert lines[0] == "event_index,timestamp,signal,threshold,is_alarm"
        assert len(lines) - 1 == manifest["counts"]["signal_points"]
        assert manifest["counts"]["events"] == 3000
        assert manifest["counts"]["signal_points"] == 3000 - BURN_IN + 1

        first = lines[1].split(",")
        assert int(first[0]) == BURN_IN - 1
        previous = -1
        for line in lines[1:]:
            index, timestamp, signal, threshold, is_alarm = line.split(",")
            assert int(index) > previous
            previous = int(index)
            assert int(timestamp) == int(index)
            assert 0.0 <= float(signal) <= 1.0
            assert float(threshold) >= 0.0
            assert is_alarm in {"0", "1"}

    def test_manifest_counts_and_echo(self, workspace):
        _, _, run_dir, manifest = workspace
        assert manifest["seed"] == 3
        assert manifest["config"]["monitor"]["n_r"] == 400
        assert manifest["config"]["monitor"]["refractory_events"] == 150
        assert manifest["counts"]["alarms"] == len(manifest["alarms"])
        assert manifest["counts"]["alarms"] == len(manifest["outputs"]["reports"])
        assert manifest["counts"]["valleys"] == len(manifest["valleys"])
        assert len(manifest["input_digest"]) == 64

    def test_alarm_rows_agree_with_signal_csv(self, workspace):
        _, _, run_dir, manifest = workspace
        by_index = {}
        for line in (run_dir / SIGNAL_FILE).read_text().splitlines()[1:]:
            index, _, signal, threshold, is_alarm = line.split(",")
            by_index[int(index)] = (float(signal), float(threshold), is_alarm)
        for alarm in manifest["alarms"]:
            signal, threshold, flagged = by_index[alarm["event_index"]]
            assert flagged == "1"
            assert alarm["signal"] == signal
            assert alarm["threshold"] == threshold
            assert signal > threshold

    def test_drift_is_alarmed_within_one_target_window(self, workspace):
        _, _, _, manifest = workspace
        onset = BASE_SPEC["drifts"][0]["start"]
        post = [a["event_index"] for a in manifest["alarms"] if a["event_index"] >= onset]
        assert post and post[0] <= onset + 150

    def test_every_alarm_has_complete_report_files(self, workspace):
        _, _, _, manifest = workspace
        assert manifest["alarms"]
        for alarm_id, paths in manifest["outputs"]["reports"].items():
            assert set(paths) == {"json", "markdown", "validation_curve", "roc"}
            for path in paths.values():
                assert Path(path).is_file()
            doc = json.loads(Path(paths["json"]).read_text())
            assert doc["alarm_index"] == int(alarm_id)

    def test_report_json_matches_manifest_alarm(self, workspace):
        _, _, _, manifest = workspace
        alarm = manifest["alarms"][0]
        paths = manifest["outputs"]["reports"][str(alarm["alarm"])]
        doc = json.loads(Path(paths["json"]).read_text())
        assert doc["event_index"] == alarm["event_index"]
        assert doc["signal"] == alarm["signal"]
        assert doc["threshold"] == alarm["threshold"]
        assert doc["windows"]["t_size"] == 150
        assert doc["windows"]["r_size"] == 400

    def test_validation_curve_starts_at_the_signal(self, workspace):
        # The run sets monitor.bin_count = 10; the curve must use it too.
        _, _, _, manifest = workspace
        assert manifest["alarms"]
        for alarm in manifest["alarms"]:
            paths = manifest["outputs"]["reports"][str(alarm["alarm"])]
            curve = json.loads(Path(paths["json"]).read_text())["validation_curve"]
            assert curve["k_values"][0] == 0
            assert curve["ranked_jsd"][0] == alarm["signal"]
            assert curve["random_jsd"][0] == alarm["signal"]

    def test_valleys_are_spaced_and_quiet(self, workspace):
        _, _, run_dir, manifest = workspace
        valleys = manifest["valleys"]
        assert 0 < len(valleys) <= 5
        ordered = sorted(valleys)
        assert all(b - a >= 150 for a, b in zip(ordered, ordered[1:]))
        signals = {}
        for line in (run_dir / SIGNAL_FILE).read_text().splitlines()[1:]:
            index, _, signal, _, _ = line.split(",")
            signals[int(index)] = float(signal)
        low_bar = sorted(signals.values())[len(signals) // 4]
        for valley in valleys:
            assert signals[valley] <= low_bar


class TestDeterminism:
    def test_same_seed_reproduces_all_outputs(self, workspace):
        directory, stream, run_a, manifest_a = workspace
        code, run_b = run_monitor(stream, directory, "run_b")
        assert code == EXIT_OK
        assert (run_a / SIGNAL_FILE).read_bytes() == (run_b / SIGNAL_FILE).read_bytes()

        manifest_b = json.loads((run_b / MANIFEST_FILE).read_text())
        for key in ("config", "input_digest", "seed", "counts", "valleys", "alarms",
                    "threshold_audit"):
            assert manifest_a[key] == manifest_b[key]
        for alarm_id, paths_a in manifest_a["outputs"]["reports"].items():
            paths_b = manifest_b["outputs"]["reports"][alarm_id]
            assert Path(paths_a["json"]).read_bytes() == Path(paths_b["json"]).read_bytes()
            assert Path(paths_a["markdown"]).read_bytes() == Path(paths_b["markdown"]).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and at least two CPUs")
    def test_outputs_do_not_depend_on_the_cpu_count(self, workspace, tmp_path):
        # Pinned to one CPU a report fits its CV folds itself; unpinned it
        # deals them to helper processes.
        _, stream, _, _ = workspace
        config = tmp_path / "run.conf"
        config.write_text(BASE_CONFIG)
        source_root = str(Path(driftwatch.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {one_cpu})),
                          ("unpinned", None)):
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-m", "driftwatch.cli", "monitor", "--input", str(stream),
                 "--schema", f"{stream}.schema.json", "--config", str(config),
                 "--out", str(out), "--seed", "3"],
                env=env, capture_output=True, timeout=300, preexec_fn=pin,
            )
            assert done.returncode == EXIT_OK, done.stderr.decode("utf-8", "replace")
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())
                            if path.name != MANIFEST_FILE})
        pinned, unpinned = outputs
        assert any(name.startswith("alarm_") for name in pinned)
        assert pinned == unpinned

    def test_generate_is_byte_identical(self, tmp_path):
        first = generate(BASE_SPEC, tmp_path, "first")
        second = generate(BASE_SPEC, tmp_path, "second")
        assert first.read_bytes() == second.read_bytes()


class TestThresholdAudit:
    AUDIT_CONFIG = (
        "monitor.n_r = 300\nmonitor.n_t = 100\nmonitor.bin_count = 10\n"
        "monitor.sketch_bins = 20\nmonitor.min_signal_samples = 200\n"
        "monitor.refractory_events = 2500\n"
    )

    @pytest.mark.filterwarnings("ignore:burn-in has")
    def test_audit_brackets_the_exact_share(self, tmp_path):
        # A full-history replay finds the exact share of consumed signal
        # values at or below each audited threshold: at each trigger and at
        # the end. The stream outgrows the sample, so the interval is open.
        spec = {
            "events": 12000, "seed": 9,
            "score": {"weight": 0.9, "a1": 1.5, "b1": 12.0, "a2": 6.0, "b2": 3.0},
            "drifts": [{
                "start": 6000, "length": 1500,
                "score": {"weight": 0.1, "a1": 1.5, "b1": 12.0, "a2": 12.0, "b2": 2.5},
            }],
        }
        stream = generate(spec, tmp_path)
        code, run_dir = run_monitor(stream, tmp_path, "run", config=self.AUDIT_CONFIG, seed=2)
        assert code == EXIT_OK
        manifest = json.loads((run_dir / MANIFEST_FILE).read_text())

        monitor_config, _, _ = load_run_config(str(tmp_path / "run.conf"))
        monitor = Monitor(monitor_config)
        history = []
        exact_at_alarm = []
        with open(stream, encoding="utf-8", newline="") as handle:
            for event in read_stream(handle, FeatureSchema(())):
                _, trigger = monitor.step(event)
                if monitor.windows.warmed_up:
                    history.append(monitor.signal_state.value())
                if trigger is not None:
                    exact_at_alarm.append(
                        sum(v <= trigger.threshold for v in history) / len(history)
                    )
        final_threshold = manifest["threshold_audit"]["threshold"]
        exact_at_end = sum(v <= final_threshold for v in history) / len(history)

        audits = [alarm["threshold_audit"] for alarm in manifest["alarms"]]
        assert len(audits) == len(exact_at_alarm) >= 2
        assert [a["threshold"] for a in audits] == [a["threshold"] for a in manifest["alarms"]]
        audits.append(manifest["threshold_audit"])
        assert audits[-1]["consumed"] == len(history) > audits[-1]["sample_size"] == 4096
        for audit, exact in zip(audits, exact_at_alarm + [exact_at_end]):
            low, high = audit["interval"]
            share = audit["share"]
            half_width = max(share - low, high - share)
            assert low <= share <= high
            assert abs(exact - share) <= 3 * half_width, (audit, exact)

    def test_stream_too_short_for_the_sketch_writes_null(self, tmp_path):
        spec = {"events": 410, "seed": 9,
                "score": {"weight": 0.9, "a1": 1.5, "b1": 12.0, "a2": 6.0, "b2": 3.0}}
        stream = generate(spec, tmp_path)
        code, run_dir = run_monitor(stream, tmp_path, "run", config=self.AUDIT_CONFIG)
        assert code == EXIT_OK
        manifest = json.loads((run_dir / MANIFEST_FILE).read_text())
        assert manifest["threshold_audit"] is None
        assert manifest["alarms"] == []


class TestLibraryReports:
    def test_library_replay_writes_the_cli_report_bytes(self, workspace, tmp_path):
        # Monitor(config) plus build_report(..., seed=s) is the CLI's run
        # with --seed s, down to the bytes of every report file.
        directory, stream, _, manifest = workspace
        monitor_config, report_config, _ = load_run_config(str(directory / "run_a.conf"))
        schema_text = Path(str(stream) + ".schema.json").read_text(encoding="utf-8")
        schema = FeatureSchema.from_json(schema_text)
        monitor = Monitor(monitor_config)
        with open(stream, encoding="utf-8", newline="") as source:
            triggers = [t for _, t in map(monitor.step, read_stream(source, schema)) if t]
        assert len(triggers) >= 2
        assert len(triggers) == manifest["counts"]["alarms"]
        for trigger in triggers:
            stem = f"alarm_{trigger.alarm_index:04d}"
            report = build_report(trigger, schema, report_config, seed=3)
            written = write_report_files(report, tmp_path, stem)
            expected = manifest["outputs"]["reports"][str(trigger.alarm_index)]
            for kind, path in written.items():
                assert Path(path).read_bytes() == Path(expected[kind]).read_bytes(), (stem, kind)

    def test_filter_runs_once_per_run(self, workspace, tmp_path, monkeypatch):
        _, stream, _, manifest = workspace
        assert manifest["counts"]["alarms"] >= 2
        calls = []
        real_filter = explain.time_correlation_filter

        def counting_filter(*args, **kwargs):
            calls.append(args)
            return real_filter(*args, **kwargs)

        monkeypatch.setattr(explain, "time_correlation_filter", counting_filter)
        code, _ = run_monitor(stream, tmp_path, "counted")
        assert code == EXIT_OK
        assert len(calls) == 1


class TestConfigFile:
    # A non-default value for every field of MonitorConfig and ReportConfig,
    # in field order; floats where the field is typed float.
    EVERY_KEY = {
        "monitor": {"n_r": 500, "n_t": 120, "bin_count": 12, "threshold_percentile": 90.5,
                    "sketch_bins": 30, "refractory_events": 60, "min_signal_samples": 400,
                    "valley_percentile": 12.5, "valley_count": 3},
        "report": {"cv_folds": 3, "top_events": 20, "top_importances": 4,
                   "validation_step": 7, "validation_max_k": 100},
    }

    def test_every_field_is_a_key_parsed_with_its_type_and_echoed_in_field_order(
        self, tmp_path
    ):
        lines = [f"{section}.{name} = {value}"
                 for section, values in self.EVERY_KEY.items()
                 for name, value in values.items()]
        path = tmp_path / "every.conf"
        path.write_text("\n".join(reversed(lines)) + "\n")
        monitor_config, report_config, echo = load_run_config(str(path))
        for section, config in (("monitor", monitor_config), ("report", report_config)):
            defaults = type(config)(n_r=2, n_t=2) if section == "monitor" else type(config)()
            names = [field.name for field in dataclasses.fields(config)]
            assert list(self.EVERY_KEY[section]) == names
            assert list(echo[section]) == names
            for name, value in self.EVERY_KEY[section].items():
                assert getattr(config, name) != getattr(defaults, name)
                assert getattr(config, name) == value == echo[section][name]
                assert type(echo[section][name]) is type(value)


class TestReportCommand:
    def test_prints_markdown(self, workspace, capsys):
        _, _, run_dir, manifest = workspace
        alarm_id = manifest["alarms"][0]["alarm"]
        assert main(["report", "--run", str(run_dir), "--alarm", str(alarm_id)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"# Alarm {alarm_id}")
        assert "## Feature importance" in out
        assert "## Validation curve" in out
        assert "## Top events" in out
        assert "model_score" in out

    def test_unknown_alarm_is_an_input_error(self, workspace, capsys):
        _, _, run_dir, _ = workspace
        assert main(["report", "--run", str(run_dir), "--alarm", "999"]) == EXIT_INPUT
        assert "unknown alarm" in capsys.readouterr().err

    def test_missing_run_directory_is_an_input_error(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope"), "--alarm", "0"]) == EXIT_INPUT


class TestExitCodes:
    def test_missing_schema_is_a_config_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(tmp_path / "missing.json"),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "cannot read schema" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [["a"], 5])
    def test_feature_name_that_is_not_a_string_is_a_config_error(
        self, workspace, tmp_path, capsys, name
    ):
        _, stream, _, _ = workspace
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [{"name": name, "kind": "numeric"}]}))
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(stream), "--schema", str(schema),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a string" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("name", ["timestamp", "score", "model_score"])
    def test_reserved_feature_name_is_a_config_error(self, tmp_path, capsys, name, suffix):
        # In JSON lines a feature named "score" would read the score's key.
        stream = tmp_path / f"stream{suffix}"
        if suffix == ".csv":
            stream.write_text(f"timestamp,score,{name}\n1,0.5,0.25\n")
        else:
            stream.write_text(json.dumps({"timestamp": 1, "score": 0.5, name: 0.25}) + "\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [{"name": name, "kind": "numeric"}]}))
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(stream), "--schema", str(schema),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "reserved" in err
        assert "Traceback" not in err

    def test_removed_debug_landmark_flag_is_unknown(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        code, _ = run_monitor(stream, tmp_path, "run", extra=["--debug-landmark"])
        assert code == 2
        assert "unrecognized arguments: --debug-landmark" in capsys.readouterr().err

    def test_invalid_schema_json_is_a_config_error(self, workspace, tmp_path):
        _, stream, _, _ = workspace
        schema = tmp_path / "schema.json"
        schema.write_text("{not json")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(stream), "--schema", str(schema),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_unknown_config_key_is_a_config_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\nmonitor.bogus = 1\n")
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config_value_is_a_config_error(self, workspace, tmp_path):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = plenty\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_config_must_set_window_sizes(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\n")
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "missing monitor.n_t" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.cv_folds = 1\n", "cv_folds"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.cv_folds = 0\n", "cv_folds"),
            ("monitor.n_r = 400\nmonitor.n_t = 1\n", "at least 2"),
            ("monitor.n_r = 1\nmonitor.n_t = 150\n", "at least 2"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.workers = 1\n",
             "unknown config key"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nmonitor.direction_policy = random\n",
             "unknown config key"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nmonitor.bin_count = 0\n", "bin_count"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nmonitor.bin_count = -1\n", "bin_count"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.validation_step = 0\n",
             "validation_step"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.validation_max_k = -5\n",
             "validation_max_k"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.validation_max_k = 150\n",
             "validation_max_k"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.top_events = -1\n", "top_events"),
            ("monitor.n_r = 400\nmonitor.n_t = 150\nreport.top_importances = -1\n",
             "top_importances"),
        ],
        ids=["cv_folds_1", "cv_folds_0", "n_t_1", "n_r_1", "report_workers",
             "direction_policy", "bin_count_0", "bin_count_negative", "validation_step_0",
             "validation_max_k_negative", "validation_max_k_n_t", "top_events_negative",
             "top_importances_negative"],
    )
    def test_setting_that_breaks_reports_is_a_config_error(
        self, workspace, tmp_path, capsys, settings, message
    ):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text(settings)
        out = tmp_path / "out"
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_direction_policy_is_a_config_error(self, workspace, tmp_path):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text(
            "monitor.n_r = 50\nmonitor.n_t = 20\nmonitor.direction_policy = sideways\n"
        )
        code = main(["monitor", "--input", str(stream),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_missing_input_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(tmp_path / "missing.csv"),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "cannot read input" in capsys.readouterr().err

    def test_empty_file_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(empty),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "empty stream" in capsys.readouterr().err

    def test_header_only_file_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        header_only = tmp_path / "header.csv"
        header_only.write_text(stream.read_text().splitlines()[0] + "\n")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        code = main(["monitor", "--input", str(header_only),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "empty stream: no events" in capsys.readouterr().err

    def test_corrupt_row_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        lines = stream.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:40] + ["7,this-is-not-a-score,1,web"]) + "\n")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 10\nmonitor.n_t = 5\n")
        code = main(["monitor", "--input", str(bad),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "line 41" in capsys.readouterr().err

    def test_stray_quote_in_a_row_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        lines = stream.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:40] + ['7,0.5,1.0,"x"y']) + "\n")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 10\nmonitor.n_t = 5\n")
        code = main(["monitor", "--input", str(bad),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 41: malformed CSV" in err and "Traceback" not in err

    def test_non_object_jsonl_line_is_an_input_error(self, workspace, tmp_path, capsys):
        _, stream, _, _ = workspace
        bad = tmp_path / "bad.jsonl"
        good = json.dumps({"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "web"})
        bad.write_text(f"{good}\n5\n")
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 10\nmonitor.n_t = 5\n")
        code = main(["monitor", "--input", str(bad),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 2:" in err and "Traceback" not in err

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_undecodable_stream_is_an_input_error(self, workspace, tmp_path, capsys, suffix):
        _, stream, _, _ = workspace
        if suffix == ".csv":
            good = stream.read_bytes().splitlines(keepends=True)[:2000]
            bad_row = b"2000,0.5,1.0,w\xffb\n"
        else:
            good = [json.dumps({"timestamp": i, "score": 0.5, "amount": 1.0,
                                "channel": "web"}).encode() + b"\n" for i in range(2000)]
            bad_row = b'{"timestamp": 2000, "score": 0.5, "channel": "w\xffb"}\n'
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"".join(good) + bad_row)
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 1500\nmonitor.n_t = 400\n")
        code = main(["monitor", "--input", str(bad),
                     "--schema", str(stream) + ".schema.json",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        # The text layer decodes ahead of the row being parsed, so no line
        # number would be the true one.
        assert "not valid UTF-8" in err and "line" not in err

    @pytest.mark.parametrize("which", ["config", "schema", "spec"])
    def test_undecodable_setup_file_is_a_config_error(self, workspace, tmp_path, capsys,
                                                      which):
        _, stream, _, _ = workspace
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes("# café\n".encode("latin-1"))
        config = tmp_path / "c.conf"
        config.write_text("monitor.n_r = 50\nmonitor.n_t = 20\n")
        if which == "spec":
            args = ["generate", "--spec", str(undecodable), "--out", str(tmp_path / "o.csv")]
        else:
            files = {"config": str(config), "schema": str(stream) + ".schema.json",
                     which: str(undecodable)}
            args = ["monitor", "--input", str(stream), "--schema", files["schema"],
                    "--config", files["config"], "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_CONFIG
        assert f"cannot read {which}" in capsys.readouterr().err

    @pytest.mark.parametrize("reports", [
        [{"markdown": "alarm_0000.md"}],
        {"0": {"json": "alarm_0000.json"}},
    ], ids=["reports-is-a-list", "entry-without-markdown"])
    def test_report_on_malformed_manifest_is_an_input_error(self, tmp_path, capsys, reports):
        manifest = {"outputs": {"reports": reports}}
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["report", "--run", str(tmp_path), "--alarm", "0"]) == EXIT_INPUT
        assert "cannot read run manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["manifest", "markdown"])
    def test_report_on_undecodable_file_is_an_input_error(self, tmp_path, capsys, which):
        markdown = tmp_path / "alarm_0000.md"
        markdown.write_bytes(b"# Alarm 0\n" if which == "manifest" else b"# Alarm \xff\n")
        manifest = {"outputs": {"reports": {"0": {"markdown": str(markdown)}}}}
        manifest_bytes = json.dumps(manifest).encode()
        if which == "manifest":
            manifest_bytes = b"\xff" + manifest_bytes
        (tmp_path / MANIFEST_FILE).write_bytes(manifest_bytes)
        assert main(["report", "--run", str(tmp_path), "--alarm", "0"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_generate_overlapping_drifts_is_a_config_error(self, tmp_path, capsys):
        spec = dict(BASE_SPEC)
        spec["drifts"] = [
            {"start": 100, "length": 200},
            {"start": 250, "length": 100},
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG
        assert "overlap" in capsys.readouterr().err

    def test_generate_bad_json_is_a_config_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{oops")
        code = main(["generate", "--spec", str(spec_path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG

    def test_generate_missing_spec_is_a_config_error(self, tmp_path):
        code = main(["generate", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG


class TestConstantMemory:
    def test_peak_memory_does_not_grow_with_the_stream(self, tmp_path):
        spec = {
            "events": 10000, "seed": 2,
            "score": {"weight": 0.9, "a1": 1.5, "b1": 12.0, "a2": 6.0, "b2": 3.0},
        }
        small = generate(spec, tmp_path, "small")
        big = generate({**spec, "events": 50000}, tmp_path, "big")
        config = (
            "monitor.n_r = 400\nmonitor.n_t = 150\nmonitor.bin_count = 10\n"
            "monitor.sketch_bins = 20\nmonitor.min_signal_samples = 450\n"
            "monitor.threshold_percentile = 99.5\n"
            "monitor.refractory_events = 1000000000\n"
        )

        def peak_of(stream, name):
            tracemalloc.start()
            code, _ = run_monitor(stream, tmp_path, name, config=config, seed=1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert code == EXIT_OK
            return peak

        small_peak = peak_of(small, "run_small")
        big_peak = peak_of(big, "run_big")
        assert big_peak < 2 * small_peak


def _cli_round_trip(tmp_path: Path, env: dict, flags: tuple = ()) -> bytes:
    """Run generate, monitor and report in a fresh interpreter; returns the report's stdout.

    The stream's categorical values are not ASCII.
    """
    spec = json.loads(json.dumps(BASE_SPEC))
    spec["features"][1]["values"] = ["Tōkyō", "Ōsaka", "web"]
    spec_path = tmp_path / "stream.spec.json"
    spec_path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    config_path = tmp_path / "run.conf"
    config_path.write_text(BASE_CONFIG, encoding="utf-8")
    stream, run_dir = tmp_path / "stream.csv", tmp_path / "run"
    source_root = str(Path(driftwatch.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [source_root,
                                                       os.environ.get("PYTHONPATH")]))}
    for args in (
        ["generate", "--spec", str(spec_path), "--out", str(stream)],
        ["monitor", "--input", str(stream), "--schema", f"{stream}.schema.json",
         "--config", str(config_path), "--out", str(run_dir), "--seed", "3"],
        ["report", "--run", str(run_dir), "--alarm", "0"],
    ):
        done = subprocess.run([sys.executable, *flags, "-m", "driftwatch.cli", *args],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr.decode("utf-8", "replace")
    return done.stdout


class TestTextEncoding:
    def test_non_ascii_values_survive_an_ascii_locale(self, tmp_path):
        # Report files are UTF-8 whatever the locale, and report prints their bytes.
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        printed = _cli_round_trip(tmp_path, ascii_locale)
        assert printed.startswith(b"# Alarm 0")
        assert "Tōkyō".encode("utf-8") in printed
        markdown = (tmp_path / "run" / "alarm_0000.md").read_bytes()
        assert printed == markdown

    def test_no_text_io_relies_on_the_default_encoding(self, tmp_path):
        printed = _cli_round_trip(
            tmp_path, {}, ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        )
        assert printed.startswith(b"# Alarm 0")
