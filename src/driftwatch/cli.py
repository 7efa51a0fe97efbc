"""Command-line surface: replay monitoring, stream generation, report viewing.

Exit codes: 0 success, 1 input error (unreadable, empty or non-UTF-8
stream, unknown alarm id), 2 configuration error (missing or non-UTF-8
schema, bad config value, overlapping drift segments). Every file is read
and written as UTF-8. Configuration files are flat ``key = value`` text
with dotted section prefixes: each field of ``MonitorConfig`` is a key
under ``monitor.`` and each field of ``ReportConfig`` one under
``report.``, read as a float if the field is typed ``float`` and as an
integer otherwise.

The replay loop owns the monitor state and runs on one thread. Each alarm
report is built and written synchronously at its trigger, before the next
event is read, so reports come out in trigger order. There is no report
pool: under the interpreter lock a thread pool made runs slower. Instead
each report's k cross-validation folds are dealt between this process and
one helper per extra usable CPU, forked with ``os.fork`` and sending its
results back as pickles over a pipe (see ``gbdt._deal_folds``); a fold a
helper does not deliver is fitted here, so outputs do not depend on the
CPU count. A helper leaves by ``os._exit``, so it never flushes this
process's open ``signal.csv``. Reports are built by
:func:`~driftwatch.explain.build_report` with the run seed, as a library
caller would; the first one runs the MIC time filter and the rest reuse its
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .explain import ReportConfig, build_report
from .monitor import Monitor, MonitorConfig
from .report import write_report_files
from .stream_model import FeatureSchema, SchemaError, StreamError, read_stream
from .synthetic import spec_from_json, write_outputs
from .windows import ConfigError, field_parsers

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2

SIGNAL_FILE = "signal.csv"
MANIFEST_FILE = "manifest.json"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _read_text(path, what: str, exit_code: int) -> str:
    """The UTF-8 text of a file; a missing or undecodable file is a CliError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}", exit_code) from exc


def _parse_config_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(
                f"config line {line_number}: expected key = value, got {line!r}",
                EXIT_CONFIG,
            )
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_SECTIONS = {"monitor": MonitorConfig, "report": ReportConfig}


def load_run_config(path: str) -> tuple[MonitorConfig, ReportConfig, dict]:
    """Parse the flat config file; returns configs plus the resolved echo dict."""
    raw = _parse_config_lines(_read_text(path, "config", EXIT_CONFIG))

    parsers = {section: field_parsers(config_type)
               for section, config_type in _SECTIONS.items()}
    kwargs: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, value in raw.items():
        section, _, name = key.partition(".")
        parser = parsers.get(section, {}).get(name)
        if parser is None:
            raise CliError(f"unknown config key {key!r}", EXIT_CONFIG)
        try:
            kwargs[section][name] = parser(value)
        except ValueError as exc:
            raise CliError(f"bad value for {key!r}: {exc}", EXIT_CONFIG) from exc
    for required in ("n_r", "n_t"):
        if required not in kwargs["monitor"]:
            raise CliError(f"config missing monitor.{required}", EXIT_CONFIG)

    try:
        monitor_config = MonitorConfig(**kwargs["monitor"])
        report_config = ReportConfig(**kwargs["report"])
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    max_k = report_config.validation_max_k
    if max_k is not None and max_k >= monitor_config.n_t:
        # The validation curve peels up to max_k events from T.
        raise CliError("report.validation_max_k must be less than monitor.n_t", EXIT_CONFIG)

    echo = {
        section: {name: getattr(config, name) for name in parsers[section]}
        for section, config in (("monitor", monitor_config), ("report", report_config))
    }
    return monitor_config, report_config, echo


def _load_schema(path: str) -> FeatureSchema:
    text = _read_text(path, "schema", EXIT_CONFIG)
    try:
        return FeatureSchema.from_json(text)
    except SchemaError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_monitor(args) -> int:
    schema = _load_schema(args.schema)
    monitor_config, report_config, echo = load_run_config(args.config)
    input_path = Path(args.input)
    if not input_path.is_file():
        raise CliError(f"cannot read input: {input_path}", EXIT_INPUT)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    monitor = Monitor(monitor_config, seed=args.seed)
    digest = _sha256_of(input_path)
    signal_path = out_dir / SIGNAL_FILE

    shared_filter = None
    report_paths: dict[int, dict[str, str]] = {}
    alarm_summaries: list[dict] = []
    points_emitted = 0

    stream_format = "jsonl" if input_path.suffix == ".jsonl" else "csv"

    with open(input_path, "r", encoding="utf-8", newline="") as source, \
            open(signal_path, "w", encoding="utf-8", newline="") as sink:
        sink.write("event_index,timestamp,signal,threshold,is_alarm\n")
        try:
            for event in read_stream(source, schema, stream_format):
                point, trigger = monitor.step(event)
                if point is not None:
                    points_emitted += 1
                    sink.write(
                        f"{point.event_index},{point.timestamp},"
                        f"{point.signal!r},{point.threshold!r},"
                        f"{1 if point.is_alarm else 0}\n"
                    )
                if trigger is not None:
                    # The first report runs the MIC filter; the rest reuse it.
                    report = build_report(trigger, schema, report_config,
                                          seed=args.seed, filter_result=shared_filter)
                    shared_filter = report.filter_result
                    paths = write_report_files(
                        report, out_dir, f"alarm_{trigger.alarm_index:04d}"
                    )
                    report_paths[trigger.alarm_index] = {
                        name: str(path) for name, path in paths.items()
                    }
                    alarm_summaries.append(
                        {
                            "alarm": trigger.alarm_index,
                            "event_index": trigger.event_index,
                            "timestamp": trigger.timestamp,
                            "signal": trigger.signal,
                            "threshold": trigger.threshold,
                            "threshold_audit": monitor.threshold_audit(trigger.threshold),
                        }
                    )
        except StreamError as exc:
            raise CliError(str(exc), EXIT_INPUT) from exc

    if monitor.events_seen == 0:
        raise CliError("empty stream: no events", EXIT_INPUT)

    valley_indices = monitor.valleys()
    manifest = {
        "config": echo,
        "input_digest": digest,
        "seed": args.seed,
        "outputs": {
            "signal_csv": str(signal_path),
            "reports": {
                str(alarm): paths for alarm, paths in sorted(report_paths.items())
            },
        },
        "counts": {
            "events": monitor.events_seen,
            "signal_points": points_emitted,
            "alarms": len(alarm_summaries),
            "valleys": len(valley_indices),
        },
        "valleys": valley_indices,
        "alarms": alarm_summaries,
        "threshold_audit": monitor.threshold_audit(),
    }
    (out_dir / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n",
                                         encoding="utf-8")
    return EXIT_OK


def cmd_generate(args) -> int:
    text = _read_text(args.spec, "spec", EXIT_CONFIG)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad spec JSON: {exc}", EXIT_CONFIG) from exc
    try:
        spec = spec_from_json(doc)
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    try:
        paths = write_outputs(spec, args.out)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_INPUT) from exc
    print(json.dumps(paths, indent=2))
    return EXIT_OK


def cmd_report(args) -> int:
    text = _read_text(Path(args.run) / MANIFEST_FILE, "run manifest", EXIT_INPUT)
    try:
        reports = json.loads(text)["outputs"]["reports"]
        if not isinstance(reports, dict):
            raise TypeError("outputs.reports is not an object")
        paths = reports.get(str(args.alarm))
        if paths is None:
            raise CliError(f"unknown alarm id: {args.alarm}", EXIT_INPUT)
        markdown_path = paths["markdown"]
        if not isinstance(markdown_path, str):
            raise TypeError("report path is not a string")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read run manifest: {exc}", EXIT_INPUT) from exc
    markdown = _read_text(markdown_path, "report", EXIT_INPUT)
    # The file's own UTF-8 bytes, whatever the console's encoding, as cat
    # would print them.
    sys.stdout.flush()
    sys.stdout.buffer.write(markdown.encode("utf-8"))
    sys.stdout.buffer.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftwatch",
        description="Label-free model monitoring over score streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    monitor = commands.add_parser("monitor", help="replay a stream and emit alarms")
    monitor.add_argument("--input", required=True, help="event stream (.csv or .jsonl)")
    monitor.add_argument("--schema", required=True, help="feature schema JSON")
    monitor.add_argument("--config", required=True, help="flat key=value config file")
    monitor.add_argument("--out", required=True, help="output directory")
    monitor.add_argument(
        "--seed", type=int, default=0,
        help="seeds the report stages (MIC filter shuffles, validation curve, CV "
        "folds) and the threshold audit's sample; the signal, threshold and "
        "alarms do not depend on it",
    )
    monitor.set_defaults(handler=cmd_monitor)

    generate = commands.add_parser("generate", help="write a synthetic labeled stream")
    generate.add_argument("--spec", required=True, help="synthetic spec JSON")
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.set_defaults(handler=cmd_generate)

    report = commands.add_parser("report", help="print an alarm report as Markdown")
    report.add_argument("--run", required=True, help="output directory of a monitor run")
    report.add_argument("--alarm", required=True, help="alarm id from the manifest")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
