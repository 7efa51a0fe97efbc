"""Run ``driftwatch`` in this process with timing wrappers around its layers.

    python3 bench/probe.py --record OUT.json [--trace] -- monitor --input ...

The wrappers replace public names in the modules that define them and are
installed before ``driftwatch.cli`` is imported, so the CLI binds the
wrapped functions. Everything is kept in memory and written to the record
file when the CLI returns; the exit code is the CLI's.

Without ``--trace`` only two per-alarm probes are installed, for the report
latency: the time ``Monitor.step`` returns a trigger and the time
``report.write_report_files`` returns for that alarm. The step probe adds
one Python call per event.

With ``--trace`` every layer is wrapped. Per-event calls (the stream
iterator, ``Monitor.step``, ``WindowPair.push``, ``IncrementalSignal.update``
and ``value``, ``PercentileSketch.consume`` and ``percentile``) are summed
into a count and a total per name. Each per-alarm call (MIC filter, report
assembly, encode, validation curve, GBDT fit, k-fold CV, predict, file
write) gets a span with its parent span, thread and alarm id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

clock = time.perf_counter


class Recorder:
    """Per-event totals and per-alarm spans of one CLI run."""

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.spans: list[dict] = []
        self.triggers: dict[int, float] = {}
        self.written: dict[int, float] = {}
        self.loop: dict[str, float] = {}
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, alarm_of, extra_of=None):
        """Wrap a per-alarm function in a span recorder.

        ``alarm_of(args)`` gives the alarm id from the call's arguments, or
        None to inherit it from the enclosing span (or, on the main thread,
        from the last trigger). ``extra_of(result)`` adds fields to the span.
        """
        recorder = self

        def wrap(function):
            def wrapper(*args, **kwargs):
                stack = recorder._stack()
                alarm = alarm_of(args)
                if alarm is None:
                    if stack:
                        alarm = stack[-1]["alarm"]
                    elif recorder.triggers:
                        alarm = max(recorder.triggers)
                record = {
                    "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "alarm": alarm,
                    "thread": "main" if threading.get_ident() == recorder.main_thread
                    else "worker",
                }
                with recorder._lock:
                    record["id"] = len(recorder.spans)
                    recorder.spans.append(record)
                stack.append(record)
                record["start"] = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    record["end"] = clock()
                    stack.pop()
                if extra_of is not None:
                    record.update(extra_of(result))
                return result

            return wrapper

        return wrap

    def per_event(self, name: str):
        """Wrap a per-event function in a count-and-total accumulator."""
        stat = self.total(name)

        def wrap(function):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    stat[1] += clock() - start
                    stat[0] += 1

            return wrapper

        return wrap

    def to_json(self) -> dict:
        return {
            "totals": {k: {"count": c, "seconds": s} for k, (c, s) in self.totals.items()},
            "spans": self.spans,
            "triggers": {str(k): v for k, v in self.triggers.items()},
            "written": {str(k): v for k, v in self.written.items()},
            "loop": self.loop,
        }


def _count_split_nodes(model) -> int:
    count = 0
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        if node.feature is not None:
            count += 1
            stack.append(node.left)
            stack.append(node.right)
    return count


def _written_bytes(paths: dict) -> int:
    return sum(os.path.getsize(path) for path in paths.values())


def install(recorder: Recorder, trace: bool) -> None:
    """Wrap driftwatch's public names; call before importing driftwatch.cli."""
    from driftwatch import divergence, explain, gbdt, monitor, report, spear
    from driftwatch import stream_model, windows

    if "driftwatch.cli" in sys.modules:
        raise RuntimeError("driftwatch.cli imported before the wrappers")

    step = monitor.Monitor.step
    if trace:
        step = recorder.per_event("monitor.step")(step)

    def traced_step(self, event):
        result = step(self, event)
        trigger = result[1]
        if trigger is not None:
            recorder.triggers[trigger.alarm_index] = clock()
        return result

    monitor.Monitor.step = traced_step

    write = report.write_report_files
    if trace:
        write = recorder.span(
            "report.write_report_files", lambda a: a[0].alarm_index,
            lambda paths: {"bytes": _written_bytes(paths)},
        )(write)

    def traced_write(report_doc, directory, stem):
        paths = write(report_doc, directory, stem)
        recorder.written[report_doc.alarm_index] = clock()
        return paths

    report.write_report_files = traced_write
    if not trace:
        return

    read_stream = stream_model.read_stream
    parse = recorder.total("stream_model.read_stream")

    def traced_read_stream(*args, **kwargs):
        iterator = iter(read_stream(*args, **kwargs))

        def timed():
            recorder.loop["first_next"] = clock()
            while True:
                start = clock()
                try:
                    event = next(iterator)
                except StopIteration:
                    parse[1] += clock() - start
                    recorder.loop["exhausted"] = clock()
                    return
                parse[1] += clock() - start
                parse[0] += 1
                yield event

        return timed()

    stream_model.read_stream = traced_read_stream
    for owner, attribute, name in (
        (windows.WindowPair, "push", "windows.push"),
        (divergence.IncrementalSignal, "update", "divergence.update"),
        (divergence.IncrementalSignal, "value", "divergence.value"),
        (spear.PercentileSketch, "consume", "spear.consume"),
        (spear.PercentileSketch, "percentile", "spear.percentile"),
    ):
        setattr(owner, attribute, recorder.per_event(name)(getattr(owner, attribute)))

    inherit = lambda args: None  # noqa: E731
    for owner, attribute, name, alarm_of, extra_of in (
        (explain, "time_correlation_filter", "explain.time_correlation_filter",
         inherit, None),
        (explain, "build_report", "explain.build_report",
         lambda a: a[0].alarm_index, None),
        (explain, "encode", "explain.encode", inherit, None),
        (explain, "validation_curve", "explain.validation_curve", inherit, None),
        (gbdt, "fit", "gbdt.fit", inherit,
         lambda model: {"split_nodes": _count_split_nodes(model)}),
        (gbdt, "kfold_auc", "gbdt.kfold_auc", inherit, None),
        (gbdt, "predict_proba", "gbdt.predict_proba", inherit, None),
    ):
        wrapped = recorder.span(name, alarm_of, extra_of)(getattr(owner, attribute))
        setattr(owner, attribute, wrapped)


def peak_rss_kib() -> int:
    """Peak resident set of this process image (VmHWM).

    Not ``ru_maxrss``: the kernel carries the launching process's peak
    over into a child's ``ru_maxrss`` at exec, so a launcher that once held
    more memory than the program would be measured instead of it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="JSON file for the timings")
    parser.add_argument("--trace", action="store_true", help="wrap every layer")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    install(recorder, args.trace)
    from driftwatch import cli

    try:
        return cli.main(cli_args)
    finally:
        record = recorder.to_json()
        record["peak_rss_kib"] = peak_rss_kib()
        with open(args.record, "w", encoding="utf-8") as sink:
            json.dump(record, sink)


if __name__ == "__main__":
    sys.exit(main())
