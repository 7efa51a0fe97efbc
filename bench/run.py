"""The driftwatch benchmark: ``driftwatch monitor`` end to end, one workload.

    python3 bench/run.py --workload score_stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is run from ``src/``
as it stands, with nothing installed. The run

1. generates the workload's inputs from the seed (``gen.py``);
2. with ``--trace 0``, runs whole ``driftwatch monitor`` processes over
   the full stream, one at a time, for as many rounds as fit in
   ``--seconds`` (at least one), and reports the median of each end-to-end
   metric over the rounds; ``setup_s`` is the median of launches over a
   one-event cut of the stream, taken in groups before the first round and
   after each round;
3. with ``--trace 1``, runs one untraced round and then traced rounds
   (``probe.py --trace``) and reports the per-layer metrics, their median
   over the traced rounds;
4. checks every round's outputs (``checks.py``) and requires the digests
   of ``signal.csv`` and the report files to be identical across rounds.

Informational lines go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is an event offered to the monitor (failed if not ingested)
or an alarm triggered (failed if its report files were not written).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402

SETUP_LAUNCHES = 5  # per group: before the first round and after each round
PROGRAM_SEED = "0"
clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child to its end: (wall s, user+system CPU s of all its threads, exit code)."""
    with open(log, "wb") as sink:
        start = clock()
        child = subprocess.Popen(argv, env=_env(), stdout=sink, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = clock() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, child.returncode


def monitor_args(inputs: dict, stream: Path, out: Path) -> list[str]:
    return ["monitor", "--input", str(stream), "--schema", str(inputs["schema"]),
            "--config", str(inputs["config"]), "--out", str(out), "--seed", PROGRAM_SEED]


class SetupTimer:
    """Launch-to-exit times of ``driftwatch monitor`` over one event.

    The launches are taken in groups spread over the run, one group before
    the first round and one after each round, so that the median covers the
    machine's speed over the whole run rather than over one moment of it.
    One launch before the timed ones lets the interpreter write its
    bytecode cache, which an installed program would already have.
    """

    def __init__(self, inputs: dict, work: Path):
        one_event = work / "one_event.csv"
        with open(inputs["stream"], encoding="utf-8") as source:
            one_event.write_text(source.readline() + source.readline(), encoding="utf-8")
        self.argv = [sys.executable, "-m", "driftwatch.cli",
                     *monitor_args(inputs, one_event, work / "setup_out")]
        self.log = work / "setup.log"
        self.times: list[float] = []
        self._launch()

    def _launch(self) -> float:
        wall, _, code = launch(self.argv, self.log)
        if code != 0:
            raise BenchError(f"driftwatch monitor over one event exited {code}: "
                             + self.log.read_text(errors="replace")[-2000:])
        return wall

    def group(self) -> None:
        self.times += [self._launch() for _ in range(SETUP_LAUNCHES)]


def run_round(inputs: dict, work: Path, name: str, trace: bool) -> dict:
    out = work / name
    record_path = work / f"{name}.record.json"
    argv = [sys.executable, str(BENCH / "probe.py"), "--record", str(record_path),
            *(["--trace"] if trace else []), "--",
            *monitor_args(inputs, inputs["stream"], out)]
    wall, cpu, code = launch(argv, work / f"{name}.log")
    log = (work / f"{name}.log").read_text(errors="replace")
    if not record_path.is_file():
        raise BenchError(f"{name}: the probe wrote no record, exit {code}: {log[-2000:]}")
    record = json.loads(record_path.read_text())
    return {"name": name, "out": out, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": record["peak_rss_kib"] / 1024.0, "code": code,
            "record": record, "log": log}


def judge_round(result: dict, inputs: dict, truth: dict) -> dict:
    """Operation counts, output-check failures and digests of one round."""
    failures = []
    if result["code"] != 0:
        failures.append(f"driftwatch monitor exited {result['code']}: "
                        + result["log"][-2000:])
    manifest_path = result["out"] / "manifest.json"
    ingested = 0
    if manifest_path.is_file():
        ingested = json.loads(manifest_path.read_text())["counts"]["events"]
    record = result["record"]
    triggered = set(record["triggers"])
    written = triggered & set(record["written"])
    failures += checks.check_run(result["out"], inputs["stream"], truth)
    latencies = [record["written"][a] - record["triggers"][a] for a in sorted(written)]
    return {
        "attempted": truth["events"] + len(triggered),
        "failed": truth["events"] - ingested + len(triggered) - len(written),
        "failures": failures,
        "digests": checks.digests(result["out"]) if result["out"].is_dir() else {},
        "report_latency_s": statistics.median(latencies) if latencies else None,
    }


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(f"trace incomplete: {message}")


def layer_metrics(record: dict, truth: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round.

    Raises BenchError unless every wrapped call was seen for every event
    and every alarm, so a wrapper that stopped seeing its calls cannot
    yield a partial number.
    """
    totals = {k: (v["count"], v["seconds"]) for k, v in record["totals"].items()}
    events = truth["events"]
    warm = events - (truth["n_r"] + truth["n_t"] - 1)
    points = events - truth["first_emitted_index"]
    for name, expected in (("stream_model.read_stream", events), ("monitor.step", events),
                           ("windows.push", events), ("divergence.update", events),
                           ("divergence.value", warm), ("spear.consume", warm)):
        _need(totals.get(name, (0,))[0] == expected,
              f"{name} seen {totals.get(name, (0,))[0]} times, expected {expected}")
    _need(totals.get("spear.percentile", (0,))[0] >= points,
          "spear.percentile not seen for every point")

    alarms = sorted(int(a) for a in record["triggers"])
    _need(bool(alarms), "no alarm")
    spans = record["spans"]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        _need("end" in span, f"{span['name']} did not return")
        by_name.setdefault(span["name"], []).append(span)
    for name in ("explain.build_report", "explain.encode", "explain.validation_curve",
                 "gbdt.kfold_auc", "report.write_report_files"):
        seen = sorted(span["alarm"] for span in by_name.get(name, []))
        _need(seen == alarms, f"{name} seen for alarms {seen}, expected {alarms}")
    for name in ("gbdt.fit", "gbdt.predict_proba"):
        seen = {span["alarm"] for span in by_name.get(name, [])}
        _need(seen == set(alarms), f"{name} not seen for every alarm")
    _need(bool(by_name.get("explain.time_correlation_filter")), "no MIC filter call")

    def seconds(name):
        return sum(span["end"] - span["start"] for span in by_name.get(name, []))

    reports = len(alarms)
    fits = by_name["gbdt.fit"]
    builds = by_name["explain.build_report"]
    build_ids = {span["id"] for span in builds}
    build_children = sum(span["end"] - span["start"] for span in spans
                         if span["parent"] in build_ids)
    trigger_at = {int(a): t for a, t in record["triggers"].items()}
    queue_waits = [span["start"] - trigger_at[span["alarm"]] for span in builds]
    main_spans = sum(span["end"] - span["start"] for span in spans
                     if span["thread"] == "main" and span["parent"] is None)
    loop = record["loop"]["exhausted"] - record["loop"]["first_next"]
    parse_s, step_s = totals["stream_model.read_stream"][1], totals["monitor.step"][1]
    inner = sum(totals[k][1] for k in ("windows.push", "divergence.update",
                                        "divergence.value", "spear.consume",
                                        "spear.percentile"))

    def per(name, count):
        return totals[name][1] / count * 1e6

    return {
        "stream_model.parse_us_per_event": (parse_s / events * 1e6, "us"),
        "windows.push_us_per_event": (per("windows.push", events), "us"),
        "divergence.update_us_per_event": (per("divergence.update", events), "us"),
        "divergence.value_us_per_call": (per("divergence.value", totals["divergence.value"][0]), "us"),
        "spear.consume_us_per_call": (per("spear.consume", totals["spear.consume"][0]), "us"),
        "spear.percentile_us_per_call": (per("spear.percentile", totals["spear.percentile"][0]), "us"),
        "monitor.step_us_per_event": (step_s / events * 1e6, "us"),
        "monitor.step_self_us_per_event": ((step_s - inner) / events * 1e6, "us"),
        "explain.mic_filter_s": (seconds("explain.time_correlation_filter"), "s"),
        "explain.encode_s_per_report": (seconds("explain.encode") / reports, "s"),
        "explain.validation_curve_s_per_report": (seconds("explain.validation_curve") / reports, "s"),
        "explain.build_report_s_per_report": (seconds("explain.build_report") / reports, "s"),
        "explain.build_report_self_s_per_report": (
            (seconds("explain.build_report") - build_children) / reports, "s"),
        "gbdt.fit_s_per_call": (seconds("gbdt.fit") / len(fits), "s"),
        "gbdt.kfold_s_per_report": (seconds("gbdt.kfold_auc") / reports, "s"),
        "gbdt.predict_s_per_report": (seconds("gbdt.predict_proba") / reports, "s"),
        "gbdt.fits_per_report": (len(fits) / reports, "count"),
        "gbdt.split_nodes_per_fit": (sum(s["split_nodes"] for s in fits) / len(fits), "count"),
        "report.write_s_per_report": (seconds("report.write_report_files") / reports, "s"),
        "report.bytes_per_report": (
            sum(s["bytes"] for s in by_name["report.write_report_files"]) / reports, "bytes"),
        "cli.report_queue_wait_s": (statistics.median(queue_waits), "s"),
        "cli.main_thread_self_s": (loop - parse_s - step_s - main_spans, "s"),
    }


def run_rounds(inputs, work, prefix, trace, seconds, between=None):
    """Whole rounds, one at a time, while the next is expected to fit in ``seconds``.

    ``between``, if given, is called before the first round and after each
    round; the time it takes does not count against ``seconds``.
    """
    rounds = []
    spent = 0.0
    while True:
        if between:
            between()
        started = clock()
        rounds.append(run_round(inputs, work, f"{prefix}{len(rounds)}", trace))
        spent += clock() - started
        if spent + max(r["wall_s"] for r in rounds) > seconds:
            if between:
                between()
            return rounds


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One benchmark run in a fresh work directory; None if it could not finish."""
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = bench(name, seed, seconds, trace, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"work directory kept: {work}", file=sys.stderr)
        return None
    shutil.rmtree(work)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(gen.WORKLOADS), "all"],
                        help="one workload, or all: every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole rounds only, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "driftwatch" / "cli.py").is_file():
        print(f"error: no driftwatch sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] and not result["failed"] else 1

    results = {}
    for name in gen.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace)
            if result is None:
                return 1
            results[f"{name} trace={trace}"] = result
    for key, result in results.items():
        print(f"{key}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def bench(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    inputs = gen.write_inputs(gen.WORKLOADS[name], seed, work / "input")
    truth = json.loads(inputs["truth"].read_text())
    metrics: dict[str, dict] = {}
    if trace:
        rounds = [run_round(inputs, work, "untraced", False)]
        rounds += run_rounds(inputs, work, "traced", True, seconds)
    else:
        setup = SetupTimer(inputs, work)
        rounds = run_rounds(inputs, work, "round", False, seconds, between=setup.group)
        metrics["setup_s"] = {"value": statistics.median(setup.times), "unit": "s"}
        print("setup launches: " + " ".join(f"{t:.3f}" for t in setup.times) + " s")

    judged = [judge_round(r, inputs, truth) for r in rounds]
    failures = [f"{r['name']}: {f}" for r, j in zip(rounds, judged) for f in j["failures"]]
    reference = judged[0]["digests"]
    for r, j in zip(rounds, judged):
        if j["digests"] != reference:
            failures.append(f"{r['name']}: outputs differ from {rounds[0]['name']}'s")
        print(f"{r['name']}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MiB, report latency "
              f"{j['report_latency_s']} s, alarms {len(r['record']['triggers'])}")
    for name, digest in sorted(reference.items()):
        print(f"digest {name} {digest}")
    if not failures:
        share = checks.pre_drift_share(rounds[0]["out"], truth)
        if share is not None:
            print(f"pre-drift alarm-point share: {share:.4f}")
    for failure in failures:
        print(f"CHECK FAILED {failure}")

    if trace:
        traced = [r for r in rounds if r["name"].startswith("traced")]
        layers = [layer_metrics(r["record"], truth) for r in traced if r["code"] == 0]
        if not layers:
            raise BenchError("no traced round completed")
        for name in layers[0]:
            value = statistics.median(layer[name][0] for layer in layers)
            metrics[name] = {"value": value, "unit": layers[0][name][1]}
        overhead = statistics.median(r["wall_s"] for r in traced) - rounds[0]["wall_s"]
        print(f"tracing overhead: {overhead:+.3f} s wall "
              f"({overhead / rounds[0]['wall_s']:+.1%} of the untraced round)")
    else:
        latencies = [j["report_latency_s"] for j in judged if j["report_latency_s"] is not None]
        if not latencies:
            raise BenchError("no alarm report was written")
        metrics["wall_s"] = {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"}
        metrics["cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MiB"}
        metrics["report_latency_s"] = {
            "value": statistics.median(latencies), "unit": "s"}
    return {
        "correct": not failures,
        "attempted": sum(j["attempted"] for j in judged),
        "failed": sum(j["failed"] for j in judged),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
