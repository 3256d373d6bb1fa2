"""The weilgram benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics: it starts repetitions of the
workload, each in a fresh interpreter (``worker.py``), until the next one
would end after ``S`` seconds (at least one), takes the median wall and
set-up time over them (set-up is sampled at least three times), and checks
every output.  ``--trace 1`` runs one untraced and one traced repetition
and reports the per-layer metrics and the tracing overhead.  Lines of the
form ``name=value unit`` come first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_SETUPS = 3
RUN_DEADLINE_S = 170
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts worker processes, each in its own session so that a timeout
    stops the worker together with the CLI and pool processes it started."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def launch(self, *extra) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd)} did not finish before the run deadline")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{err[-4000:]}")
        rep = json.loads(out.strip().splitlines()[-1])
        rep["setup_s"] = rep["t_ready"] - t0
        rep["rep_s"] = time.monotonic() - t0
        return rep


def tally(reps):
    """(attempted, failed, reasons) over all items of all repetitions.  The
    repetitions of one run have the same inputs, so an item whose exact
    output differs from the first repetition's also fails."""
    attempted = failed = 0
    reasons = []
    first = reps[0]["items"]
    for rep in reps:
        if len(rep["items"]) != len(first):
            raise BenchError("repetitions of one run produced different item counts")
        for item, ref in zip(rep["items"], first):
            attempted += 1
            why = item["why"]
            if why is None and item["digest"] != ref["digest"]:
                why = "exact output differs between repetitions"
            if why is not None:
                failed += 1
                reasons.append(why)
    return attempted, failed, reasons


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def measure(runner: Runner, seconds: float):
    reps = []
    start = time.monotonic()
    while True:
        reps.append(runner.launch())
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.launch("--setup-only")["setup_s"])

    attempted, failed, reasons = tally(reps)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
    }
    lines = [
        f"workload={runner.workload} seed={runner.seed} repetitions={len(reps)} "
        f"items={attempted} setups={len(setups)}",
        f"wall_s={metrics['wall_s'][0]:.4f} s (median of {len(reps)} repetitions)",
        f"setup_s={metrics['setup_s'][0]:.4f} s (median of {len(setups)} set-ups)",
        f"peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB (largest single process, "
        "pool workers included)",
    ]
    latencies = [i["s"] for r in reps for i in r["items"] if i["s"] is not None]
    if latencies:
        lines.append(f"item_p50_s={statistics.median(latencies):.4f} s (n={len(latencies)})")
        t = tail(latencies)
        lines.append(f"item_tail_s={t[0]:.4f} s (p{t[1]:.1f}, n={len(latencies)})" if t
                     else f"item_tail_s=n/a (n={len(latencies)} is too few)")
    else:
        lines.append("item_p50_s=n/a item_tail_s=n/a "
                     "(items run inside the CLI and its process pool)")
    lines.append(f"error_rate={failed / attempted:.4g} ({failed} failed / {attempted} attempted)")
    return metrics, lines, attempted, failed, reasons


def layer_metrics(trace, untraced_wall, traced_wall, fanout=0.0, cli_overhead=0.0):
    """Every per-layer metric of BENCHMARK.json, in its order: span calls and
    self times, counters, and the ratios and overheads derived from them.
    A layer the workload does not reach reads 0."""
    stats, counters = trace["stats"], trace["counters"]

    def stat(name):
        return stats.get(name, [0, 0.0, 0.0])

    mul_elements = counters.get("tables.mul.elements", 0)
    mul_self = stat("tables.mul")[2]
    count_calls = stat("curves.count_points")[0]
    unique = trace["unique_counts"]
    values = {
        "tables.mul.elements_per_s": mul_elements / mul_self if mul_self else 0.0,
        "tables.build_s": stat("tables.build")[1],
        "curves.count_points.unique": unique,
        "curves.count_points.repeat_ratio":
            (count_calls - unique) / count_calls if count_calls else 0.0,
        "corpus.fanout_efficiency": fanout,
        "cli.overhead_s": cli_overhead,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    metrics = {}
    for layer in json.loads(BENCHMARK.read_text())["per_layer"]:
        name, unit = layer["name"], layer["unit"]
        span, _, field = name.rpartition(".")
        if name in values:
            value = values[name]
        elif name not in counters and field == "calls":
            value = stat(span)[0]
        elif name not in counters and field == "self_s":
            value = stat(span)[2]
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit)
    return metrics


def traced(runner: Runner):
    if runner.workload == "diagram_corpus":
        cli = runner.launch("--via", "cli", "--jobs", "2")
        pooled = runner.launch("--via", "inproc", "--jobs", "2")
        serial = runner.launch("--via", "inproc", "--jobs", "1")
        spans = runner.launch("--via", "inproc", "--jobs", "1", "--trace")
        reps = [cli, pooled, serial, spans]
        per_record = spans["trace"]["stats"].get("corpus.evaluate_diagram_record", [0, 0.0])[1]
        extra = {"fanout": per_record / (2 * cli["wall_s"]),
                 "cli_overhead": cli["wall_s"] - pooled["wall_s"]}
        untraced = serial
    else:
        untraced = runner.launch()
        spans = runner.launch("--trace")
        reps, extra = [untraced, spans], {}
    attempted, failed, reasons = tally(reps)
    metrics = layer_metrics(spans["trace"], untraced["wall_s"], spans["wall_s"], **extra)
    lines = [f"workload={runner.workload} seed={runner.seed} traced pass: "
             f"{len(reps)} repetitions, untraced wall {untraced['wall_s']:.4f} s, "
             f"traced wall {spans['wall_s']:.4f} s"]
    lines += [f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"error_rate={failed / attempted:.4g} ({failed} failed / {attempted} attempted)")
    return metrics, lines, attempted, failed, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weilgram" / "__init__.py").is_file():
        print(f"error: no weilgram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, lines, attempted, failed, reasons = traced(runner)
        else:
            metrics, lines, attempted, failed, reasons = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for why in sorted(set(reasons))[:20]:
        print(f"failure: {why}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
