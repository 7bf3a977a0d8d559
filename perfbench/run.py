#!/usr/bin/env python3
"""Overlay benchmark: build the driver, run one workload, check, report.

    python3 perfbench/run.py --workload <game_lees|burst_fanout|hft_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. Each run is a fresh process of the driver binary.

--trace 0 prints every end-to-end metric; --seconds sets how many rounds
the driver runs. --trace 1 prints every per-layer metric from one round:
it first runs the workload untraced (no oracle replay) to time the phase
without tracing, then traced; trace.overhead is the ratio of the two phase
wall times.

Progress, the metric table and the trace table go to stderr. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

The driver checks the argument values and the environment; when it refuses,
this script exits with the driver's status and prints no result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "overlay_perf"
# Wall-clock budget for the driver processes of one run, after the build.
RUN_BUDGET_S = 170

END_TO_END = (
    "setup_s", "install_rate", "pub_rate", "tick_p50_us", "tick_p99_us",
    "msgs_per_delivery", "sub_msgs", "peak_rss_mb",
)
PER_LAYER = (
    "sim.events", "sim.dispatch_s", "sim.timer_s", "sim.backlog_max",
    "broker.publish_msgs", "broker.publish_self_s", "broker.control_msgs",
    "broker.control_self_s", "broker.client_deliveries", "broker.client_deliver_s",
    "broker.link_events_per_msg", "broker.flush_size", "broker.flush_deadline",
    "broker.flush_barrier",
    "evolving.lazy_eval_s", "evolving.lazy_evaluations", "evolving.cache_hit_ratio",
    "evolving.maintenance_s", "evolving.evolutions", "evolving.dedup_suppressed",
    "matching.match_s", "matching.match_calls", "matching.population",
    "analysis.cover_checks", "analysis.cover_proof_ratio", "analysis.relational_proofs",
    "analysis.suppressed_forwards", "analysis.resubscribes",
    "message.wire_bytes_per_delivery",
    "trace.tap_s", "trace.phase_s", "trace.leftover_s", "trace.overhead",
)
# Self-time rows of the trace table; with trace.leftover_s they sum to
# trace.phase_s.
SELF_TIME_ROWS = (
    "sim.dispatch_s", "sim.timer_s", "broker.publish_self_s", "broker.control_self_s",
    "broker.client_deliver_s", "evolving.lazy_eval_s", "evolving.maintenance_s",
    "matching.match_s", "trace.tap_s", "trace.leftover_s",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log(f"run.py: {message}")
    sys.exit(1)


def build():
    """Configure once, then bring the driver up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "overlay_perf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    if not BINARY.exists():
        fail(f"{BINARY} missing after build")


def run_driver(args, extra, deadline):
    """Run the driver once; exit with its status if it fails."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded the {RUN_BUDGET_S} s budget")
    if proc.returncode != 0:
        log(f"run.py: driver exited with {proc.returncode}")
        sys.exit(proc.returncode)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def print_table(metrics, names):
    for name in names:
        m = metrics[name]
        log(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def print_trace_table(metrics):
    phase = metrics["trace.phase_s"]["value"]
    log(f"  self time over the traced phase ({phase:.4f} s):")
    for name in SELF_TIME_ROWS:
        value = metrics[name]["value"]
        share = 100.0 * value / phase if phase > 0 else 0.0
        log(f"    {name:30s} {value:10.4f} s {share:6.1f}%")
    log(f"    trace.overhead {metrics['trace.overhead']['value']:.3f}x untraced phase wall time")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    args.trace = int(args.trace)

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        untraced = run_driver(args, ["--trace", "0", "--no-reference", "--rounds", "1"], deadline)
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.tsv"
        result = run_driver(args, ["--trace", "1", "--rounds", "1", "--trace-out", str(trace_file)],
                            deadline)
        phase = untraced["phase_s"]
        result["metrics"]["trace.overhead"] = {
            "value": result["metrics"]["trace.phase_s"]["value"] / phase if phase > 0 else 0.0,
            "unit": "ratio",
        }
        names = PER_LAYER
    else:
        result = run_driver(args, ["--trace", "0"], deadline)
        names = END_TO_END

    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"driver did not report {', '.join(missing)}")
    log(f"run.py: {args.workload} seed {args.seed}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"(publications {result['failed_publications']}, "
        f"subscriptions {result['failed_subscriptions']})")
    print_table(metrics, names)
    if args.trace:
        print_trace_table(metrics)
        log(f"  tick spans: {trace_file}")

    context = dict(result["context"], seed=result["seed"], workload=result["workload"],
                   seconds=result["seconds"], trace=args.trace,
                   measured_ticks=result["measured_ticks"], rounds=result["rounds"])
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))


if __name__ == "__main__":
    main()
