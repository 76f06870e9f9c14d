"""qtmlab benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload {walk,halt-drift,check} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; qtmlab is imported from the
checkout's ``src`` and the corpus from its ``machines``.  Each workload runs
closed loop in its own fresh interpreter (perfbench/worker.py): one client
issues the seeded CLI jobs of workloads.py one after another through
``qtmlab.cli.main(argv)``, and every answer is checked (answers.py).

--trace 0 reports the end-to-end metrics:
  setup_s      fresh interpreter + import qtmlab + job generation, up to
               the first job; median of 2 * SETUP_STARTS + 1 fresh
               starts, SETUP_STARTS of them before the measured run and
               SETUP_STARTS after it, taking the CPUs in turn
  jobs_per_s   jobs completed per second, each job at its best latency
  job_p50_s    median job latency
  job_tail_s   the highest percentile with TAIL_BEYOND jobs beyond it:
               p75 of the 40 distinct jobs of a cycle
  peak_rss_mb  peak resident set of the workload process

Every cycle runs the same distinct jobs, so a run repeats each job once
per cycle, three times or more.  A job's latency is the best of its
repeats, as timeit takes the best of its repeats: other tenants of a
shared machine slow it by up to 80 %, in stretches of seconds to
minutes, and never speed it up, so the best repeat is the one that
measures the program.  Cycles take the CPUs in turn (worker.pin_cpu),
since one CPU can stay slower than another for many seconds.  The
percentiles are nearest-rank percentiles over the distinct jobs, each at
its best; a change that only adds variance between repeats of a job does
not move them.  The unscaled wall-time rate is printed for reference.

Jobs that raise, exit with an unexpected code or give a wrong answer are
counted in ``failed``; failed / attempted is printed as failed_frac.

--trace 1 runs two traced workers, with hash seeds 0 and 1, for half of
--seconds each, and reports the per-layer metrics that BENCHMARK.json
lists, as measured by tracer.py: times are medians over the traced cycles
of both, and trace_overhead_frac compares traced cycles with untraced
cycles of the same jobs in the same order.  It fails when a count differs
between any two traced cycles, when a metric its workload must measure
(worker.REQUIRED) was not measured, or when a layer does not dominate (or
stay idle on) the workload it should.  Spans of the first worker's first
traced cycle and the counters of every traced cycle go to
perfbench/.out/trace-<workload>-seed<n>.json.  A metric whose boundary
was never called is null in the trace file and printed as "not
measured"; in the JSON line, whose values must be numbers, it reads -1.
Only metrics outside the workload's REQUIRED list can read -1, so a
metric cannot turn into -1 without the run failing.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when every job and check passed, 1 when a
check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import COUNTS
from worker import aggregate, pin_cpu
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 10  # fresh starts on each side of the measured run
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
NOT_MEASURED = -1


class BenchError(Exception):
    pass


def start_worker(args, mode: str, seconds: float = 0.0, hash_seed: str = "0", turn=None):
    """Start a worker and wait for READY; returns (process, set-up time).

    With ``turn`` the worker starts on the CPU whose turn it is (worker.pin_cpu).
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across workers
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    t0 = perf_counter()
    pin = None if turn is None else (lambda: pin_cpu(turn))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout=WORKER_TIMEOUT_S) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_worker(args, mode: str, seconds: float, hash_seed: str = "0") -> tuple[dict, float]:
    proc, setup = start_worker(args, mode, seconds, hash_seed)
    return json.loads(finish(proc).splitlines()[-1]), setup


def setup_times(args, starts: int) -> list:
    """Set-up times of fresh starts, taking the CPUs in turn (see worker.pin_cpu)."""
    times = []
    for index in range(starts):
        proc, setup = start_worker(args, "setup-only", turn=index)
        finish(proc, timeout=60)
        times.append(setup)
    return times


def percentile(values, pct):
    """Nearest-rank percentile: (smallest value with pct% at or below it, values beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves TAIL_BEYOND of ``n`` values beyond it."""
    return 100 * (n - TAIL_BEYOND) // n


def end_to_end(report: dict, setups: list) -> tuple[dict, list]:
    cycles = report["cycles"]
    jobs = len(cycles[0]["latencies"])
    best = [min(c["latencies"][j] for c in cycles) for j in range(jobs)]
    p50, _ = percentile(best, 50)
    pct = tail_percentile(jobs)
    tail, beyond = percentile(best, pct)
    runs = jobs * len(cycles)
    wall = sum(c["wall_s"] for c in cycles)
    values = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh starts"),
        "jobs_per_s": (jobs / sum(best), "1/s", f"{jobs} distinct jobs, each at the best of {len(cycles)} repeats"),
        "job_p50_s": (p50, "s", f"p50 of the {jobs} best job latencies"),
        "job_tail_s": (tail, "s", f"p{pct} of the {jobs} best job latencies, {beyond} jobs beyond it"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB", "ru_maxrss of the workload process"),
    }
    lines = [f"  {name:<13} {v:<10.6g} {unit:<4} {note}" for name, (v, unit, note) in values.items()]
    lines.append(f"  (unscaled: {runs} job runs in {wall:.2f} s of wall time, {runs / wall:.4g} jobs/s)")
    return {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}, lines


def per_layer(layers: dict) -> tuple[dict, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, lines = {}, []
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        value = layers[name]
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<34} {shown}")
        metrics[name] = {"value": NOT_MEASURED if value is None else value, "unit": unit}
    return metrics, lines


def write_trace(args, reports: list, layers: dict) -> Path:
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "metrics": layers,
                "counters_per_traced_cycle": [
                    {k: s[k] for k in COUNTS} for r in reports for s in r["summaries"]
                ],
                "span_fields": ["name", "start_s", "end_s", "parent", "job"],
                "spans": reports[0]["spans"],
            },
            fh,
        )
    return trace_file


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="qtmlab benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "qtmlab" / "cli.py", ROOT / "machines"):
        if not needed.exists():
            print(f"perfbench: {needed} is missing; run from a qtmlab source checkout", file=sys.stderr)
            return 2

    try:
        if args.trace:
            reports = [run_worker(args, "traced", args.seconds / 2, seed)[0] for seed in ("0", "1")]
        else:
            setups = setup_times(args, SETUP_STARTS)
            report, setup = run_worker(args, "timed", args.seconds)
            setups += [setup] + setup_times(args, SETUP_STARTS)
            reports = [report]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [f for r in reports for f in r["failures"]]
    failed = len(failures)
    attempted = sum(r["attempted"] for r in reports)
    problems = []
    if args.trace:
        layers, problems = aggregate(args.workload, reports)
        metrics, lines = per_layer(layers)
        trace_file = write_trace(args, reports, layers)
        traced_cycles = sum(len(r["summaries"]) for r in reports)
        head = f"{traced_cycles} traced cycles in 2 workers, spans in {trace_file.relative_to(ROOT)}"
    else:
        metrics, lines = end_to_end(report, setups)
        head = f"{len(report['cycles'])} cycles of {report['cycle_jobs']} jobs"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {head}")
    print(f"  failed_frac   {failed / attempted:.6g}   {failed} of {attempted} jobs failed")
    print("\n".join(lines))
    for reason in failures[:5] + problems:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
