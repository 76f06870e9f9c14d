"""One workload in one fresh interpreter.

Started by run.py, never by hand.  The worker imports qtmlab from the
checkout's ``src``, builds the seeded job cycle, prints ``READY`` (the end
of set-up) and then runs the cycle closed loop: one client, each job
issued in-process through ``qtmlab.cli.main(argv)`` after the previous one
returned, stdout and stderr captured.  Its last stdout line is a JSON
report for run.py.

Modes:
  timed      whole cycles, reshuffled each time and each on the next CPU
             in turn (pin_cpu), for about --seconds (to the nearest whole
             cycle) and at least MIN_CYCLES; reports each cycle's wall
             time and its job latencies in cycle order, and the peak RSS.
  traced     pairs of one untraced and one traced cycle in the same order
             and on the same CPU, for about --seconds and at least one
             pair; reports the per-layer summary of every traced cycle,
             the wall times of both kinds of cycle and the spans of the
             first traced cycle.  run.py pools the reports of two traced
             workers (aggregate).
  setup-only stops after READY, to sample set-up time again.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

from answers import Ledger
from tracer import TIMES, Tracer, derived
from workloads import WORKLOADS, make_cycle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CYCLES = 3  # each job's best latency is taken over at least this many repeats
MAX_LOOP_S = 120.0  # a run stops here even short of MIN_CYCLES
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]

# Per-layer metrics each workload must measure: a boundary that a refactor
# renames or removes reads None there, and the traced run fails.
REQUIRED = {
    "walk": (
        "evolution.step_calls", "evolution.step_self_s", "evolution.config_steps",
        "evolution.halted_config_steps", "evolution.halted_share",
        "evolution.ns_per_config_step", "evolution.support_peak", "evolution.evolve_self_s",
        "measurement.schedule_self_s", "measurement.records",
        "parsing.self_s", "cli.self_s", "cli.bytes_out",
    ),
    "halt-drift": (
        "evolution.step_calls", "evolution.step_self_s", "evolution.config_steps",
        "evolution.halted_config_steps", "evolution.halted_share",
        "evolution.ns_per_config_step", "evolution.support_peak",
        "measurement.schedule_self_s", "measurement.sample_self_s",
        "measurement.compare_self_s", "measurement.records",
        "experiments.myers_self_s", "experiments.subspace_self_s", "experiments.halted_basis",
        "parsing.self_s", "cli.self_s", "cli.bytes_out",
    ),
    "check": (
        "wellformed.check_calls", "wellformed.sweep_self_s", "wellformed.materialize_s",
        "wellformed.witnesses", "wellformed.us_per_witness",
        "classical.lift_self_s", "classical.injectivity_witnesses",
        "parsing.self_s", "cli.self_s", "cli.bytes_out",
    ),
}


def _import_qtmlab():
    sys.path.insert(0, str(ROOT / "src"))
    import qtmlab.cli

    where = Path(qtmlab.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: qtmlab imported from {where}, not from this checkout")
    return qtmlab.cli


def run_job(cli, job):
    """(latency in s, exit code or the exception raised, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a job that raises is a failed job
        code = exc
    return perf_counter() - t0, code, out.getvalue()


def run_cycle(cli, order, ledger, tracer=None):
    """Run jobs in ``order``; returns (wall time, per-job latencies)."""
    latencies = []
    t0 = perf_counter()
    for index, job in enumerate(order):
        if tracer is not None:
            tracer.job = index
        latency, code, out = run_job(cli, job)
        latencies.append(latency)
        if tracer is not None:
            tracer.counts["cli.bytes_out"] += len(out.encode())
        ledger.record(job, code, out)
    return perf_counter() - t0, latencies


def pin_cpu(round_index: int) -> None:
    """Pin this process to the CPU whose turn ``round_index`` is.

    A busy process tends to stay on one CPU, and on a shared machine one
    CPU can run up to 40 % slower than another for many seconds.  Taking
    the CPUs in turn, round by round, gives every job repeats on each of
    them, so its best repeat does not depend on where the scheduler left
    the process.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {CPUS[round_index % len(CPUS)]})


def _done(t0: float, seconds: float, last: float, rounds: int, least: int) -> bool:
    """Stop at the round boundary nearest to ``seconds``, after ``least`` rounds."""
    elapsed = perf_counter() - t0
    return (rounds >= least and elapsed + last / 2 >= seconds) or elapsed >= MAX_LOOP_S


def timed(cli, cycle, rng, seconds, ledger) -> dict:
    cycles = []
    t0 = perf_counter()
    while True:
        pin_cpu(len(cycles))
        slots = list(range(len(cycle)))
        rng.shuffle(slots)
        wall, latencies = run_cycle(cli, [cycle[i] for i in slots], ledger)
        by_job = [0.0] * len(cycle)
        for i, latency in zip(slots, latencies):
            by_job[i] = latency
        cycles.append({"wall_s": wall, "latencies": by_job})
        if _done(t0, seconds, wall, len(cycles), MIN_CYCLES):
            break
    return {
        "cycles": cycles,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced(cli, cycle, rng, seconds, ledger) -> dict:
    tracer = Tracer()
    plain, traced_walls, summaries = [], [], []
    spans = None
    t0 = perf_counter()
    while True:
        pin_cpu(len(summaries))
        order = cycle[:]
        rng.shuffle(order)
        plain.append(run_cycle(cli, order, ledger)[0])
        tracer.reset()
        tracer.install()
        try:
            origin = perf_counter()
            traced_walls.append(run_cycle(cli, order, ledger, tracer)[0])
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if spans is None:
            spans = tracer.span_records(origin)
        if _done(t0, seconds, plain[-1] + traced_walls[-1], len(summaries), 1):
            break
    return {"summaries": summaries, "plain_walls": plain, "traced_walls": traced_walls, "spans": spans}


def layer_checks(workload: str, layers: dict) -> list[str]:
    """Each optimisable layer dominates one workload and is idle in another."""
    problems = [
        f"{name} not measured on {workload}" for name in REQUIRED[workload] if layers.get(name) is None
    ]
    times = {k: v for k, v in layers.items() if k in TIMES and v is not None}
    top = max(times, key=times.get)
    if workload == "walk":
        if top != "evolution.step_self_s":
            problems.append(f"largest self time on walk is {top}, not evolution.step_self_s")
        present = [k for k in layers if k.startswith("wellformed.") and layers[k] is not None]
        if present:
            problems.append(f"wellformed metrics measured on walk: {present}")
        if layers["evolution.halted_share"] != 0:
            problems.append(f"halted share on walk is {layers['evolution.halted_share']!r}, not 0")
    elif workload == "check":
        if not top.startswith("wellformed."):
            problems.append(f"largest self time on check is {top}, not a wellformed metric")
    elif workload == "halt-drift":
        share = layers["evolution.halted_share"]
        if share is None or share <= 0:
            problems.append(f"halted share on halt-drift is {share!r}, not above 0")
    return problems


def aggregate(workload: str, reports: list) -> tuple[dict, list]:
    """Per-layer metrics pooled over the traced cycles of several workers.

    Times are medians over all traced cycles.  Every count must be the
    same in every traced cycle of every worker (the workers run with
    different hash seeds); a count that differs is a problem.
    """
    summaries = [s for r in reports for s in r["summaries"]]
    problems = []
    layers = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key in TIMES:
            measured = [v for v in values if v is not None]
            layers[key] = statistics.median(measured) if measured else None
        else:
            if any(v != values[0] for v in values):
                problems.append(f"count {key} differs between traced cycles: {values}")
            layers[key] = values[0]
    layers.update(derived(layers))
    plain = [w for r in reports for w in r["plain_walls"]]
    traced_walls = [w for r in reports for w in r["traced_walls"]]
    layers["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
    problems += layer_checks(workload, layers)
    return layers, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/worker.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "setup-only"), required=True)
    args = ap.parse_args(argv)

    proto = sys.stdout
    cli = _import_qtmlab()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        cycle = make_cycle(args.workload, args.seed, workdir)
        print("READY", file=proto, flush=True)
        if args.mode == "setup-only":
            return 0
        rng = Random(f"order/{args.seed}")
        ledger = Ledger()
        if args.mode == "timed":
            report = timed(cli, cycle, rng, args.seconds, ledger)
        else:
            report = traced(cli, cycle, rng, args.seconds, ledger)
        report.update(
            cycle_jobs=len(cycle),
            attempted=ledger.attempted,
            failures=ledger.failures,
        )
        print(json.dumps(report), file=proto, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
