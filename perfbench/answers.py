"""Answer checks behind the benchmark's ``failed`` count.

A job fails when it raises, exits with a code other than the one its job
expects, or gives a wrong answer.  Answers are read field by field, never
compared as bytes, so output that gains new fields still passes.  Repeats
of one job must give identical result fields; ``Ledger`` keeps the first
answer of every job to compare the repeats against.
"""

from __future__ import annotations

import csv
import io
import json

TOL = 1e-9


def _run(result: dict, expect: dict) -> str | None:
    total = sum(o["probability"] for o in result["outcomes"]) + result["unhalted"]
    if abs(total - 1.0) > TOL:
        return f"outcome probabilities plus unhalted sum to {total!r}"
    return None


def _sample(result: dict, expect: dict) -> str | None:
    drawn = sum(c["count"] for c in result["counts"])
    if drawn != expect["samples"]:
        return f"sample counts sum to {drawn}, expected {expect['samples']}"
    return None


def _fields(*names):
    def check(result: dict, expect: dict) -> str | None:
        for name in names:
            if result[name] != expect[name]:
                return f"{name} is {result[name]!r}, expected {expect[name]!r}"
        return None

    return check


JSON_CHECKS = {
    "run": _run,
    "sample": _sample,
    "compare": _fields("equivalent"),
    "check": _fields("witnessTotal", "coreWitnessCount"),
    "lift": _fields("witnessTotal"),  # a refused lift; a lifted machine is text
    "myers": _fields("haltStepA", "haltStepB"),
    "subspace": _fields("haltedBasisCount"),
}


def _trace_answer(out: str, expect: dict):
    """Rows, unit norm, no halted mass, and support inside the light cone.

    After t steps of the walk the support is at most 2t and more than t;
    an amplitude that cancels to exactly 0.0 in floating point leaves a
    configuration out at some step counts (73, 119, ...), so 2t is a bound,
    not the answer.
    """
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != expect["rows"]:
        return f"trace has {len(rows)} rows, expected {expect['rows']}", rows
    for row in rows:
        step, support = int(row["step"]), int(row["support"])
        if support > max(1, 2 * step):
            return f"step {step}: support {support} outside the light cone", rows
        if abs(float(row["norm2"]) - 1.0) > TOL:
            return f"step {step}: norm2 {row['norm2']}", rows
        if float(row["halted_mass"]) != 0.0:
            return f"step {step}: halted mass {row['halted_mass']}", rows
    steps = expect["rows"] - 1
    if int(rows[-1]["support"]) <= steps:
        return f"final support {rows[-1]['support']} not above {steps}", rows
    return None, rows


def _machine_answer(out: str, expect: dict):
    lines = out.splitlines()
    rules = sum(1 for line in lines if line.startswith("rule:"))
    if not lines or lines[0] != "qtm-spec v1":
        return "lift did not print a qtm-spec v1 machine", out
    if rules != expect["rules"]:
        return f"lifted machine has {rules} rules, expected {expect['rules']}", out
    return None, out


def check_answer(job, code, out: str):
    """(failure reason or None, the answer repeats are compared on).

    ``code`` is the exit code, or the exception the job raised.
    """
    if isinstance(code, Exception):
        return f"raised {code!r}", None
    if code != job.expect["exit"]:
        return f"exit code {code!r}, expected {job.expect['exit']}", None
    try:
        if job.kind == "trace":
            return _trace_answer(out, job.expect)
        if job.kind == "lift" and code == 0:
            return _machine_answer(out, job.expect)
        result = json.loads(out)["result"]
        return JSON_CHECKS[job.kind](result, job.expect), result
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}", None


class Ledger:
    """Counts attempted and failed jobs and checks that repeats agree."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict = {}

    def record(self, job, code, out: str) -> bool:
        """Check one job's outcome; True when it passed."""
        self.attempted += 1
        reason, answer = check_answer(job, code, out)
        if reason is None:
            first = self._first.setdefault(job.argv, answer)
            if first != answer:
                reason = "repeat gave different result fields"
        if reason is not None:
            self.failures.append(f"{' '.join(job.argv)[:120]}: {reason}")
        return reason is None
