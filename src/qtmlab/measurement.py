"""Halt-flag measurement schedules over unitary evolution.

Measuring the halt flag splits the state into a halted and an unhalted
component.  The halted component is immediately measured again in the
configuration basis and retired, so what survives each measurement is the
single renormalized unhalted lineage; a schedule over n steps therefore
produces a chain of at most n measurement records instead of a branching
tree.  Probabilities are Born ratios against the squared norm at the
moment of measurement, which keeps every reported distribution summing to
one even on rule tables that fail to preserve norm; the worst norm drift
seen between measurements is recorded so such machines can be flagged.

A schedule is the whole plan of a run, one record ``Schedule(label,
steps, budget)``: its label, the ascending steps at which the flag is read
and the step budget.  ``parse_schedule`` is the only builder; ``every``
keeps its steps as a ``range``, so walking a long budget costs memory only
for the steps actually evolved.  Under ``MachineSpec.drift_amplitude`` a
run stops stepping once no configuration is running, whatever the
schedule: from there a step only translates the state, so every remaining
measurement and the norm drift are already fixed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import merge
from itertools import accumulate, chain
from random import Random

from .errors import ParseError
# step is not called here; it stays a name because perfbench traces it
from .evolution import step, trajectory  # noqa: F401
from .machine import DEFAULT_TOL, MachineSpec, QuantumState


class _Unhalted:
    """Sentinel outcome for runs that never saw the halt flag set."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNHALTED"


UNHALTED = _Unhalted()


@dataclass(frozen=True, slots=True)
class HaltOutcome:
    """Halt observed after ``step`` steps with the tape ``cells``."""

    step: int
    cells: tuple


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True, slots=True)
class Schedule:
    """The steps at which the halt flag is read, ascending and distinct, and
    the budget a run steps to.  ``every`` holds a ``range``, so a long
    budget is never materialized."""

    label: str
    steps: Sequence[int]
    budget: int


def _step(text: str, part: str) -> int:
    # int() would also take signs, underscores and non-ASCII digits
    if not (part.isascii() and part.isdigit()):
        raise ParseError(f"bad schedule {text!r}")
    return int(part)


def parse_schedule(text: str, budget: int) -> Schedule:
    """Schedule strings: ``every``, ``end``, ``end:N``, ``at:N,N,...``.

    Each step N is ASCII digits.  Bare ``end`` measures at ``budget``, which
    the schedule keeps; ``at:`` steps are sorted and de-duplicated and must
    be >= 1.  Whether a step fits the budget is checked by ``run_schedule``.
    """
    if text == "every":
        return Schedule("every", range(1, budget + 1), budget)
    if text.startswith("at:"):
        at = sorted({_step(text, p) for p in text[3:].split(",")})
        if at[0] < 1:
            raise ParseError(f"bad schedule {text!r}")
        return Schedule("at:" + ",".join(map(str, at)), tuple(at), budget)
    if text == "end":
        n = budget
    elif text.startswith("end:"):
        n = _step(text, text[4:])
    else:
        raise ParseError(f"unknown schedule {text!r}")
    # a step-0 measurement is a no-op: fresh inputs are never halted
    return Schedule(f"end:{n}", (n,) if n >= 1 else (), budget)


# ---------------------------------------------------------------------------
# the chain engine

@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One halt-flag measurement on the live lineage.

    ``p_halt`` is conditional on having reached this measurement unhalted;
    ``halted_outcomes`` carries (cells, probability within the halted
    branch) in cell order.
    """

    step: int
    p_halt: float
    halted_outcomes: tuple[tuple[tuple, float], ...]


@dataclass(frozen=True)
class OutputDistribution:
    """Exact outcome distribution for one machine, input and schedule."""

    entries: tuple  # ((HaltOutcome, probability), ..., (UNHALTED, p)), in chain order
    max_norm_drift: float
    records: tuple = field(repr=False, compare=False)

    def probability(self, outcome) -> float:
        for candidate, p in self.entries:
            if candidate == outcome:
                return p
        return 0.0

    def coarsened(self) -> dict:
        """Collapse halt steps away: cells -> probability in cell order,
        then UNHALTED."""
        merged: dict = {}
        for outcome, p in self.entries[:-1]:
            merged[outcome.cells] = merged.get(outcome.cells, 0.0) + p
        return {**dict(sorted(merged.items())), UNHALTED: self.entries[-1][1]}


def run_schedule(
    spec: MachineSpec,
    state: QuantumState,
    schedule: Schedule,
    prune: float = 0.0,
) -> OutputDistribution:
    budget = schedule.budget
    if schedule.steps and schedule.steps[-1] > budget:
        raise ValueError(f"schedule step {schedule.steps[-1]} exceeds budget {budget}")
    live = 1.0
    entries = []  # in chain order: ascending step, each step's tapes in cell order
    records = []
    max_drift = 0.0
    start = 0
    # None: the unhalted lineage runs on to the budget, so max_drift sees every step
    for t in chain(schedule.steps, (None,)):
        for _, state in trajectory(spec, state, start, budget if t is None else t, prune):
            max_drift = max(max_drift, abs(state.norm2() - 1.0))
            # with no running pair, later steps under drift_amplitude only
            # translate the state
            if spec.drift_amplitude is not None and not state._pairs:
                break
        if t is None:
            break
        start = t
        halted = state.component(True)
        h = halted.norm2()
        if h > 0.0:
            p_halt = h / state.norm2()  # <= 1: norm2 adds h's terms to running ones
            mass_by_cells: dict = {}
            for (_, _, _, cells), amp in halted.keyed_items():
                mass_by_cells[cells] = mass_by_cells.get(cells, 0.0) + abs(amp) ** 2
            conditional = tuple(
                (cells, mass_by_cells[cells] / h) for cells in sorted(mass_by_cells)
            )
            records.append(MeasurementRecord(t, p_halt, conditional))
            for cells, frac in conditional:
                entries.append((HaltOutcome(t, cells), live * p_halt * frac))
            live *= 1.0 - p_halt
            unhalted = state.component(False)
            if unhalted.norm2() <= 0.0:
                break
            state = unhalted.renormalized()
    entries.append((UNHALTED, live))
    return OutputDistribution(tuple(entries), max_drift, tuple(records))


# ---------------------------------------------------------------------------
# sampling and comparison

def sample_run(
    spec: MachineSpec,
    state: QuantumState,
    schedule: Schedule,
    seed: int,
    samples: int,
    prune: float = 0.0,
) -> tuple[OutputDistribution, list[int]]:
    """Draw seeded samples by walking the measurement chain: the exact
    distribution and, for each of its ``entries`` by position, how many
    samples landed there (zeros included).

    Each sample consumes one uniform draw per measurement reached, plus
    one more when the halted branch is taken, so reports are reproducible
    byte for byte from (machine, input, schedule, seed, samples).
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    dist = run_schedule(spec, state, schedule, prune)
    rng = Random(seed)
    links = _chain(dist.records)
    counts = [0] * len(dist.entries)
    for _ in range(samples):
        counts[_walk(links, rng)] += 1
    return dist, counts


def _chain(records) -> list[tuple[float, list[float]]]:
    """Each record's ``p_halt`` and running sums of its fractions, left to right."""
    return [(r.p_halt, list(accumulate(f for _, f in r.halted_outcomes))) for r in records]


def _walk(links, rng: Random) -> int:
    """Index of one sampled outcome in the distribution's ``entries``, which
    ``run_schedule`` lays out record by record, with UNHALTED last: the first
    running sum above the draw, else (sums short of 1) the last outcome."""
    base = 0
    for p_halt, cum in links:
        if rng.random() < p_halt:
            return base + min(bisect_right(cum, rng.random()), len(cum) - 1)
        base += len(cum)
    return base


def _coarsened_diffs(ca: dict, cb: dict) -> list[float]:
    """|p_a - p_b| for every final tape either one reaches, then UNHALTED.

    Tapes come in cell order, as ``compare`` prints them, so the sum over
    the list does not depend on set iteration order.
    """
    # both list their tapes in cell order, UNHALTED last: merge the tapes
    tapes = dict.fromkeys(merge(list(ca)[:-1], list(cb)[:-1]))
    return [abs(ca.get(k, 0.0) - cb.get(k, 0.0)) for k in (*tapes, UNHALTED)]


@dataclass(frozen=True)
class ComparisonReport:
    max_norm_drift: float  # the larger of the two runs' drifts, read by norm_flag
    coarsened_a: dict
    coarsened_b: dict
    tv_distance: float
    max_abs_diff: float
    norm_flag: bool
    equivalent: bool


def compare_schedules(
    spec: MachineSpec,
    state: QuantumState,
    schedule_a: Schedule,
    schedule_b: Schedule,
    tol: float = DEFAULT_TOL,
    prune: float = 0.0,
) -> ComparisonReport:
    """Exact distributions under two schedules, coarsened to final tapes.

    Coarsening drops the halting step, because schedules that measure at
    different times legitimately disagree about when mass is observed;
    what must agree for a norm-preserving machine is where it ends up.
    Both schedules must hold the same budget.
    """
    if schedule_a.budget != schedule_b.budget:
        raise ValueError(f"budgets differ: {schedule_a.budget} and {schedule_b.budget}")
    da = run_schedule(spec, state, schedule_a, prune)
    db = run_schedule(spec, state, schedule_b, prune)
    ca, cb = da.coarsened(), db.coarsened()
    diffs = _coarsened_diffs(ca, cb)
    total = 0.0
    for diff in diffs:  # left to right: float ``sum`` rounds otherwise on 3.12+
        total += diff
    tv = 0.5 * total
    max_abs = max(diffs, default=0.0)
    drift = max(da.max_norm_drift, db.max_norm_drift)
    norm_flag = drift > tol
    return ComparisonReport(drift, ca, cb, tv, max_abs, norm_flag, tv <= tol and not norm_flag)
