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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .errors import ParseError
# step is not called here; it stays a name because perfbench traces it
from .evolution import step, trajectory  # noqa: F401
from .machine import (
    DEFAULT_TOL,
    InputSpec,
    MachineSpec,
    QuantumState,
    Tape,
    initial_state,
)


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
    """Halt observed after ``step`` steps with this tape content."""

    step: int
    tape: Tape


def _outcome_key(outcome):
    if outcome is UNHALTED:
        return (1, 0, ())
    return (0, outcome.step, outcome.tape.cells)


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class EveryStep:
    def steps(self, budget: int) -> tuple[int, ...]:
        return tuple(range(1, budget + 1))

    @property
    def label(self) -> str:
        return "every"


@dataclass(frozen=True)
class AtSteps:
    at: tuple[int, ...]

    def __post_init__(self):
        cleaned = tuple(sorted(set(self.at)))
        if any(s < 1 for s in cleaned):
            raise ValueError("measurement steps must be >= 1")
        object.__setattr__(self, "at", cleaned)

    def steps(self, budget: int) -> tuple[int, ...]:
        if self.at and self.at[-1] > budget:
            raise ValueError(
                f"schedule step {self.at[-1]} exceeds budget {budget}"
            )
        return self.at

    @property
    def label(self) -> str:
        return "at:" + ",".join(str(s) for s in self.at)


@dataclass(frozen=True)
class EndOnly:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("measurement step must be >= 0")

    def steps(self, budget: int) -> tuple[int, ...]:
        if self.n > budget:
            raise ValueError(f"schedule step {self.n} exceeds budget {budget}")
        # a step-0 measurement is a no-op: fresh inputs are never halted
        return (self.n,) if self.n >= 1 else ()

    @property
    def label(self) -> str:
        return f"end:{self.n}"


def parse_schedule(text: str, budget: int):
    """Schedule strings: ``every``, ``end``, ``end:N``, ``at:N,N,...``.

    Bare ``end`` measures at the step budget of the surrounding run.
    """
    if text == "every":
        return EveryStep()
    if text == "end":
        return EndOnly(budget)
    try:
        if text.startswith("end:"):
            return EndOnly(int(text[4:]))
        if text.startswith("at:"):
            return AtSteps(tuple(int(p) for p in text[3:].split(",")))
    except ValueError as exc:
        raise ParseError(f"bad schedule {text!r}") from exc
    raise ParseError(f"unknown schedule {text!r}")


# ---------------------------------------------------------------------------
# the chain engine

@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One halt-flag measurement on the live lineage.

    ``p_halt`` is conditional on having reached this measurement unhalted;
    ``halted_outcomes`` carries (tape, probability within the halted
    branch) in canonical tape order.
    """

    step: int
    p_halt: float
    halted_outcomes: tuple[tuple[Tape, float], ...]


@dataclass(frozen=True)
class OutputDistribution:
    """Exact outcome distribution for one machine, input and schedule."""

    entries: tuple  # ((HaltOutcome | UNHALTED, probability), ...)
    max_norm_drift: float
    budget: int
    schedule_label: str
    records: tuple = field(repr=False, compare=False)

    def probability(self, outcome) -> float:
        for candidate, p in self.entries:
            if candidate == outcome or candidate is outcome:
                return p
        return 0.0

    def coarsened(self) -> dict:
        """Collapse halt steps away: tape -> probability, plus UNHALTED."""
        merged: dict = {}
        for outcome, p in self.entries:
            key = UNHALTED if outcome is UNHALTED else outcome.tape
            merged[key] = merged.get(key, 0.0) + p
        return merged


def measure_halt(state: QuantumState):
    """Born split of a state by the halt flag.

    Returns (flag, probability, collapsed state) for each outcome with
    nonzero mass, probabilities taken as ratios against the current
    squared norm.
    """
    nu = state.norm2()
    if nu <= 0.0:
        raise ValueError("cannot measure a zero state")
    results = []
    for flag in (True, False):
        component = state.component(flag)
        mass = component.norm2()
        if mass > 0.0:
            results.append((flag, mass / nu, component.renormalized()))
    return results


def run_schedule(
    spec: MachineSpec,
    inp: InputSpec,
    schedule,
    budget: int,
    prune: float = 0.0,
) -> OutputDistribution:
    if budget < 0:
        raise ValueError("budget must be non-negative")
    points = set(schedule.steps(budget))
    state = initial_state(spec, inp)
    live = 1.0
    outcomes: dict = {}
    records = []
    max_drift = 0.0
    start = 0
    # the last segment runs on to the budget, so max_drift sees every step
    for t in sorted(points | {budget}):
        for _, state in trajectory(spec, state, start, t, prune):
            max_drift = max(max_drift, abs(state.norm2() - 1.0))
        start = t
        if t not in points:
            break
        halted = state.component(True)
        h = halted.norm2()
        if h > 0.0:
            p_halt = min(h / state.norm2(), 1.0)
            mass_by_cells: dict = {}
            for (_, _, _, cells), amp in halted.keyed_items():
                mass_by_cells[cells] = mass_by_cells.get(cells, 0.0) + abs(amp) ** 2
            conditional = tuple(
                (Tape(cells), mass_by_cells[cells] / h) for cells in sorted(mass_by_cells)
            )
            records.append(MeasurementRecord(t, p_halt, conditional))
            for tape, frac in conditional:
                outcome = HaltOutcome(t, tape)
                outcomes[outcome] = outcomes.get(outcome, 0.0) + live * p_halt * frac
            live *= 1.0 - p_halt
            unhalted = state.component(False)
            if unhalted.norm2() <= 0.0:
                break
            state = unhalted.renormalized()
    entries = tuple(
        sorted(outcomes.items(), key=lambda kv: _outcome_key(kv[0]))
    ) + ((UNHALTED, live),)
    return OutputDistribution(
        entries, max_drift, budget, schedule.label, tuple(records)
    )


# ---------------------------------------------------------------------------
# sampling and comparison

@dataclass(frozen=True)
class SampleReport:
    distribution: OutputDistribution
    seed: int
    samples: int
    counts: tuple  # ((HaltOutcome | UNHALTED, count), ...)


def sample_run(
    spec: MachineSpec,
    inp: InputSpec,
    schedule,
    budget: int,
    seed: int,
    samples: int,
    prune: float = 0.0,
) -> SampleReport:
    """Draw seeded samples by walking the measurement chain.

    Each sample consumes one uniform draw per measurement reached, plus
    one more when the halted branch is taken, so reports are reproducible
    byte for byte from (machine, input, schedule, budget, seed, samples).
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    dist = run_schedule(spec, inp, schedule, budget, prune)
    rng = Random(seed)
    counts: dict = {}
    for _ in range(samples):
        outcome = _walk(dist.records, rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    ordered = tuple(sorted(counts.items(), key=lambda kv: _outcome_key(kv[0])))
    return SampleReport(dist, seed, samples, ordered)


def _walk(records, rng: Random):
    for rec in records:
        if rng.random() < rec.p_halt:
            v = rng.random()
            acc = 0.0
            for tape, frac in rec.halted_outcomes:
                acc += frac
                if v < acc:
                    return HaltOutcome(rec.step, tape)
            return HaltOutcome(rec.step, rec.halted_outcomes[-1][0])
    return UNHALTED


def _coarsened_diffs(a: OutputDistribution, b: OutputDistribution) -> list[float]:
    """|p_a - p_b| for every final tape (and UNHALTED) either one reaches."""
    ca, cb = a.coarsened(), b.coarsened()
    return [abs(ca.get(k, 0.0) - cb.get(k, 0.0)) for k in set(ca) | set(cb)]


def total_variation(a: OutputDistribution, b: OutputDistribution) -> float:
    return 0.5 * sum(_coarsened_diffs(a, b))


@dataclass(frozen=True)
class ComparisonReport:
    dist_a: OutputDistribution
    dist_b: OutputDistribution
    tv_distance: float
    max_abs_diff: float
    norm_flag: bool
    equivalent: bool


def compare_schedules(
    spec: MachineSpec,
    inp: InputSpec,
    schedule_a,
    schedule_b,
    budget: int,
    tol: float = DEFAULT_TOL,
    prune: float = 0.0,
) -> ComparisonReport:
    """Exact distributions under two schedules, coarsened to final tapes.

    Coarsening drops the halting step, because schedules that measure at
    different times legitimately disagree about when mass is observed;
    what must agree for a norm-preserving machine is where it ends up.
    """
    da = run_schedule(spec, inp, schedule_a, budget, prune)
    db = run_schedule(spec, inp, schedule_b, budget, prune)
    diffs = _coarsened_diffs(da, db)
    tv = 0.5 * sum(diffs)
    max_abs = max(diffs, default=0.0)
    norm_flag = max(da.max_norm_drift, db.max_norm_drift) > tol
    return ComparisonReport(
        da, db, tv, max_abs, norm_flag, tv <= tol and not norm_flag
    )
