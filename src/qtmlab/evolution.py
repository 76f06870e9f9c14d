"""Unmeasured evolution of sparse states under a machine's step operator.

One step maps every support configuration through its rule row and sums
amplitudes of coinciding targets.  Sources are visited in canonical
configuration order and targets in rule order, so accumulation -- and with
it every floating-point rounding -- is reproducible across runs.

``step`` reads the sort-key tuples that ``QuantumState`` stores, with rule
rows compiled once per spec (``MachineSpec.step_rows``), and builds no
``Configuration``.  A target that writes the symbol it read
reuses the source's cell tuple; any other write builds the new tuple once,
and writing the blank erases the cell.

Coinciding targets are summed without hashing a key: every term is pushed
as ``(target key, amplitude)``, the list is sorted once by key, and equal
neighbours are added left to right.  The sort is stable, so each target's
terms stay in the order they were generated (sources in canonical order,
targets in rule order), and the sum is the same float sequence that
accumulating into a dict in that order gives.  A key comparison stops at
the first differing field, and a reused cell tuple compares by identity,
whereas a dict hashed every cell of the key on every operation.

Under ``MachineSpec.drift_amplitude`` a halted configuration only drifts
to its translate one cell right, its amplitude times that one halt-row
amplitude, so ``step`` translates the halted tail of the state (halted keys
sort last; translation keeps their order) in one pass without a rule lookup.

``trajectory`` is the one loop over ``step`` that every run, trace and
experiment evolves through, and it owns the errors raised when pruning or
cancellation empties the state and when its squared norm overflows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isfinite
from operator import itemgetter
from typing import Iterator

from .errors import MissingRuleError, QtmError
from .machine import BLANK, MachineSpec, QuantumState

_first = itemgetter(0)


def step(spec: MachineSpec, state: QuantumState, prune: float = 0.0) -> QuantumState:
    """Apply the step operator once.

    Raises MissingRuleError when a support configuration reads a symbol its
    state has no rule for: partial machines are legal only as long as the
    evolution never reaches the gap.

    ``prune`` drops accumulated amplitudes of modulus below the threshold;
    the default keeps everything except exact zeros (a configuration whose
    amplitude cancelled to 0.0 is simply not part of the superposition).

    Under ``spec.drift_amplitude`` only running sources are stepped, sorted
    and summed; each newly halted sum is then merged into the translated
    block by bisection, and where a drift term has its key, that term is
    added last, where the stable sort of all terms puts it (halted sources
    come last), so every float is the same.  Only final sums are pruned.
    """
    rows = spec.step_rows
    pairs = state._pairs
    drift = None
    if (d := spec.drift_amplitude) is not None:
        h = state._halted_from()
        pairs, tail = pairs[:h], pairs[h:]
        drift = [((True, q, head + 1, cells), x * d) for (_, q, head, cells), x in tail]
    terms: list[tuple[tuple, complex]] = []
    push = terms.append
    for (_, q, head, cells), amp in pairs:
        i = bisect_left(cells, (head,))
        here = i < len(cells) and cells[i][0] == head
        symbol = cells[i][1] if here else BLANK
        row = rows.get((q, symbol))
        if row is None:
            raise MissingRuleError(q, symbol)
        for halted, nq, write, delta, a in row:
            if write == symbol:
                ncells = cells
            elif write == BLANK:
                ncells = cells[:i] + cells[i + 1:]
            else:
                ncells = cells[:i] + ((head, write),) + cells[i + here:]
            push(((halted, nq, head + delta, ncells), amp * a))
    terms.sort(key=_first)  # stable: each target's terms stay in generation order
    out = []
    keep = out.append
    key, s = (False,), 0j  # a zero sum is kept only as a newly halted partial sum
    for k, x in terms:
        if k == key:
            s += x
            continue
        if s != 0 and abs(s) >= prune or drift and key[0]:
            keep((key, s))
        key, s = k, x
    if s != 0 and abs(s) >= prune or drift and key[0]:
        keep((key, s))
    if drift:  # each newly halted sum: insert it, or add the drift term to it
        lo, j = 0, bisect_left(out, (True,), key=_first)
        for k, s in out[j:]:
            lo = bisect_left(drift, k, lo, key=_first)
            if lo < len(drift) and drift[lo][0] == k:
                drift[lo] = (k, s + drift[lo][1])
            else:
                drift.insert(lo, (k, s))
        out[j:] = [p for p in drift if p[1] != 0 and abs(p[1]) >= prune]
    return QuantumState._sorted(out)


def trajectory(
    spec: MachineSpec, state: QuantumState, start: int, stop: int, prune: float = 0.0
) -> Iterator[tuple[int, QuantumState]]:
    """Yield ``(t, S_t)`` for t = start+1 .. stop, S_start being ``state``.

    Raises QtmError naming the step once pruning or cancellation leaves no
    amplitude, or once the squared norm overflows a double: neither state
    has a halt-flag distribution to report.
    """
    for t in range(start + 1, stop + 1):
        state = step(spec, state, prune)
        norm2 = state.norm2()
        if norm2 <= 0.0:
            cause = f"pruning below {prune!r}" if prune else "cancellation"
            raise QtmError(f"{cause} removed all amplitude at step {t}")
        if not isfinite(norm2):
            raise QtmError(f"squared norm overflowed at step {t}")
        yield t, state


@dataclass(frozen=True, slots=True)
class TraceRow:
    step: int
    support: int
    norm2: float
    halted_mass: float


@dataclass(frozen=True)
class EvolutionTrace:
    rows: tuple[TraceRow, ...]

    def to_csv(self) -> str:
        lines = ["step,support,norm2,halted_mass"]
        for r in self.rows:
            lines.append(f"{r.step},{r.support},{r.norm2!r},{r.halted_mass!r}")
        return "\n".join(lines) + "\n"


def evolve(
    spec: MachineSpec,
    state: QuantumState,
    steps: int,
    prune: float = 0.0,
) -> tuple[QuantumState, EvolutionTrace]:
    """Run ``steps`` unmeasured steps from ``state``, such as the initial
    state that ``parse_input`` returns.

    Returns the final state together with a per-step trace of support size,
    squared norm, and halted mass (row 0 describes ``state``).
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    rows = [TraceRow(0, state.support_size(), state.norm2(), state.halted_mass())]
    for n, state in trajectory(spec, state, 0, steps, prune):
        rows.append(
            TraceRow(n, state.support_size(), state.norm2(), state.halted_mass())
        )
    return state, EvolutionTrace(tuple(rows))


def states_through(
    spec: MachineSpec, state: QuantumState, steps: int
) -> list[QuantumState]:
    """All unmeasured states S_0..S_steps, S_0 being ``state``."""
    return [state] + [s for _, s in trajectory(spec, state, 0, steps)]
