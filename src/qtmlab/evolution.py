"""Unmeasured evolution of sparse states under a machine's step operator.

One step maps every support configuration through its rule row and sums
amplitudes of coinciding targets.  Sources are visited in canonical
configuration order and targets in rule order, so accumulation -- and with
it every floating-point rounding -- is reproducible across runs.

``step`` reads the sort-key tuples that ``QuantumState`` stores, with rule
rows compiled once per spec (``MachineSpec.step_rows``, state -> symbol ->
row), and builds no ``Configuration``.  Cells are sorted by position with no
blank stored, so the head's cell is at its offset from the first cell unless
a blank gap lies before the head; only then is it bisected for.  A target
whose write is ``None`` rewrites the symbol read and reuses the source's
cells; any other write builds the new tuple once, and the blank erases.

Coinciding targets are summed without hashing a key, in one bucket of
``(head, cells)`` keys and terms per target state, which gets a key's terms
in generation order (sources in canonical order, targets in rule order).
Each bucket is sorted stably and equal neighbours are added left to right,
the float sequence a dict accumulated in that order gives; read in
``(halted, state)`` order, the halt state's last, the buckets give the keys
in canonical order.  A source state's terms form sorted runs in a bucket, so
each sort is nearly linear, and a reused cell tuple compares by identity.

A ``QuantumState`` keeps its halted amplitude in a ledger.  Under
``MachineSpec.drift_amplitude`` a halted configuration only drifts to its
translate one cell right, its amplitude times that one halt-row amplitude,
so ``step`` steps the running configurations alone: the ledger moves every
head by one count, and each newly halted sum is merged into it.  So a
halted key is built once, when it halts, and never again.  A machine
without ``drift_amplitude`` steps every configuration through the rule
loop, and its halted sums make a fresh ledger.

``trajectory`` is the one loop over ``step`` that every run, trace and
experiment evolves through, and it owns the errors raised when a budget
ends before its start, when pruning or cancellation empties the state and
when its squared norm overflows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isfinite
from typing import Iterator

from .errors import MissingRuleError, QtmError
from .machine import BLANK, MachineSpec, QuantumState, _first


def step(spec: MachineSpec, state: QuantumState, prune: float = 0.0) -> QuantumState:
    """Apply the step operator once.

    Raises MissingRuleError when a support configuration reads a symbol its
    state has no rule for: partial machines are legal only as long as the
    evolution never reaches the gap.

    ``prune`` drops accumulated amplitudes of modulus below the threshold;
    the default keeps everything except exact zeros (a configuration whose
    amplitude cancelled to 0.0 is simply not part of the superposition).

    Under ``spec.drift_amplitude`` only running sources are stepped, and
    the state's ledger is kept as it is, one shift further on; the halt
    state's bucket holds the newly halted sums, each merged into the ledger
    by bisection.  Where an entry has its key, the entry's drift term is
    added last, where a stable sort of all terms puts it (halted sources
    come last), so every float is the same.  Only final sums are pruned; a
    ledger at shift 0, which may hold zero or small amplitudes the
    constructor kept, is filtered after the merge, as is every ledger under
    a nonzero ``prune``.  Without ``drift_amplitude``, or from an empty
    ledger, the newly halted sums make a fresh ledger at shift 0, whose
    frames are their keys.
    """
    rows = spec.step_rows
    if (d := spec.drift_amplitude) is None:  # every configuration goes through the rule loop
        pairs, ledger = state.keyed_items(), ()
    else:
        pairs, ledger = state._pairs, state._ledger
    shift = state._shift + 1 if ledger else 0
    # filtered after the merge: a ledger at shift 0 may hold the constructor's
    # zeros and small amplitudes, and any ledger entries below a new prune
    unpruned = ledger and (prune or not state._shift)
    buckets = [[] for _ in rows]  # one per target state, in (halted, state) order
    for (_, q, head, cells), amp in pairs:
        if not cells or head < cells[0][0]:
            i, here = 0, False
        elif head > cells[-1][0]:
            i, here = len(cells), False
        elif (i := head - cells[0][0]) < len(cells) and cells[i][0] == head:
            here = True
        else:  # a blank gap lies before the head
            i = bisect_left(cells, (head,))
            here = cells[i][0] == head
        symbol = cells[i][1] if here else BLANK
        row = rows[q].get(symbol)
        if row is None:
            raise MissingRuleError(q, symbol)
        for b, write, delta, a in row:
            if write is None:
                ncells = cells
            elif write == BLANK:
                ncells = cells[:i] + cells[i + 1:]
            else:
                ncells = cells[:i] + ((head, write),) + cells[i + here:]
            buckets[b].append(((head + delta, ncells), amp * a))
    halts = buckets.pop()  # the halt state's bucket, last in (halted, state) order
    out, norm2 = [], 0.0
    for q, terms in zip(rows, buckets):
        if not terms:
            continue
        terms.sort(key=_first)  # stable: each key's terms stay in generation order
        terms.append((None, 0j))  # ends the last sum
        frame, key, s = (False, q), None, 0  # starts no sum
        for k, x in terms:
            if k == key:
                s += x
                continue
            if s != 0 and abs(s) >= prune:
                out.append((frame + key, s))
                norm2 += s.real * s.real + s.imag * s.imag
            key, s = k, x
    if halts:  # each newly halted sum, then any drift term at its key, in order
        halts.sort(key=_first)  # stable, as above
        (key, s), ledger, lo = halts[0], list(ledger), 0
        for k, x in halts[1:] + [(None, 0j)]:  # the last ends the last sum
            if k == key:
                s += x
                continue
            frame = (True, spec.halt, key[0] - shift, key[1])
            lo = bisect_left(ledger, frame, lo, key=_first)
            hit = lo < len(ledger) and ledger[lo][0] == frame
            if hit:
                s += ledger[lo][1] * d
            if s != 0 and abs(s) >= prune:
                ledger[lo:lo + hit] = [(frame, s, s.real * s.real + s.imag * s.imag, shift)]
            else:
                del ledger[lo:lo + hit]
            key, s = k, x
    if unpruned:
        ledger = [e for e in ledger if (v := e[1] * d) != 0 and abs(v) >= prune]
    return QuantumState._sorted(out, norm2, ledger, shift, d)


def trajectory(
    spec: MachineSpec, state: QuantumState, start: int, stop: int, prune: float = 0.0
) -> Iterator[tuple[int, QuantumState]]:
    """Yield ``(t, S_t)`` for t = start+1 .. stop, S_start being ``state``,
    calling ``step`` once per item taken.

    Raises ValueError at the first item taken when ``stop < start``, and
    QtmError naming the step once pruning or cancellation leaves no
    amplitude, or once the squared norm overflows a double: neither state
    has a halt-flag distribution to report.
    """
    if stop < start:
        raise ValueError(f"step budget {stop} is below the start step {start}")
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


def evolve(
    spec: MachineSpec,
    state: QuantumState,
    steps: int,
    prune: float = 0.0,
) -> tuple[QuantumState, tuple[TraceRow, ...]]:
    """Run ``steps`` unmeasured steps from ``state``, such as the initial
    state that ``parse_input`` returns.

    Returns the final state together with one ``TraceRow`` per step of
    support size, squared norm, and halted mass (row 0 describes ``state``).
    """
    rows = [TraceRow(0, len(state), state.norm2(), state.halted_mass())]
    for n, state in trajectory(spec, state, 0, steps, prune):
        rows.append(TraceRow(n, len(state), state.norm2(), state.halted_mass()))
    return state, tuple(rows)
