"""Sparse states and their unmeasured evolution under a machine's step operator.

A ``QuantumState`` maps basis configurations to complex amplitudes; its
docstring describes its layout, running pairs and a ledger of halted
amplitude.  An input is its initial state: ``initial_state`` checks the
``(amplitude, string)`` terms of an input superposition and returns S_0, the
state that every run, trace and experiment evolves from.

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

Under ``MachineSpec.drift_amplitude`` a halted configuration only drifts to
its translate one cell right, so ``step`` steps the running configurations
alone and merges each newly halted sum into the state's ledger: a halted key
is built once, when it halts, and never again.  A machine without
``drift_amplitude`` steps every configuration through the rule loop.

``trajectory`` is the one loop over ``step`` that every run, trace and
experiment evolves through, and it owns the errors raised when a budget
ends before its start, when pruning or cancellation empties the state and
when its squared norm overflows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import isfinite
from operator import add, itemgetter
from typing import Iterable, Iterator

from .errors import MissingRuleError, ParseError, QtmError
from .machine import BLANK, DEFAULT_TOL, Configuration, MachineSpec, tape_cells

_first = itemgetter(0)
# compares above every key, whose first field is a halt flag (a bool), so
# it ends a merge over keys
_END = ((2,), None)


def _mass(pairs) -> float:
    """Squared moduli of (key, amplitude) pairs summed left to right, as
    ``sum`` of floats does not from Python 3.12 on."""
    total = 0.0
    for _, a in pairs:
        total += a.real * a.real + a.imag * a.imag
    return total


_modulus = itemgetter(2)  # of a ledger entry


class QuantumState:
    """Finite-support map from basis configurations to complex amplitudes.

    Running amplitude is stored as a list of ``(key, amplitude)`` pairs
    sorted by key, the configuration tuple ``(halted, state, head, cells)``,
    so iteration, accumulation, and reports are reproducible bit for bit.
    Iterating, filtering, renormalizing, comparing and summing walk the list,
    and ``inner`` merges two states' keys in canonical order, so no method
    hashes a key.  A key is a ``Configuration`` or the plain tuple that
    ``step`` builds; ``items`` and ``configurations`` give each one the
    field names.  ``QuantumState({config: amplitude})`` builds a state; the
    dict's keys are distinct, as the sorted list needs.

    Halted amplitude is kept in a ledger: entries ``(frame key, x, |x|**2,
    set)`` sorted by frame key ``(True, state, head - shift, cells)``, where
    the state's ``shift`` counts the steps that moved every halted head one
    cell right under ``MachineSpec.drift_amplitude`` d, so a step that only
    drifts an entry leaves it as it is.  An entry's amplitude is ``x`` at
    the shift ``set`` at which it was set and ``x*d`` at every later one: d
    is ``1+0j`` or ``1-0j``, so a product with d changes at most the sign of
    a zero part, and a second product changes no bit of a nonzero amplitude
    (only -0-0j moves, and a zero is pruned).  The views give each entry
    under its key at the current head, after the running pairs, and
    ``norm2`` adds the ledger's moduli, left to right, to the running pairs'
    sum.  The constructor and ``renormalized`` put every halted amplitude
    they are given, zero or not, in a fresh ledger at shift 0, which
    ``step`` filters as the rule loop prunes.
    """

    __slots__ = ("_pairs", "_norm2", "_ledger", "_shift", "_drift")

    def __init__(self, amps: dict):
        self._hold(sorted(amps.items(), key=_first))

    @classmethod
    def _sorted(cls, pairs: list, norm2=None, ledger=None, shift: int = 0, drift=None):
        """State over (key, amplitude) pairs already sorted by key; see ``_hold``."""
        state = cls.__new__(cls)
        state._hold(pairs, norm2, ledger, shift, drift)
        return state

    def _hold(self, pairs: list, norm2=None, ledger=None, shift: int = 0, drift=None) -> None:
        """Hold running ``pairs`` and a ``ledger`` at ``shift``, drifted under
        ``drift``; with no ledger, the halted ones among ``pairs`` make a
        fresh one at shift 0.  ``norm2``, when given, is the running pairs'
        squared norm, summed in their order."""
        if ledger is None:
            i = bisect_left(pairs, (True,), key=_first)
            pairs, ledger = pairs[:i], [
                (k, x, x.real * x.real + x.imag * x.imag, 0) for k, x in pairs[i:]
            ]
        self._pairs, self._ledger, self._shift, self._drift = pairs, ledger, shift, drift
        self._norm2 = _mass(pairs) if norm2 is None else norm2
        if ledger:
            self._norm2 = reduce(add, map(_modulus, ledger), self._norm2)

    def keyed_items(self) -> Iterator[tuple[tuple, complex]]:
        """(key, amplitude) pairs in canonical order."""
        if not self._ledger:
            return iter(self._pairs)
        s, d = self._shift, self._drift
        return chain(self._pairs, (
            ((True, q, head + s, cells), x if t == s else x * d)
            for (_, q, head, cells), x, _, t in self._ledger
        ))

    def items(self) -> Iterator[tuple[Configuration, complex]]:
        return ((Configuration._make(k), a) for k, a in self.keyed_items())

    def configurations(self) -> Iterator[Configuration]:
        return (Configuration._make(k) for k, _ in self.keyed_items())

    def amplitude(self, config: Configuration) -> complex:
        return next((a for k, a in self.keyed_items() if k == config), 0j)

    def norm2(self) -> float:
        return self._norm2

    def halted_mass(self) -> float:
        return self.component(True).norm2()

    def running(self) -> bool:
        """Whether any configuration of the state is running."""
        return bool(self._pairs)

    def component(self, halted: bool) -> "QuantumState":
        if halted:
            return QuantumState._sorted([], 0.0, self._ledger, self._shift, self._drift)
        return QuantumState._sorted(self._pairs, None, ())

    def renormalized(self) -> "QuantumState":
        n = self._norm2 ** 0.5
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return QuantumState._sorted([(k, a / n) for k, a in self.keyed_items()])

    def inner(self, other: "QuantumState") -> complex:
        """<self|other>, conjugate-linear in ``self``: one merge of the two
        states' keys in canonical order."""
        if len(other) < len(self):
            return other.inner(self).conjugate()
        theirs = other.keyed_items()
        k2, b = next(theirs, _END)
        total = 0  # by hand from int 0, as 3.11's ``sum``: later ones may round otherwise
        for k, a in self.keyed_items():
            while k2 < k:
                k2, b = next(theirs, _END)
            if k2 == k:
                total += a.conjugate() * b
        return total

    def __eq__(self, other):
        return isinstance(other, QuantumState) and [*self.keyed_items()] == [*other.keyed_items()]

    def __len__(self):
        return len(self._pairs) + len(self._ledger)

    def __repr__(self):
        inner = ", ".join(f"{a:.4g}*{c!r}" for c, a in self.items())
        return f"QuantumState({inner})"


def initial_state(spec: MachineSpec, terms: Iterable[tuple[complex, str]]) -> QuantumState:
    """The state S_0 of an input superposition, given as ``(amplitude,
    string)`` terms: each string on cells 0..len-1, head at cell 0, the
    machine in its initial state.

    Raises ParseError on an empty or repeated string, a string with a blank
    or a symbol outside the alphabet, or a squared norm not within
    ``DEFAULT_TOL`` of 1, a NaN or an overflowing one included.  Terms of
    amplitude exactly 0 are left out, as ``step`` keeps no zero.
    """
    amps = {}
    total = 0.0
    for amplitude, text in terms:
        if text == "":
            raise ParseError("empty input string")
        if text in amps:
            raise ParseError(f"duplicate input string {text!r}")
        for ch in text:
            if ch == BLANK:
                raise ParseError("input strings may not contain the blank symbol")
            if ch not in spec.alphabet:
                raise ParseError(f"symbol {ch!r} is not in the machine alphabet")
        amps[text] = amplitude + 0j  # complex, with +0.0 for a -0.0 part
        total += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
    if not abs(total - 1.0) <= DEFAULT_TOL:  # refuses a NaN or infinite norm too
        raise ParseError(f"input amplitudes have squared norm {total!r}, expected 1")
    return QuantumState(
        {spec.config(spec.initial, tape_cells(t), 0): a for t, a in amps.items() if a != 0}
    )


def step(spec: MachineSpec, state: QuantumState, prune: float = 0.0) -> QuantumState:
    """Apply the step operator once.

    Raises MissingRuleError when a support configuration reads a symbol its
    state has no rule for: partial machines are legal only as long as the
    evolution never reaches the gap.

    ``prune`` drops accumulated amplitudes of modulus below the threshold;
    the default keeps everything except exact zeros (a configuration whose
    amplitude cancelled to 0.0 is simply not part of the superposition).

    Under ``spec.drift_amplitude`` only running sources are stepped, and
    the state's ledger (see ``QuantumState``) is kept as it is, one shift
    further on; the halt
    state's bucket holds the newly halted sums, each merged into the ledger
    by bisection.  Where an entry has its key, the entry's drift term is
    added last, where a stable sort of all terms puts it (halted sources
    come last), so every float is the same.  Only final sums are pruned; a
    ledger at shift 0, which may hold zero or small amplitudes the
    constructor kept, is filtered after the merge, as is every ledger under
    a nonzero ``prune``.  Without ``drift_amplitude``, or from an empty
    ledger, the newly halted sums make a fresh ledger at shift 0.
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
