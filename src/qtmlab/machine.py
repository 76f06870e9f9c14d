"""Machine model: tapes, configurations, rule tables, and sparse states.

A machine acts on basis configurations (halt flag, internal state, head
position, tape).  The halt flag is never stored independently: it is true
exactly when the internal state is the declared halt state, so rule files
cannot describe inconsistent flag/state combinations.

Tapes are two-way infinite and blank-filled.  A tape is its canonical
cells tuple: ``(position, symbol)`` pairs sorted by position with no blank
stored, so two tapes are equal exactly when they agree on every cell.
``tape_cells`` lays a string on a tape and ``tape_text`` renders one.

A configuration has one layout, the named tuple ``Configuration(halted,
state, head, cells)``, so it is its own sort key.  ``QuantumState`` stores
such tuples, ``step`` builds them plain, the checker's window keys share
the layout, and measured outcomes carry the same ``cells``.  A state keeps
its halted amplitude in a ledger, where a key is stored once with its head
less the state's shift, so under a machine's ``drift_amplitude`` it is never
rebuilt as the state drifts.

An input is its initial state.  ``initial_state`` checks the ``(amplitude,
string)`` terms of an input superposition and returns S_0, the
``QuantumState`` that every run, trace and experiment evolves from.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError

BLANK = "_"

#: Default numerical tolerance for norm and orthogonality checks.
DEFAULT_TOL = 1e-9

MOVES = ("L", "N", "R")
MOVE_DELTA = {"L": -1, "N": 0, "R": 1}

_first = itemgetter(0)
# compares above every key, whose first field is a halt flag (a bool), so
# it ends a merge over keys
_END = ((2,), None)


def tape_cells(text: str, origin: int = 0) -> tuple:
    """The canonical cells of ``text`` laid on consecutive cells from
    ``origin``: ``(position, symbol)`` pairs by position, blanks not stored."""
    return tuple((origin + i, s) for i, s in enumerate(text) if s != BLANK)


def tape_text(cells: tuple) -> tuple[str, int]:
    """Contiguous rendering of canonical cells: (symbols between the extreme
    non-blank cells, with interior blanks shown as ``_``; position of the
    first).  The empty tape renders as ("", 0).
    """
    if not cells:
        return "", 0
    lo = cells[0][0]
    chars = [BLANK] * (cells[-1][0] - lo + 1)
    for p, s in cells:
        chars[p - lo] = s
    return "".join(chars), lo


class Configuration(NamedTuple):
    """One basis configuration, laid out as its own sort key.

    ``cells`` is a canonical tape (see ``tape_cells``), and ``halted`` must
    equal (state == halt state of the machine), which the constructor
    helper ``MachineSpec.config`` derives.
    Equality, hashing and ordering are the tuple's, so ``sorted`` gives
    canonical order with halted configurations last.
    """

    halted: bool
    state: str
    head: int
    cells: tuple

    def shifted(self, offset: int) -> "Configuration":
        cells = tuple((p + offset, s) for p, s in self.cells)
        return Configuration(self.halted, self.state, self.head + offset, cells)

    def __repr__(self):
        flag = "H" if self.halted else "."
        text, origin = tape_text(self.cells)
        return f"<{flag} {self.state} {text!r}@{origin} head={self.head}>"


@dataclass(frozen=True, slots=True)
class RuleTarget:
    """One branch of a rule: amplitude, next state, written symbol, move."""

    amplitude: complex
    state: str
    write: str
    move: str


@dataclass(frozen=True)
class MachineSpec:
    """A parsed machine: rule table keyed by (state, read symbol).  A
    classical machine is one whose every row is one amplitude-1 target."""

    states: tuple[str, ...]
    initial: str
    halt: str
    alphabet: tuple[str, ...]
    rules: dict

    def config(self, state: str, cells: tuple, head: int) -> Configuration:
        return Configuration(state == self.halt, state, head, cells)

    @cached_property
    def step_rows(self) -> dict:
        """state -> {symbol: ((bucket, write, head delta, amplitude), ...)},
        compiled once per spec and cached outside the dataclass fields, with
        the states in ``(halted, state)`` order (the halt state last), a
        target's ``bucket`` its state's index in it, and ``write`` None where
        it rewrites the symbol read.  Every declared, ruled or targeted state
        has an entry: a gap is a missing symbol."""
        named = {*self.states, self.initial, *(q for q, _ in self.rules)}
        named.update(t.state for targets in self.rules.values() for t in targets)
        order = [*sorted(named - {self.halt}), self.halt]
        bucket = {q: b for b, q in enumerate(order)}
        rows = {q: {} for q in order}
        for (q, s), targets in self.rules.items():
            rows[q][s] = tuple(
                (bucket[t.state], None if t.write == s else t.write, MOVE_DELTA[t.move],
                 t.amplitude)
                for t in targets
            )
        return rows

    @cached_property
    def drift_amplitude(self) -> complex | None:
        """The amplitude of every halt row when each is exactly ``((halt
        bucket, None, +1, 1),)`` for its symbol and the rows agree bit for
        bit (``1`` and ``1 - 0i`` do not): a halted configuration then steps
        to its own translate one cell right, its amplitude times this one.
        Else None, and halted configurations step through the rule loop."""
        halt_row = ((len(self.step_rows) - 1, None, 1, 1),)
        rows = [self.step_rows[self.halt].get(s) for s in self.alphabet]
        if all(r == halt_row for r in rows):
            amps = {repr(r[0][3]): r[0][3] for r in rows}
            return amps.popitem()[1] if len(amps) == 1 else None


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
