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
the layout, and measured outcomes carry the same ``cells``.

An input is its initial state.  ``initial_state`` checks the ``(amplitude,
string)`` terms of an input superposition and returns S_0, the
``QuantumState`` that every run, trace and experiment evolves from.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError

BLANK = "_"

#: Default numerical tolerance for norm and orthogonality checks.
DEFAULT_TOL = 1e-9

MOVES = ("L", "N", "R")
MOVE_DELTA = {"L": -1, "N": 0, "R": 1}

_first = itemgetter(0)


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
        """(state, symbol) -> ((halted, state, write, head delta, amplitude), ...),
        compiled once per spec and cached outside the dataclass fields."""
        return {
            key: tuple(
                (t.state == self.halt, t.state, t.write, MOVE_DELTA[t.move], t.amplitude)
                for t in targets
            )
            for key, targets in self.rules.items()
        }

    @cached_property
    def drift_amplitude(self) -> complex | None:
        """The amplitude of every halt row when each is exactly ``((True, halt,
        s, +1, 1),)`` for its symbol ``s`` and the rows agree bit for bit
        (``1`` and ``1 - 0i`` do not): a halted configuration then steps to
        its own translate one cell right, its amplitude times this one.
        Else None, and halted configurations step through the rule loop."""
        rows = [self.step_rows.get((self.halt, s)) for s in self.alphabet]
        if all(r == ((True, self.halt, s, 1, 1),) for r, s in zip(rows, self.alphabet)):
            amps = {repr(r[0][4]): r[0][4] for r in rows}
            return amps.popitem()[1] if len(amps) == 1 else None


def _mass(pairs) -> float:
    """Squared moduli of (key, amplitude) pairs summed left to right, as
    ``sum`` of floats does not from Python 3.12 on."""
    total = 0.0
    for _, a in pairs:
        total += a.real * a.real + a.imag * a.imag
    return total


class QuantumState:
    """Finite-support map from basis configurations to complex amplitudes.

    Entries are stored as a list of ``(key, amplitude)`` pairs sorted by
    key, the configuration tuple ``(halted, state, head, cells)``, so
    iteration, accumulation, and reports are reproducible bit for bit.
    Halted keys sort last, so each halt-flag component is a slice.
    Iterating, filtering, renormalizing, comparing and summing walk the list,
    and ``inner`` and ``amplitude`` find keys by bisection, so no method
    hashes a key.  A key is a ``Configuration`` or the plain tuple that
    ``step`` builds; ``items`` and ``configurations`` give each one the
    field names.  ``QuantumState({config: amplitude})`` builds a state; the
    dict's keys are distinct, as the sorted list needs.
    """

    __slots__ = ("_pairs", "_norm2")

    def __init__(self, amps: dict):
        self._pairs = sorted(amps.items(), key=_first)
        self._norm2 = _mass(self._pairs)

    @classmethod
    def _sorted(cls, pairs: list) -> "QuantumState":
        """State over a list of (key, amplitude) pairs, already sorted by key."""
        state = cls.__new__(cls)
        state._pairs = pairs
        state._norm2 = _mass(pairs)
        return state

    def _halted_from(self) -> int:
        """Index of the first halted entry (``len`` when none is halted)."""
        return bisect_left(self._pairs, (True,), key=_first)

    def keyed_items(self) -> Iterator[tuple[tuple, complex]]:
        """(key, amplitude) pairs in canonical order."""
        return iter(self._pairs)

    def items(self) -> Iterator[tuple[Configuration, complex]]:
        return ((Configuration._make(k), a) for k, a in self._pairs)

    def configurations(self) -> Iterator[Configuration]:
        return (Configuration._make(k) for k, _ in self._pairs)

    def _find(self, key: tuple, default=None):
        """The amplitude stored under ``key``, found by bisection."""
        pairs = self._pairs
        i = bisect_left(pairs, key, key=_first)
        return pairs[i][1] if i < len(pairs) and pairs[i][0] == key else default

    def amplitude(self, config: Configuration) -> complex:
        return self._find(config, 0j)

    def support_size(self) -> int:
        return len(self._pairs)

    def norm2(self) -> float:
        return self._norm2

    def halted_mass(self) -> float:
        return _mass(self._pairs[self._halted_from():])

    def component(self, halted: bool) -> "QuantumState":
        i = self._halted_from()
        return QuantumState._sorted(self._pairs[i:] if halted else self._pairs[:i])

    def renormalized(self) -> "QuantumState":
        n = self._norm2 ** 0.5
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return QuantumState._sorted([(k, a / n) for k, a in self._pairs])

    def inner(self, other: "QuantumState") -> complex:
        """<self|other>, conjugate-linear in ``self``."""
        if other.support_size() < self.support_size():
            return other.inner(self).conjugate()
        find = other._find
        return sum(a.conjugate() * b for k, a in self._pairs if (b := find(k)) is not None)

    def __eq__(self, other):
        return isinstance(other, QuantumState) and self._pairs == other._pairs

    def __len__(self):
        return len(self._pairs)

    def __repr__(self):
        inner = ", ".join(f"{a:.4g}*{c!r}" for c, a in self.items())
        return f"QuantumState({inner})"


def initial_state(spec: MachineSpec, terms: Iterable[tuple[complex, str]]) -> QuantumState:
    """The state S_0 of an input superposition, given as ``(amplitude,
    string)`` terms: each string on cells 0..len-1, head at cell 0, the
    machine in its initial state.

    Raises ParseError on an empty or repeated string, a string with a blank
    or a symbol outside the alphabet, or a squared norm more than
    ``DEFAULT_TOL`` from 1.  Terms of amplitude exactly 0 are left out, as
    ``step`` keeps no zero.
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
        total += amplitude.real ** 2 + amplitude.imag ** 2
    if abs(total - 1.0) > DEFAULT_TOL:
        raise ParseError(f"input amplitudes have squared norm {total!r}, expected 1")
    return QuantumState(
        {spec.config(spec.initial, tape_cells(t), 0): a for t, a in amps.items() if a != 0}
    )
