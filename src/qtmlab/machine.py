"""Machine model: tapes, configurations and rule tables.

A machine acts on basis configurations (halt flag, internal state, head
position, tape).  The halt flag is never stored independently: it is true
exactly when the internal state is the declared halt state, so rule files
cannot describe inconsistent flag/state combinations.

Tapes are two-way infinite and blank-filled.  A tape is its canonical
cells tuple: ``(position, symbol)`` pairs sorted by position with no blank
stored, so two tapes are equal exactly when they agree on every cell.
``tape_cells`` lays a string on a tape and ``tape_text`` renders one.

A configuration has one layout, the named tuple ``Configuration(halted,
state, head, cells)``, so it is its own sort key.  The sparse states of
``evolution`` store such tuples, ``step`` builds them plain, the checker's
window keys share the layout, and measured outcomes carry the same
``cells``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

BLANK = "_"

#: Default numerical tolerance for norm and orthogonality checks.
DEFAULT_TOL = 1e-9

MOVES = ("L", "N", "R")
MOVE_DELTA = {"L": -1, "N": 0, "R": 1}


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
