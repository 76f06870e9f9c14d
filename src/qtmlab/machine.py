"""Machine model: tapes, configurations, rule tables, and sparse states.

A machine acts on basis configurations (halt flag, internal state, tape,
head position).  The halt flag is never stored independently: it is true
exactly when the internal state is the declared halt state, so rule files
cannot describe inconsistent flag/state combinations.

Tapes are two-way infinite and blank-filled; only non-blank cells are
stored, so two tapes are equal exactly when they agree on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ParseError

BLANK = "_"

#: Default numerical tolerance for norm and orthogonality checks.
DEFAULT_TOL = 1e-9

MOVES = ("L", "N", "R")
MOVE_DELTA = {"L": -1, "N": 0, "R": 1}


class Tape:
    """Immutable sparse tape.  Cells not stored read as the blank symbol."""

    __slots__ = ("cells", "_hash")

    def __init__(self, cells: Mapping[int, str] | tuple = ()):
        if isinstance(cells, tuple):
            items = cells
        else:
            items = tuple(sorted(cells.items()))
        # canonical form: sorted, no stored blanks
        items = tuple((p, s) for p, s in items if s != BLANK)
        object.__setattr__(self, "cells", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name, value):
        raise AttributeError("Tape is immutable")

    @classmethod
    def from_string(cls, text: str, origin: int = 0) -> "Tape":
        """Lay ``text`` on consecutive cells starting at ``origin``."""
        return cls({origin + i: s for i, s in enumerate(text)})

    def read(self, pos: int) -> str:
        for p, s in self.cells:
            if p == pos:
                return s
            if p > pos:
                break
        return BLANK

    def write(self, pos: int, symbol: str) -> "Tape":
        items = {p: s for p, s in self.cells}
        if symbol == BLANK:
            items.pop(pos, None)
        else:
            items[pos] = symbol
        return Tape(items)

    def shifted(self, offset: int) -> "Tape":
        return Tape(tuple((p + offset, s) for p, s in self.cells))

    def text(self) -> tuple[str, int]:
        """Contiguous rendering: (symbols between the extreme non-blank
        cells, with interior blanks shown as ``_``; position of the first).

        The empty tape renders as ("", 0).
        """
        if not self.cells:
            return "", 0
        lo = self.cells[0][0]
        hi = self.cells[-1][0]
        chars = [BLANK] * (hi - lo + 1)
        for p, s in self.cells:
            chars[p - lo] = s
        return "".join(chars), lo

    def __eq__(self, other):
        return isinstance(other, Tape) and self.cells == other.cells

    def __hash__(self):
        return self._hash

    def __repr__(self):
        text, origin = self.text()
        return f"Tape({text!r}@{origin})"


@dataclass(frozen=True, slots=True)
class Configuration:
    """One basis configuration.  ``halted`` is derived from ``state`` by the
    constructor helpers and must equal (state == halt state of the machine).
    """

    halted: bool
    state: str
    tape: Tape
    head: int

    def sort_key(self):
        return (self.halted, self.state, self.head, self.tape.cells)

    def shifted(self, offset: int) -> "Configuration":
        return Configuration(
            self.halted, self.state, self.tape.shifted(offset), self.head + offset
        )

    def __repr__(self):
        flag = "H" if self.halted else "."
        text, origin = self.tape.text()
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
    """A parsed quantum machine: rule table keyed by (state, read symbol)."""

    states: tuple[str, ...]
    initial: str
    halt: str
    alphabet: tuple[str, ...]
    rules: dict

    def config(self, state: str, tape: Tape, head: int) -> Configuration:
        return Configuration(state == self.halt, state, tape, head)

    def rule(self, state: str, symbol: str):
        return self.rules.get((state, symbol))


@dataclass(frozen=True)
class InputSpec:
    """Normalized superposition of classical input strings.

    Each term lays its string on cells 0..len-1 with the head at cell 0 and
    the machine in its initial state.
    """

    terms: tuple[tuple[complex, str], ...]


@dataclass(frozen=True, slots=True)
class StructureViolation:
    kind: str  # "halt_rule" or "row_norm"
    state: str
    symbol: str
    detail: str


#: Structural conditions that hold for every parsed MachineSpec simply
#: because of how rules are represented; the checker reports them as
#: satisfied by construction rather than re-verifying them.
BY_CONSTRUCTION = (
    "rules depend only on (state, symbol under head), not on head position",
    "each transition writes exactly one cell, the one under the head",
    "head moves are restricted to L, N, R (at most one cell)",
    "the halt flag of a configuration is derived from its internal state",
)


class QuantumState:
    """Finite-support map Configuration -> complex amplitude.

    Entries are kept in canonical configuration order so that iteration,
    accumulation, and reports are reproducible bit for bit.
    """

    __slots__ = ("_amps", "_norm2")

    def __init__(self, amps: dict):
        ordered = dict(sorted(amps.items(), key=lambda kv: kv[0].sort_key()))
        self._amps = ordered
        self._norm2 = sum(
            (a.real * a.real + a.imag * a.imag for a in ordered.values()),
            start=0.0,
        )

    @classmethod
    def of(cls, *pairs) -> "QuantumState":
        return cls({c: complex(a) for c, a in pairs})

    def items(self) -> Iterator[tuple[Configuration, complex]]:
        return iter(self._amps.items())

    def configurations(self):
        return iter(self._amps.keys())

    def amplitude(self, config: Configuration) -> complex:
        return self._amps.get(config, 0j)

    def support_size(self) -> int:
        return len(self._amps)

    def norm2(self) -> float:
        return self._norm2

    def halted_mass(self) -> float:
        return sum(
            (
                a.real * a.real + a.imag * a.imag
                for c, a in self._amps.items()
                if c.halted
            ),
            start=0.0,
        )

    def component(self, halted: bool) -> "QuantumState":
        return QuantumState(
            {c: a for c, a in self._amps.items() if c.halted == halted}
        )

    def renormalized(self) -> "QuantumState":
        n = self._norm2 ** 0.5
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return QuantumState({c: a / n for c, a in self._amps.items()})

    def inner(self, other: "QuantumState") -> complex:
        """<self|other>, conjugate-linear in ``self``."""
        if other.support_size() < self.support_size():
            return other.inner(self).conjugate()
        return sum(
            a.conjugate() * other._amps[c]
            for c, a in self._amps.items()
            if c in other._amps
        )

    def __eq__(self, other):
        return isinstance(other, QuantumState) and self._amps == other._amps

    def __len__(self):
        return len(self._amps)

    def __repr__(self):
        inner = ", ".join(f"{a:.4g}*{c!r}" for c, a in self._amps.items())
        return f"QuantumState({inner})"


def initial_state(spec: MachineSpec, inp: InputSpec) -> QuantumState:
    """Starting superposition for an input: head at cell 0, initial state."""
    amps = {}
    for amplitude, text in inp.terms:
        cfg = spec.config(spec.initial, Tape.from_string(text), 0)
        amps[cfg] = amps.get(cfg, 0j) + amplitude
    return QuantumState(amps)


def validate_structure(spec: MachineSpec, tol: float = DEFAULT_TOL):
    """Check the statically checkable transition conditions.

    Returns a list of StructureViolation:

    * ``halt_rule`` -- a rule whose source is the halt state must keep the
      machine halted: exactly one target, amplitude 1, same state, and the
      written symbol equal to the one read (the move is unconstrained).
    * ``row_norm`` -- the amplitudes of every rule row must have squared
      moduli summing to 1 (necessary for the step to be an isometry).
    """
    violations = []
    for (state, symbol), targets in spec.rules.items():
        if state == spec.halt:
            ok = (
                len(targets) == 1
                and abs(targets[0].amplitude - 1) <= tol
                and targets[0].state == spec.halt
                and targets[0].write == symbol
            )
            if not ok:
                violations.append(
                    StructureViolation(
                        "halt_rule",
                        state,
                        symbol,
                        "halt-state rule must have a single amplitude-1 target "
                        "that stays halted and rewrites the symbol it read",
                    )
                )
        norm2 = sum(
            t.amplitude.real ** 2 + t.amplitude.imag ** 2 for t in targets
        )
        if abs(norm2 - 1.0) > tol:
            violations.append(
                StructureViolation(
                    "row_norm", state, symbol, f"squared row norm {norm2!r}"
                )
            )
    return violations


def validate_input(spec: MachineSpec, inp: InputSpec, tol: float = DEFAULT_TOL):
    """Raise ParseError when an input specification is unusable."""
    seen = set()
    total = 0.0
    for amplitude, text in inp.terms:
        if text == "":
            raise ParseError("empty input string")
        if text in seen:
            raise ParseError(f"duplicate input string {text!r}")
        seen.add(text)
        for ch in text:
            if ch == BLANK:
                raise ParseError("input strings may not contain the blank symbol")
            if ch not in spec.alphabet:
                raise ParseError(f"symbol {ch!r} is not in the machine alphabet")
        total += amplitude.real ** 2 + amplitude.imag ** 2
    if abs(total - 1.0) > tol:
        raise ParseError(f"input amplitudes have squared norm {total!r}, expected 1")
