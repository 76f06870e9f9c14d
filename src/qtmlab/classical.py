"""Deterministic Turing machines and their lift to quantum rule tables.

A classical machine with no rule for some (state, symbol) key is treated as
halting there: the effective rule is "enter the halt state, leave the
symbol, move right".  The lift materializes exactly that rule, so a
classical trajectory and the evolution of the lifted machine agree
configuration for configuration, including the rightward drift of halted
configurations.

Lifting assigns every effective rule amplitude 1.  The result preserves
norm automatically; it is an isometry on running configurations exactly
when the classical transition function is injective there.
``check_reversible`` decides that with ``wellformed``'s pattern sweep, run
on the running rows of the amplitude-1 lift before the lift is checked; a
witness computes the successor its two members share only when read.
Collisions between a newly-halting image and the drift of an
already-halted configuration are inherent to the halting scheme (see
``wellformed``) and are not counted against reversibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotReversibleError
from .machine import (
    BLANK,
    Configuration,
    DEFAULT_TOL,
    MachineSpec,
    MOVE_DELTA,
    RuleTarget,
    tape_cells,
)
from .wellformed import _failing_windows


@dataclass(frozen=True)
class ClassicalTM:
    states: tuple[str, ...]
    initial: str
    halt: str
    alphabet: tuple[str, ...]
    rules: dict  # (state, symbol) -> (state, write, move)

    def config(self, state: str, cells: tuple, head: int) -> Configuration:
        return Configuration(state == self.halt, state, head, cells)

    def rule(self, state: str, symbol: str) -> tuple[str, str, str]:
        """Effective rule, with missing keys materialized as halting moves.

        Querying the halt state yields the drift rule (keep the symbol,
        move right), matching the lifted machine's behaviour.
        """
        got = self.rules.get((state, symbol))
        if got is None:
            return (self.halt, symbol, "R")
        return got


@dataclass(frozen=True, slots=True)
class ClassicalRun:
    halted: bool
    steps: int
    state: str
    cells: tuple
    head: int


@dataclass(frozen=True, slots=True)
class InjectivityWitness:
    """Two distinct running configurations sharing one successor."""

    c1: Configuration
    c2: Configuration
    tm: ClassicalTM = field(repr=False, compare=False)

    @property
    def image(self) -> Configuration:
        """The shared successor; computed per read."""
        return _image(self.tm, self.c1)


@dataclass(frozen=True)
class ReversibilityReport:
    reversible: bool
    witnesses: tuple[InjectivityWitness, ...]


def run_classical(tm: ClassicalTM, text: str, budget: int) -> ClassicalRun:
    """Run from head 0 on ``text`` until halting or exhausting ``budget``.

    Entering the halt state consumes the step that got there; the run stops
    at that point rather than drifting on.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    for ch in text:
        if ch not in tm.alphabet:
            raise ValueError(f"input symbol {ch!r} not in alphabet")
    cells = {i: ch for i, ch in enumerate(text) if ch != BLANK}
    state, head, steps = tm.initial, 0, 0
    while steps < budget and state != tm.halt:
        state, write, move = tm.rule(state, cells.pop(head, BLANK))
        if write != BLANK:
            cells[head] = write
        head += MOVE_DELTA[move]
        steps += 1
    return ClassicalRun(state == tm.halt, steps, state, tuple(sorted(cells.items())), head)


def classical_trajectory(
    tm: ClassicalTM, text: str, steps: int
) -> list[Configuration]:
    """Configurations S_0 .. S_steps, drifting right after halting."""
    cfg = tm.config(tm.initial, tape_cells(text), 0)
    out = [cfg]
    for _ in range(steps):
        cfg = _image(tm, cfg)
        out.append(cfg)
    return out


def _image(tm: ClassicalTM, cfg: Configuration) -> Configuration:
    # through a dict of the cells, apart from ``step``'s splice: the
    # classical trajectory is the reference ``step`` is tested against
    cells = dict(cfg.cells)
    state, write, move = tm.rule(cfg.state, cells.pop(cfg.head, BLANK))
    if write != BLANK:
        cells[cfg.head] = write
    return tm.config(state, tuple(sorted(cells.items())), cfg.head + MOVE_DELTA[move])


def _lifted_rules(tm: ClassicalTM) -> dict:
    """The effective rule table, every rule a single amplitude-1 target."""
    return {
        (q, s): (RuleTarget(complex(1), *tm.rule(q, s)),)
        for q in tm.states
        for s in tm.alphabet
    }


def check_reversible(tm: ClassicalTM) -> ReversibilityReport:
    """Decide injectivity of the effective transition on running
    configurations: ``wellformed``'s pattern sweep over the running rows of
    the unchecked amplitude-1 lift, whose images fail orthogonality exactly
    when they coincide.  Pairs with a halted member are left out: halted
    configurations drift injectively, and a running one colliding with a
    halted one is the signature of the halting scheme, not of the machine.
    """
    rules = _lifted_rules(tm)
    running = [k for k in rules if k[0] != tm.halt]
    witnesses = tuple(
        InjectivityWitness(c1, c2, tm)
        for c1, c2 in _failing_windows(tm, running, rules, DEFAULT_TOL)
    )
    return ReversibilityReport(not witnesses, witnesses)


def lift_to_qtm(tm: ClassicalTM) -> MachineSpec:
    """Total quantum rule table with every effective rule at amplitude 1.

    Raises ``NotReversibleError`` when the classical transition is not
    injective on running configurations; the error carries the witnesses.
    """
    report = check_reversible(tm)
    if not report.reversible:
        raise NotReversibleError(report.witnesses)
    return MachineSpec(
        states=tm.states,
        initial=tm.initial,
        halt=tm.halt,
        alphabet=tm.alphabet,
        rules=_lifted_rules(tm),
    )
