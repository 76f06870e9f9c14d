"""Deterministic Turing machines: runs, reversibility, and the lift.

A classical machine is a ``MachineSpec`` whose every row is one
amplitude-1 target, and every entry point here refuses any other table
with ``ValueError``.  ``parsing.parse_classical`` builds that effective
table: a key with no declared rule halts there ("enter the halt state,
leave the symbol, move right"), and the halt state's rows drift right.  A
classical trajectory and the evolution of the same table therefore agree
configuration for configuration, including the rightward drift of halted
configurations.

The table preserves norm automatically; it is an isometry on running
configurations exactly when the classical transition function is
injective there.  ``lift_to_qtm`` decides that with ``wellformed``'s
pattern sweep over the running rows: a reversible table is returned as the
lifted machine, and any other raises with the colliding pairs.  A witness
is the pair ``(c1, c2)`` of running configurations, ``c1 < c2``; the
successor they share is ``_image(spec, c1)``.  Collisions between a
newly-halting image and the drift of an already-halted configuration are
inherent to the halting scheme (see ``wellformed``) and are not counted
against reversibility.
"""

from __future__ import annotations

from .errors import MissingRuleError, NotReversibleError
from .machine import (
    BLANK,
    Configuration,
    DEFAULT_TOL,
    MachineSpec,
    MOVE_DELTA,
    tape_cells,
)
from .wellformed import _failing_windows


def _require_classical(spec: MachineSpec) -> None:
    """Raise ``ValueError`` at the first row that is not one amplitude-1 target."""
    for key, targets in spec.rules.items():
        if len(targets) != 1 or targets[0].amplitude != 1:
            raise ValueError(f"not a classical table: row {key} is not one amplitude-1 target")


def _start(spec: MachineSpec, text: str, count: int) -> Configuration:
    """The configuration at head 0 on ``text``, once the table, ``text`` and
    the step ``count`` are checked."""
    _require_classical(spec)
    if count < 0:
        raise ValueError("step count must be non-negative")
    for ch in text:
        if ch not in spec.alphabet:
            raise ValueError(f"input symbol {ch!r} not in alphabet")
    return spec.config(spec.initial, tape_cells(text), 0)


def run_classical(spec: MachineSpec, text: str, budget: int) -> tuple[Configuration, int]:
    """Run from head 0 on ``text`` until halting or exhausting ``budget``;
    returns the last configuration and the number of steps taken.

    Entering the halt state consumes the step that got there; the run stops
    at that point rather than drifting on.
    """
    cfg, steps = _start(spec, text, budget), 0
    while steps < budget and not cfg.halted:
        cfg, steps = _image(spec, cfg), steps + 1
    return cfg, steps


def classical_trajectory(
    spec: MachineSpec, text: str, steps: int
) -> list[Configuration]:
    """Configurations S_0 .. S_steps, drifting right after halting."""
    out = [_start(spec, text, steps)]
    for _ in range(steps):
        out.append(_image(spec, out[-1]))
    return out


def _image(spec: MachineSpec, cfg: Configuration) -> Configuration:
    # through a dict of the cells, apart from ``step``'s splice: the
    # classical trajectory is the reference ``step`` is tested against
    cells = dict(cfg.cells)
    key = cfg.state, cells.pop(cfg.head, BLANK)
    if key not in spec.rules:
        raise MissingRuleError(*key)
    (t,) = spec.rules[key]
    if t.write != BLANK:
        cells[cfg.head] = t.write
    return spec.config(t.state, tuple(sorted(cells.items())), cfg.head + MOVE_DELTA[t.move])


def lift_to_qtm(spec: MachineSpec) -> MachineSpec:
    """The classical table itself, once it is checked to be reversible.

    The check is ``wellformed``'s pattern sweep over the running rows of the
    amplitude-1 table, whose images fail orthogonality exactly when they
    coincide.  When the transition is not injective on running
    configurations it raises ``NotReversibleError``, whose ``witnesses``
    are the colliding pairs ``(c1, c2)`` in canonical order.  Pairs with a
    halted member are left out: halted configurations drift injectively,
    and a running one colliding with a halted one is the signature of the
    halting scheme, not of the machine.  A table with a row that is not one
    amplitude-1 target raises ``ValueError``.
    """
    _require_classical(spec)
    running = [k for k in spec.rules if k[0] != spec.halt]
    witnesses = tuple(_failing_windows(spec, running, DEFAULT_TOL))
    if witnesses:
        raise NotReversibleError(witnesses)
    return spec
