"""Unmeasured evolution of sparse states under a machine's step operator.

One step maps every support configuration through its rule row and sums
amplitudes of coinciding targets.  Sources are visited in canonical
configuration order and targets in rule order, so accumulation -- and with
it every floating-point rounding -- is reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingRuleError
from .machine import (
    Configuration,
    InputSpec,
    MachineSpec,
    MOVE_DELTA,
    QuantumState,
    initial_state,
)


def step(spec: MachineSpec, state: QuantumState, prune: float = 0.0) -> QuantumState:
    """Apply the step operator once.

    Raises MissingRuleError when a support configuration reads a symbol its
    state has no rule for: partial machines are legal only as long as the
    evolution never reaches the gap.

    ``prune`` drops accumulated amplitudes of modulus below the threshold;
    the default keeps everything except exact zeros (a configuration whose
    amplitude cancelled to 0.0 is simply not part of the superposition).
    """
    acc: dict[Configuration, complex] = {}
    for cfg, amp in state.items():
        symbol = cfg.tape.read(cfg.head)
        targets = spec.rules.get((cfg.state, symbol))
        if targets is None:
            raise MissingRuleError(cfg.state, symbol)
        for t in targets:
            ncfg = Configuration(
                t.state == spec.halt,
                t.state,
                cfg.tape.write(cfg.head, t.write),
                cfg.head + MOVE_DELTA[t.move],
            )
            prev = acc.get(ncfg)
            acc[ncfg] = amp * t.amplitude if prev is None else prev + amp * t.amplitude
    return QuantumState(
        {c: a for c, a in acc.items() if a != 0 and abs(a) >= prune}
    )


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
    inp: InputSpec,
    steps: int,
    prune: float = 0.0,
) -> tuple[QuantumState, EvolutionTrace]:
    """Run ``steps`` unmeasured steps from an input superposition.

    Returns the final state together with a per-step trace of support size,
    squared norm, and halted mass (row 0 describes the initial state).
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    state = initial_state(spec, inp)
    rows = [TraceRow(0, state.support_size(), state.norm2(), state.halted_mass())]
    for n in range(1, steps + 1):
        state = step(spec, state, prune=prune)
        rows.append(
            TraceRow(n, state.support_size(), state.norm2(), state.halted_mass())
        )
    return state, EvolutionTrace(tuple(rows))


def states_through(
    spec: MachineSpec, inp: InputSpec, steps: int
) -> list[QuantumState]:
    """All unmeasured states S_0..S_steps; S_0 is the input superposition."""
    state = initial_state(spec, inp)
    out = [state]
    for _ in range(steps):
        state = step(spec, state)
        out.append(state)
    return out
