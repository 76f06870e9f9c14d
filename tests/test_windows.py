"""The window expansion behind ``check`` and ``lift``.

``_failing_windows`` generates each canonical pair of a failing pattern
once and orders all pairs by integer codes.  It is checked here against
``oracles.reference_failing_windows`` (a set per pattern and one sort of
nested key tuples): the same list, in the same order, with one
``Configuration`` object per distinct key.  The number of pairs a pattern
generates is checked against its closed form, which no duplicate survives.
"""

import random

import oracles
import pytest
from conftest import MACHINES, load_qtm, load_tm

from qtmlab import (
    BLANK,
    DEFAULT_TOL,
    Configuration,
    MachineSpec,
    RuleTarget,
    parse_machine,
)
from qtmlab.wellformed import _failing_windows, _windows

QTM_NAMES = sorted(p.stem for p in MACHINES.glob("*.qtm"))
TM_NAMES = ("collide", "flip_bits", "parity_mark", "seek_right", "unary_inc")

# Total pairs over the failing patterns, as check_wellformed sweeps a table
# ("check") and as lift_to_qtm sweeps its running rows ("lift").
TOTALS = {
    ("delayed_hadamard", "check"): 13365,
    ("hadamard_halt", "check"): 10692,
    ("hadamard_halt_naive", "check"): 10692,
    ("right_shift", "check"): 0,
    ("seek_right_lifted", "check"): 2673,
    ("collide", "lift"): 2673,
    ("flip_bits", "lift"): 0,
    ("parity_mark", "lift"): 0,
    ("seek_right", "lift"): 0,
    ("unary_inc", "lift"): 0,
    ("collide", "check"): 10692,
    ("flip_bits", "check"): 2673,
    ("parity_mark", "check"): 5346,
    ("seek_right", "check"): 2673,
    ("unary_inc", "check"): 2673,
    ("four_symbols", "check"): 2 * 3328 + 2560 + 16384,
}

# Failing patterns at head offsets 0, 1, 1 and 2 over four symbols.
FOUR_SYMBOLS = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 1 2 _

rule: q0 0 -> 1 : q1 2 R
rule: q0 1 -> 1 : q1 2 L
rule: q0 2 -> 1 : q1 2 N
rule: q1 0 -> 1 : qH 0 R
rule: q1 1 -> 1 : qH 0 R
"""


def sweep_keys(spec, mode):
    if mode == "lift":
        return [k for k in spec.rules if k[0] != spec.halt]
    return [(q, s) for q in spec.states for s in spec.alphabet if (q, s) in spec.rules]


def relabel(spec, seed, halt_first):
    """``spec`` with states and symbols renamed so that they sort in another
    order, and its state and alphabet lists shuffled."""
    rng = random.Random(seed)
    names = rng.sample(["b", "Z", "q9", "m", "aa", "r"], len(spec.states))
    if halt_first:
        names.sort()
    else:
        names.sort(reverse=True)
    state = dict(zip([spec.halt] + [q for q in spec.states if q != spec.halt], names))
    marks = [s for s in spec.alphabet if s != BLANK]
    symbol = dict(zip(marks, rng.sample(["x", "A", "7", "~", "b"], len(marks))))
    symbol[BLANK] = BLANK
    rules = {
        (state[q], symbol[s]): tuple(
            RuleTarget(t.amplitude, state[t.state], symbol[t.write], t.move)
            for t in targets
        )
        for (q, s), targets in spec.rules.items()
    }
    states = rng.sample([state[q] for q in spec.states], len(spec.states))
    alphabet = rng.sample([symbol[s] for s in spec.alphabet], len(spec.alphabet))
    return MachineSpec(
        tuple(states), state[spec.initial], state[spec.halt], tuple(alphabet), rules
    )


def corpus_cases():
    cases = [(n, load_qtm(n), "check") for n in QTM_NAMES]
    cases += [(n, load_tm(n), mode) for n in TM_NAMES for mode in ("check", "lift")]
    return [pytest.param(n, spec, mode, id=f"{n}-{mode}") for n, spec, mode in cases]


def relabeled_cases():
    bases = [
        ("hadamard_halt_naive", load_qtm("hadamard_halt_naive"), "check"),
        ("delayed_hadamard", load_qtm("delayed_hadamard"), "check"),
        ("collide", load_tm("collide"), "lift"),
        ("four_symbols", parse_machine(FOUR_SYMBOLS), "check"),
    ]
    return [
        pytest.param(name, relabel(spec, seed, first), mode, id=f"{name}-{mode}-seed{seed}")
        for name, spec, mode in bases
        for seed, first in ((1, True), (2, False))
    ]


CASES = corpus_cases() + relabeled_cases()


@pytest.mark.parametrize("name, spec, mode", CASES)
def test_failing_windows_match_reference(name, spec, mode):
    keys = sweep_keys(spec, mode)
    got = _failing_windows(spec, keys, DEFAULT_TOL)
    assert got == oracles.reference_failing_windows(spec, keys, DEFAULT_TOL)
    members = [c for pair in got for c in pair]
    assert all(type(c) is Configuration for c in members)
    assert len({id(c) for c in members}) == len(set(members))


def closed_form(d, n):
    f = 6 if d == 0 else 5
    return (5 - d) * n**f - (4 - d) * n ** (f - 1)


@pytest.mark.parametrize("name, spec, mode", CASES)
def test_pairs_per_pattern_follow_closed_form(name, spec, mode):
    total, offsets = 0, set()
    for pattern in oracles.failing_patterns(spec, sweep_keys(spec, mode), DEFAULT_TOL):
        pairs = _windows(spec, [pattern])
        assert len(set(pairs)) == len(pairs) == closed_form(pattern[0], len(spec.alphabet))
        total += len(pairs)
        offsets.add(pattern[0])
    assert total == TOTALS[name, mode]
    if name == "four_symbols":
        assert offsets == {0, 1, 2}
