"""The window expansion behind ``check`` and ``lift``.

``_failing_windows`` generates each canonical pair of a failing pattern
once and orders all pairs by integer codes.  It is checked here against
``oracles.reference_failing_windows`` (a set per pattern and one sort of
nested key tuples): the same list, in the same order, with one
``Configuration`` object per distinct key, whatever order the patterns
arrive in.  The number of pairs a pattern generates is checked against its
closed form, which no duplicate survives.
"""

import random

import oracles
import pytest
from conftest import HALT_ROWS_COLLIDE, MACHINES, load_qtm, load_tm

from qtmlab import (
    BLANK,
    DEFAULT_TOL,
    Configuration,
    MachineSpec,
    RuleTarget,
    parse_machine,
)
from qtmlab.wellformed import _digits, _failing_windows, _windows

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
    ("blank_only", "check"): 1,
    ("two_symbols", "check"): 2 * 192,
    ("halt_rows_collide", "check"): 8991,
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

# The trivial halting machine over ``alphabet``: every running branch halts
# at once, onto the drift of a halted one.  Over ``_`` a window cell takes 0
# bits, over ``1 _`` 4 bits; the corpus has 5 (three symbols) and 6 (four).
TRIVIAL_HALT = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: {}

rule: q0 * -> 1 : qH * R
rule: qH * -> 1 : qH * R
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


def text_cases():
    """Machines the corpus lacks: window cells of 0 and 4 bits, and two halted
    members at heads 0 and 1, whose higher key takes the top rank bit."""
    texts = [
        ("blank_only", TRIVIAL_HALT.format("_")),
        ("two_symbols", TRIVIAL_HALT.format("1 _")),
        ("halt_rows_collide", HALT_ROWS_COLLIDE),
    ]
    return [pytest.param(n, parse_machine(t), "check", id=n) for n, t in texts]


CASES = corpus_cases() + relabeled_cases() + text_cases()


def test_cases_cover_every_cell_width_up_to_four_symbols():
    assert {_digits(c.values[1].alphabet)[1] for c in CASES} == {0, 4, 5, 6}


def assert_one_object_per_key(pairs):
    members = [c for pair in pairs for c in pair]
    assert all(type(c) is Configuration for c in members)
    assert len({id(c) for c in members}) == len(set(members))


@pytest.mark.parametrize("name, spec, mode", CASES)
def test_failing_windows_match_reference(name, spec, mode):
    keys = sweep_keys(spec, mode)
    got = _failing_windows(spec, keys, DEFAULT_TOL)
    assert got == oracles.reference_failing_windows(spec, keys, DEFAULT_TOL)
    assert_one_object_per_key(got)


def failing_patterns(spec, mode):
    return oracles.failing_patterns(spec, sweep_keys(spec, mode), DEFAULT_TOL)


MULTI_PATTERN_CASES = [c for c in CASES if len(failing_patterns(*c.values[1:])) > 1]


@pytest.mark.parametrize("name, spec, mode", MULTI_PATTERN_CASES)
def test_pattern_order_does_not_matter(name, spec, mode):
    patterns = failing_patterns(spec, mode)
    shuffled = random.Random(7).sample(patterns, len(patterns))
    assert shuffled != patterns
    got = _windows(spec, patterns)
    assert_one_object_per_key(got)
    for order in (patterns[::-1], shuffled):
        again = _windows(spec, order)
        assert again == got
        assert_one_object_per_key(again)


def closed_form(d, n):
    f = 6 if d == 0 else 5
    return (5 - d) * n**f - (4 - d) * n ** (f - 1)


@pytest.mark.parametrize("name, spec, mode", CASES)
def test_pairs_per_pattern_follow_closed_form(name, spec, mode):
    total, offsets = 0, set()
    for pattern in failing_patterns(spec, mode):
        pairs = _windows(spec, [pattern])
        assert len(set(pairs)) == len(pairs) == closed_form(pattern[0], len(spec.alphabet))
        total += len(pairs)
        offsets.add(pattern[0])
    assert total == TOTALS[name, mode]
    if name == "four_symbols":
        assert offsets == {0, 1, 2}
