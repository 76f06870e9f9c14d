"""Step operator tests: hand-computed images, laws, and trace rows."""

import dataclasses
import json
import math
import sys
from itertools import chain, islice, product

import pytest
from conftest import MACHINES, ROOT
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import config_key, make_imager

from qtmlab import (
    BLANK,
    Configuration,
    MachineSpec,
    MissingRuleError,
    NotReversibleError,
    QtmError,
    QuantumState,
    RuleTarget,
    TraceRow,
    check_wellformed,
    evolve,
    lift_to_qtm,
    parse_classical,
    parse_input,
    parse_machine,
    step,
    tape_cells,
    tape_text,
    trajectory,
)
from qtmlab import cli

R2 = 1 / math.sqrt(2)
STEPPING_INPUT = "1/sqrt(2):01 + 1/sqrt(2):1100"

def one(spec, text, steps=1):
    state, _ = evolve(spec, parse_input(text, spec), steps)
    return state


def amps_by_tape(spec, state):
    out = {}
    for cfg, amp in state.items():
        text, origin = tape_text(cfg.cells)
        out[(cfg.state, text, origin, cfg.head)] = amp
    return out


class TestSingleSteps:
    def test_branching_on_zero(self, hadamard_halt):
        got = amps_by_tape(hadamard_halt, one(hadamard_halt, "0"))
        assert got == {
            ("qH", "0", 0, 1): pytest.approx(complex(R2)),
            ("qH", "1", 0, 1): pytest.approx(complex(R2)),
        }

    def test_branching_on_one_carries_minus_sign(self, hadamard_halt):
        got = amps_by_tape(hadamard_halt, one(hadamard_halt, "1"))
        assert got == {
            ("qH", "0", 0, 1): pytest.approx(complex(R2)),
            ("qH", "1", 0, 1): pytest.approx(complex(-R2)),
        }

    def test_interference_collapses_superposed_input(self, hadamard_halt):
        state = one(hadamard_halt, "1/sqrt(2):0 + 1/sqrt(2):1")
        got = amps_by_tape(hadamard_halt, state)
        assert got == {("qH", "0", 0, 1): pytest.approx(1 + 0j)}

    def test_halted_configurations_drift_right(self, hadamard_halt):
        halted = hadamard_halt.config("qH", tape_cells("1"), 5)
        out = step(hadamard_halt, QuantumState({halted: 1.0}))
        ((cfg, amp),) = list(out.items())
        assert cfg.state == "qH"
        assert cfg.head == 6
        assert cfg.cells == halted.cells
        assert amp == 1 + 0j

    def test_coinciding_terms_add_in_generation_order(self, hadamard_halt):
        # three sources reach (qH, tape 0, head 1): the two running ones in
        # canonical order, then the halted one's drift
        def config(state, text, head):
            return hadamard_halt.config(state, tape_cells(text), head)

        state = QuantumState(
            {config("q0", "0", 0): 0.1, config("q0", "1", 0): 0.1, config("qH", "0", 0): 0.6}
        )
        r = hadamard_halt.step_rows["q0"]["0"][0][3]
        x, y, z = complex(0.1) * r, complex(0.1) * r, complex(0.6)
        assert (x + y) + z != (z + y) + x  # the order shows in the last bit
        assert step(hadamard_halt, state).amplitude(config("qH", "0", 1)) == (x + y) + z

    def test_missing_rule_raises(self, hadamard_halt_naive):
        blank_read = hadamard_halt_naive.config("q0", (), 0)
        with pytest.raises(MissingRuleError) as err:
            step(hadamard_halt_naive, QuantumState({blank_read: 1.0}))
        assert err.value.state == "q0"
        assert err.value.symbol == "_"

    def test_prune_drops_small_amplitudes(self, right_shift):
        big = right_shift.config("q0", tape_cells("0"), 0)
        tiny = right_shift.config("q0", tape_cells("1"), 0)
        state = QuantumState({big: 1.0, tiny: 1e-15})
        assert len(step(right_shift, state, prune=1e-12)) == 1
        assert len(step(right_shift, state)) == 2


class TestEvolve:
    def test_zero_steps_is_identity(self, hadamard_halt):
        start = parse_input("0", hadamard_halt)
        state, rows = evolve(hadamard_halt, start, 0)
        assert state == start
        assert len(rows) == 1
        assert rows[0].step == 0

    def test_negative_steps_rejected(self, hadamard_halt):
        with pytest.raises(ValueError):
            evolve(hadamard_halt, parse_input("0", hadamard_halt), -1)

    def test_two_steps_compose(self, hadamard_halt):
        start = parse_input("0", hadamard_halt)
        state, _ = evolve(hadamard_halt, start, 2)
        assert state == step(hadamard_halt, step(hadamard_halt, start))

    def test_trajectory_prefixes_match_evolve(self, delayed_hadamard):
        inp = parse_input("10", delayed_hadamard)
        states = list(trajectory(delayed_hadamard, inp, 0, 4))
        assert [t for t, _ in states] == [1, 2, 3, 4]
        for n in (2, 4):
            assert states[n - 1][1] == evolve(delayed_hadamard, inp, n)[0]

    def test_trajectory_resumes_mid_run(self, delayed_hadamard):
        # run_schedule resumes the evolution after each measurement
        states = dict(trajectory(delayed_hadamard, parse_input("10", delayed_hadamard), 0, 4))
        resumed = list(trajectory(delayed_hadamard, states[2], 2, 4))
        assert resumed == [(3, states[3]), (4, states[4])]

    def test_trajectory_refuses_a_stop_below_its_start(self, delayed_hadamard):
        # the one budget check of every evolving entry point
        inp = parse_input("10", delayed_hadamard)
        assert list(trajectory(delayed_hadamard, inp, 3, 3)) == []
        with pytest.raises(ValueError, match=r"budget 2 is below the start step 3"):
            next(trajectory(delayed_hadamard, inp, 3, 2))

    def test_trajectory_is_lazy(self, monkeypatch, right_shift):
        # right_shift never halts, so an unbounded stop would never return
        calls = []

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr("qtmlab.evolution.step", counted)
        start = parse_input("0", right_shift)
        taken = list(islice(trajectory(right_shift, start, 0, 10**18), 3))
        assert [t for t, _ in taken] == [1, 2, 3]
        assert len(calls) == 3

    @pytest.mark.parametrize("path", sorted(MACHINES.glob("*.qtm")), ids=lambda p: p.stem)
    def test_rows_are_the_trajectory(self, path):
        spec = parse_machine(path.read_text())
        for text in ("0", "1/sqrt(2):0 + 1/sqrt(2):1"):
            start = parse_input(text, spec)
            expected = tuple(
                TraceRow(t, len(s), s.norm2(), s.halted_mass())
                for t, s in chain([(0, start)], trajectory(spec, start, 0, 6))
            )
            assert evolve(spec, start, 6)[1] == expected

    def test_norm_preserved_by_well_formed_machine(self, right_shift):
        _, rows = evolve(right_shift, parse_input("0110", right_shift), 50)
        for row in rows:
            assert row.norm2 == pytest.approx(1.0, abs=1e-12)

    def test_halted_mass_monotone(self, delayed_hadamard):
        _, rows = evolve(delayed_hadamard, parse_input("10", delayed_hadamard), 30)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.halted_mass >= prev.halted_mass - 1e-12


def small_states(spec):
    config = st.builds(
        spec.config,
        st.sampled_from(spec.states),
        st.builds(tape_cells, st.text(alphabet="01", min_size=1, max_size=3)),
        st.integers(-1, 2),
    )
    amplitude = st.complex_numbers(max_magnitude=1, allow_nan=False)
    return st.dictionaries(config, amplitude, min_size=1, max_size=4).map(QuantumState)


class TestStepLaws:
    """Laws checked on delayed_hadamard, whose rule table is total."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_linearity(self, data, delayed_hadamard):
        x = data.draw(small_states(delayed_hadamard))
        y = data.draw(small_states(delayed_hadamard))
        a = data.draw(st.complex_numbers(max_magnitude=1, allow_nan=False))
        combined = {c: a * amp for c, amp in x.items()}
        for c, amp in y.items():
            combined[c] = combined.get(c, 0j) + amp
        lhs = step(delayed_hadamard, QuantumState(combined))
        sx = step(delayed_hadamard, x)
        sy = step(delayed_hadamard, y)
        rhs = {c: a * amp for c, amp in sx.items()}
        for c, amp in sy.items():
            rhs[c] = rhs.get(c, 0j) + amp
        support = set(lhs.configurations()) | set(rhs)
        for c in support:
            assert lhs.amplitude(c) == pytest.approx(rhs.get(c, 0j), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), offset=st.integers(-7, 7))
    def test_translation_invariance_is_exact(self, data, offset, delayed_hadamard):
        x = data.draw(small_states(delayed_hadamard))
        shifted = QuantumState({c.shifted(offset): a for c, a in x.items()})
        lhs = step(delayed_hadamard, shifted)
        rhs = QuantumState(
            {c.shifted(offset): a for c, a in step(delayed_hadamard, x).items()}
        )
        assert lhs == rhs


# No corpus machine writes the blank over a symbol or a symbol over the
# blank; this one does both, so the oracle also covers erased cells.
ERASER = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 0 -> 1/sqrt(2) : q1 _ L | 1/sqrt(2) : qH 1 R
rule: q0 1 -> 1/sqrt(2) : q1 _ L | -1/sqrt(2) : qH 0 N
rule: q0 _ -> 1 : q1 0 N
rule: q1 0 -> 1 : q0 _ R
rule: qH * -> 1 : qH * R
"""

# the eraser with a halt row that stays put steps halted configurations
# through the rule loop, as every machine without a drift_amplitude does
STAYING_ERASER = ERASER.replace("qH * -> 1 : qH * R", "qH * -> 1 : qH * N")
# the eraser whose halt rows multiply by 1 - 0i, which moves the sign of a
# zero part where 1 + 0i does not
MINUS_ZERO_ERASER = ERASER.replace("qH * -> 1 :", "qH * -> 1 - 0i :")
# the eraser with a halt state whose name sorts before every running one's:
# halted keys still come last
HALT_NAMED_FIRST = ERASER.replace("qH", "a")
# every target key (q1, h) gets three terms, from q0 at h (rule position 1),
# q1 at h-1 (position 2) and q2 at h+1 (position 0): neither the reversed
# source order nor rule-position-major order adds them as canonical order does
GATHER = """\
qtm-spec v1
states: q0 q1 q2 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1/sqrt(3) : q0 * L | 1/sqrt(3) : q1 * N | 1/sqrt(3) : q2 * R
rule: q1 * -> 1/sqrt(3) : q2 * L | 1/sqrt(3) : q0 * R | 1/sqrt(3) : q1 * R
rule: q2 * -> 1/sqrt(3) : q1 * L | 1/sqrt(3) : q2 * N | 1/sqrt(3) : qH * R
rule: qH * -> 1 : qH * R
"""
EXTRA = {
    "eraser": ERASER,
    "eraser_halt_named_first": HALT_NAMED_FIRST,
    "eraser_halt_stays": STAYING_ERASER,
    "eraser_minus_zero_drift": MINUS_ZERO_ERASER,
    "gather": GATHER,
}
ORACLE_MACHINES = sorted(p.name for p in MACHINES.glob("*.qtm")) + sorted(EXTRA)


def _load(name):
    return parse_machine(EXTRA[name] if name in EXTRA else (MACHINES / name).read_text())


# pinned, so that a slip that turns drift detection off fails TestBulkDrift
# rather than emptying its parametrization
DRIFTING_MACHINES = [
    "delayed_hadamard.qtm",
    "hadamard_halt.qtm",
    "hadamard_halt_naive.qtm",
    "right_shift.qtm",
    "seek_right_lifted.qtm",
    "eraser",
    "eraser_halt_named_first",
    "eraser_minus_zero_drift",
    "gather",
]


# parts often a signed zero, so that a product's zero part shows its sign,
# or one of a few exact values, so that sums cancel
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]), st.sampled_from([0.5, -0.5, 0.6, -0.8]), st.floats(-1, 1)
)


def mixed_states(spec):
    """Small states over every state of ``spec``, running and halted, with
    tapes on cells -3..3 whose cell under the head is often blank, and
    amplitudes of ``PARTS``."""
    tape = st.dictionaries(
        st.integers(-3, 3), st.sampled_from(spec.alphabet), max_size=4
    ).map(lambda cells: tuple(sorted((p, s) for p, s in cells.items() if s != BLANK)))
    config = st.builds(
        spec.config, st.sampled_from(spec.states), tape, st.integers(-3, 3)
    )
    return st.dictionaries(config, st.builds(complex, PARTS, PARTS), min_size=1, max_size=6)


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: ``draw`` gives the
    value named by its label, whatever the strategy."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]

    def __repr__(self):
        return f"Drawn(**{self.values!r})"


class TestStepMatchesOracle:
    """``step`` against tests/oracles.make_imager, bit for bit."""

    @pytest.mark.parametrize("name", ORACLE_MACHINES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    # the minus-zero eraser's halt row, 1 - 0i, makes this -0.0 real part +0.0,
    # where 1 + 0i would keep it
    @example(data=Drawn(amps={Configuration(True, "qH", 0, ()): complex(-0.0, 1.0)}, prune=0.0))
    def test_step_is_bit_exact(self, name, data):
        spec = _load(name)
        amps = data.draw(mixed_states(spec), label="amps")
        # the example's qH is no state of the eraser whose halt state is named a
        assume({c.state for c in amps} <= set(spec.states))
        image = make_imager(spec)
        expected: dict = {}
        gap = None
        for cfg in sorted(amps, key=config_key):
            targets = image(cfg)
            if targets is None:
                gap = cfg
                break
            for key, a in targets.items():
                prev = expected.get(key)
                expected[key] = amps[cfg] * a if prev is None else prev + amps[cfg] * a
        state = QuantumState(amps)
        # a threshold equal to an amplitude's modulus keeps that amplitude
        moduli = sorted(abs(a) for a in expected.values()) or [0.0]
        prune = data.draw(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from(moduli)), label="prune"
        )
        if gap is not None:
            with pytest.raises(MissingRuleError) as err:
                step(spec, state, prune)
            symbol = dict(gap.cells).get(gap.head, BLANK)
            assert (err.value.state, err.value.symbol) == (gap.state, symbol)
            return
        kept = {k: a for k, a in expected.items() if a != 0 and abs(a) >= prune}
        got = [(config_key(c), a) for c, a in step(spec, state, prune).items()]
        want = sorted(kept.items(), key=lambda kv: kv[0])
        assert got == want
        # == takes -0.0 for 0.0; repr tells the bits apart
        assert [(k, repr(a)) for k, a in got] == [(k, repr(a)) for k, a in want]

    @pytest.mark.parametrize("name", ORACLE_MACHINES)
    def test_every_gap_raises(self, name):
        spec = _load(name)
        gaps = [
            (q, s) for q in spec.states for s in spec.alphabet if (q, s) not in spec.rules
        ]
        for q, s in gaps:
            cfg = spec.config(q, tape_cells(s), 0)
            with pytest.raises(MissingRuleError) as err:
                step(spec, QuantumState({cfg: 1.0}))
            assert (err.value.state, err.value.symbol) == (q, s)


class TestBuckets:
    """``step`` sums each target state's terms in a bucket of its own, the
    buckets in ``(halted, state)`` order."""

    def test_drifting_machines_are_pinned(self):
        assert DRIFTING_MACHINES == [
            n for n in ORACLE_MACHINES if _load(n).drift_amplitude is not None
        ]

    @pytest.mark.parametrize("name", ORACLE_MACHINES)
    def test_every_target_names_its_bucket(self, name):
        spec = _load(name)
        order = list(spec.step_rows)
        assert order == sorted(order, key=lambda q: (q == spec.halt, q))
        assert order[-1] == spec.halt
        for (q, s), targets in spec.rules.items():
            row = spec.step_rows[q][s]
            assert [order[b] for b, *_ in row] == [t.state for t in targets]

    @staticmethod
    def _oracle_bits(spec, amps):
        """The oracle's image of ``amps``, sources added in canonical order."""
        image, expected = make_imager(spec), {}
        for cfg in sorted(amps, key=config_key):
            for key, a in image(cfg).items():
                expected[key] = expected[key] + amps[cfg] * a if key in expected else amps[cfg] * a
        return [(k, repr(a)) for k, a in sorted(expected.items()) if a != 0]

    def test_three_sources_meet_in_canonical_order(self):
        spec = _load("gather")
        cells = tape_cells("01")
        amps = {
            spec.config("q0", cells, 1): 0.1,
            spec.config("q1", cells, 0): -0.4,
            spec.config("q2", cells, 2): 0.8,
        }
        image = make_imager(spec)
        target = config_key(spec.config("q1", cells, 1))
        x, y, z = (a * image(c)[target] for c, a in amps.items())
        # each order of the three terms rounds differently
        assert len({repr((x + y) + z), repr((z + x) + y), repr((z + y) + x)}) == 3
        got = step(spec, QuantumState(amps))
        assert _bits(got) == self._oracle_bits(spec, amps)
        assert repr(got.amplitude(Configuration(*target))) == repr((x + y) + z)

    def test_halted_keys_come_last_whatever_the_names(self):
        spec = _load("eraser_halt_named_first")
        amps = {
            spec.config("q0", tape_cells("0"), 0): 0.6,
            spec.config("q0", tape_cells("10"), 1): 0.48j,
            spec.config("a", tape_cells("1"), -1): 0.64,
        }
        got = step(spec, QuantumState(amps))
        assert _bits(got) == self._oracle_bits(spec, amps)
        assert [k[:2] for k, _ in got.keyed_items()] == [
            (False, "q1"), (False, "q1"), (True, "a"), (True, "a"), (True, "a")
        ]


class TestHeadRead:
    """``step`` reads the cell under the head by its offset from the first
    cell, which holds on a tape with no blank gap before the head, and by
    bisection otherwise.  A gapped tape with the head left of it, on each of
    its cells and gaps, and right of it steps as the oracle says."""

    @pytest.mark.parametrize("name", sorted(EXTRA))
    def test_gapped_tape_steps_match_the_oracle(self, name):
        spec = _load(name)
        image = make_imager(spec)
        amp = complex(0.6, -0.8)
        for fill in product("01", repeat=3):
            cells = tuple(zip((-2, 0, 3), fill))
            for q in spec.states:
                for head in range(-4, 5):
                    cfg = spec.config(q, cells, head)
                    targets = image(cfg)
                    if targets is None:
                        with pytest.raises(MissingRuleError) as err:
                            step(spec, QuantumState({cfg: amp}))
                        symbol = dict(cells).get(head, BLANK)
                        assert (err.value.state, err.value.symbol) == (q, symbol)
                        continue
                    want = sorted((k, repr(amp * a)) for k, a in targets.items())
                    got = step(spec, QuantumState({cfg: amp})).keyed_items()
                    assert [(k, repr(a)) for k, a in got] == want

    def test_an_undeclared_target_without_rules_is_a_gap(self):
        spec = MachineSpec(
            states=("q0", "qH"),
            initial="q0",
            halt="qH",
            alphabet=("0", BLANK),
            rules={
                ("q0", "0"): (RuleTarget(1, "qX", "0", "R"),),
                **{("qH", s): (RuleTarget(1, "qH", s, "R"),) for s in ("0", BLANK)},
            },
        )
        state = step(spec, QuantumState({spec.config("q0", tape_cells("0"), 0): 1.0}))
        assert [k[1] for k, _ in state.keyed_items()] == ["qX"]
        with pytest.raises(MissingRuleError) as err:
            step(spec, state)
        assert (err.value.state, err.value.symbol) == ("qX", BLANK)


def _bits(state):
    return [(k, repr(a)) for k, a in state.keyed_items()]


def _general(monkeypatch, spec):
    """A copy of ``spec`` that ``step`` takes through the rule loop alone."""
    slow = dataclasses.replace(spec)
    monkeypatch.setitem(vars(slow), "drift_amplitude", None)
    return slow


def _evolved(spec, state, prune):
    """The states of up to 8 steps from ``state``, and the error that ended
    them, if any."""
    states = []
    try:
        for _, s in trajectory(spec, state, 0, 8, prune):
            states.append(s)
    except QtmError as exc:
        return states, (type(exc), str(exc))
    return states, None


def _views(state):
    """What each view of ``state`` gives, with every float as its repr."""
    halted, running = state.component(True), state.component(False)
    return (
        _bits(state), len(state), repr(state.norm2()), repr(state.halted_mass()),
        _bits(halted), repr(halted.norm2()), _bits(running), repr(running.norm2()),
        _bits(state.renormalized()), repr(state),
        [repr(state.amplitude(c)) for c in state.configurations()],
        state == QuantumState(dict(state.items())),
    )


MIXED_HALT_ROWS = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1 : qH * R
rule: qH 0 -> 1 : qH 0 R
rule: qH 1 -> 1 - 0i : qH 1 R
rule: qH _ -> 1 : qH _ R
"""


class TestBulkDrift:
    """Under ``drift_amplitude`` halted amplitude drifts in the state's
    ledger; every state, and every view of it, equals the rule loop's bit
    for bit."""

    @pytest.mark.parametrize("name", DRIFTING_MACHINES)
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bulk_drift_matches_general_path(self, name, monkeypatch, data):
        spec = _load(name)
        assert spec.drift_amplitude is not None
        slow = _general(monkeypatch, spec)
        state = QuantumState(data.draw(mixed_states(spec)))
        try:
            expected = step(slow, state)
        except MissingRuleError as exc:
            with pytest.raises(MissingRuleError) as err:
                step(spec, state)
            assert (err.value.state, err.value.symbol) == (exc.state, exc.symbol)
            return
        moduli = sorted(abs(a) for _, a in expected.keyed_items()) or [0.0]
        prune = data.draw(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from(moduli))
        )
        assert _bits(step(spec, state, prune)) == _bits(step(slow, state, prune))

    @pytest.mark.parametrize("name", DRIFTING_MACHINES)
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_trajectory_matches_general_path(self, name, monkeypatch, data):
        # stepping a state whose halted amplitude is in the ledger: every view
        # of every state of up to 8 steps, bit for bit
        spec = _load(name)
        amps = data.draw(mixed_states(spec))
        for cfg, a in list(amps.items()):
            # a halted twin meets a running configuration that seeks right
            # as it halts, and cancels it
            if not cfg.halted and data.draw(st.booleans()):
                amps.setdefault(spec.config(spec.halt, cfg.cells, cfg.head), -a)
        moduli = sorted(abs(a) for a in amps.values())
        prune = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from(moduli)))
        state = QuantumState(amps)
        got, got_error = _evolved(spec, state, prune)
        want, want_error = _evolved(_general(monkeypatch, spec), state, prune)
        assert got_error == want_error
        assert [_views(s) for s in got] == [_views(s) for s in want]
        assert got == want

    def test_ledger_state_steps_through_the_rule_loop_without_drift(self, monkeypatch):
        spec = _load("seek_right_lifted.qtm")
        state = one(spec, "1/sqrt(2):01 + 1/sqrt(2):1100", 6)  # both halted, drifting
        slow = _general(monkeypatch, spec)
        got = step(slow, state)
        assert len(got) == 2
        assert _bits(got) == _bits(step(slow, QuantumState(dict(state.items()))))

    def _arrival_meets_drift(self, arriving, drifting):
        # q0 reads the blank at cell 1 and halts onto cell 2, where the
        # halted configuration at cell 1 drifts; a third one drifts alone
        spec = parse_machine((MACHINES / "seek_right_lifted.qtm").read_text())
        tape = tape_cells("1")
        state = QuantumState(
            {
                spec.config("q0", tape, 1): arriving,
                spec.config("qH", tape, 1): drifting,
                spec.config("qH", tape, 5): 0.75,
            }
        )
        return spec, state, spec.config("qH", tape, 2)

    def test_pruned_arrival_is_kept_with_its_drift_term(self, monkeypatch):
        spec, state, met = self._arrival_meets_drift(0.125, 0.5)
        got = step(spec, state, prune=0.6)
        assert got.amplitude(met) == complex(0.125) + complex(0.5)
        assert len(got) == 2
        assert _bits(got) == _bits(step(_general(monkeypatch, spec), state, prune=0.6))
        # each of the two terms alone is pruned
        for cfg, a in list(state.items())[:2]:
            assert len(step(spec, QuantumState({cfg: a}), prune=0.6)) == 0

    def test_arrival_cancels_drift_to_zero(self, monkeypatch):
        spec, state, met = self._arrival_meets_drift(0.5, -0.5)
        got = step(spec, state)
        assert got.amplitude(met) == 0
        assert met not in list(got.configurations())
        assert len(got) == 1
        assert _bits(got) == _bits(step(_general(monkeypatch, spec), state))

    @pytest.mark.parametrize("head", [1, 0], ids=["first-drift-step", "later-step"])
    def test_drift_term_of_a_hit_is_x_times_d(self, monkeypatch, head):
        # -0.125-0j halts onto cell 2 as 0.5-0j drifts there, at the entry's
        # first drift step from head 1 and one step later from head 0; under
        # 1+0j the entry's drift term is 0.5+0j, so the sum's imaginary part
        # is +0.0, where adding the stored 0.5-0j would leave -0.0
        spec = parse_machine((MACHINES / "seek_right_lifted.qtm").read_text())
        tape = tape_cells("1")
        state = QuantumState(
            {
                spec.config("q0", tape, head): complex(-0.125, -0.0),
                spec.config("qH", tape, head): complex(0.5, -0.0),
            }
        )
        got = list(trajectory(spec, state, 0, 2 - head))[-1][1]
        want = list(trajectory(_general(monkeypatch, spec), state, 0, 2 - head))[-1][1]
        assert _bits(got) == [((True, "qH", 2, tape), "(0.375+0j)")] == _bits(want)

    def test_halt_rows_differing_in_bits_take_the_general_path(self, monkeypatch):
        spec = parse_machine(MIXED_HALT_ROWS)
        assert spec.drift_amplitude is None
        # 1 and 1 - 0i differ only in the sign of a zero, which shows in a
        # product's imaginary part: (x - 0j) * (1 + 0j) has +0.0, * (1 - 0j) -0.0
        on0 = spec.config("qH", tape_cells("0"), 0)
        on1 = spec.config("qH", tape_cells("1"), 0)
        state = QuantumState({on0: complex(0.6, -0.0), on1: complex(0.8, -0.0)})
        got = step(spec, state)
        assert [repr(a) for _, a in got.keyed_items()] == ["(0.6+0j)", "(0.8-0j)"]
        assert _bits(got) == _bits(step(_general(monkeypatch, spec), state))


def _inner_reference(u, v):
    """<u|v> by dict lookups: the smaller side's keys in canonical order,
    each term added left to right from int 0."""
    if len(v) < len(u):
        return _inner_reference(v, u).conjugate()
    theirs = dict(v.keyed_items())
    total = 0
    for k, a in u.keyed_items():
        if k in theirs:
            total += a.conjugate() * theirs[k]
    return total


def _inner_bits(states):
    """repr of ``inner`` and of the reference for every ordered pair."""
    got = [repr(u.inner(v)) for u in states for v in states]
    want = [repr(_inner_reference(u, v)) for u in states for v in states]
    return got, want


class TestInner:
    """``inner`` merges two states' keys, ledger entries at their current
    heads; every product equals the dict reference's, signed zeros too."""

    @pytest.mark.parametrize("name", DRIFTING_MACHINES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_inner_matches_dict_reference(self, name, data):
        spec = _load(name)
        start = QuantumState(data.draw(mixed_states(spec)))
        first, _ = _evolved(spec, start, 0.0)
        # a second run from a plain copy of S_1 holds S_1+k's amplitudes one
        # shift behind S_1+k, so equal keys meet at unequal shifts
        second = _evolved(spec, QuantumState(dict(first[0].items())), 0.0)[0] if first else []
        states = [start, *first[:4], *second[:3]]
        # same shift, other lengths (the smaller side swaps); and plain states
        states += [s.component(True) for s in states] + [
            QuantumState(dict(s.items())) for s in states
        ]
        got, want = _inner_bits(states)
        assert got == want

    def test_drifted_ledgers_meet_at_unequal_shifts(self):
        spec = _load("seek_right_lifted.qtm")
        # the 01 branch halts at step 3 and the 1100 branch at step 5
        run = [s for _, s in trajectory(spec, parse_input(STEPPING_INPUT, spec), 0, 8)]
        # from a plain copy of S_4, S_8 is reached at shift 4, where the run's
        # S_8 holds the 01 branch at shift 5
        rerun = [s for _, s in trajectory(spec, QuantumState(dict(run[3].items())), 0, 4)]
        assert rerun[-1] == run[-1]
        assert run[-1].inner(rerun[-1]) == pytest.approx(1.0)
        states = [*run[2:], *rerun, *(s.component(True) for s in run[2:])]
        got, want = _inner_bits(states)
        assert got == want
        assert sum(w not in ("0", "0j") for w in want) > len(states)


class _Unhashable(tuple):
    """A cell tuple that fails the test if anything hashes it."""

    def __hash__(self):
        raise AssertionError("a cell tuple was hashed")


def _count_builds(monkeypatch) -> list:
    """Record "Configuration" for every Configuration built (through
    ``__new__`` or ``_make``) and "tape_text" for every tape rendered, from
    now on, under each name a qtmlab module binds ``tape_text`` to."""
    built = []
    new, make, text = Configuration.__new__, Configuration._make, tape_text

    def counting_new(cls, *args, **kwargs):
        built.append("Configuration")
        return new(cls, *args, **kwargs)

    def counting_make(cls, iterable):
        built.append("Configuration")
        return make(iterable)

    def counting_text(cells):
        built.append("tape_text")
        return text(cells)

    monkeypatch.setattr(Configuration, "__new__", counting_new)
    monkeypatch.setattr(Configuration, "_make", classmethod(counting_make))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qtmlab" and getattr(module, "tape_text", None) is text:
            monkeypatch.setattr(module, "tape_text", counting_text)
    return built


class TestRepresentation:
    def test_trajectory_builds_no_configuration_or_tape(self, monkeypatch):
        spec = parse_machine((ROOT / "perfbench/machines/hadamard_walk.qtm").read_text())
        state = parse_input("0110", spec)
        built = _count_builds(monkeypatch)
        for t, last in trajectory(spec, state, 0, 50):
            assert len(last) > 0
        assert t == 50
        assert len(last) > 50
        assert built == []
        # the edge names the fields of a key on demand, without a tape
        next(last.configurations())
        assert built == ["Configuration"]

    def test_checks_build_no_tape(self, monkeypatch, capsys):
        qtm = parse_machine((MACHINES / "delayed_hadamard.qtm").read_text())
        tm = parse_classical((MACHINES / "collide.tm").read_text())
        built = _count_builds(monkeypatch)
        assert check_wellformed(qtm).witnesses
        with pytest.raises(NotReversibleError):
            lift_to_qtm(tm)
        assert "tape_text" not in built
        del built[:]
        code = cli.main(["check", str(MACHINES / "delayed_hadamard.qtm"), "--max-witnesses", "3"])
        shown = json.loads(capsys.readouterr().out)["result"]["orthogonalityWitnesses"]
        assert code == 2
        assert len(shown) == 3
        # one tape per printed member: c1 and c2 of each shown witness
        assert built.count("tape_text") == 6

    def test_configuration_is_its_key(self, hadamard_halt):
        spec = hadamard_halt
        tape = tape_cells("1_0", origin=-1)
        for q, h in (("qH", 2), ("q0", -3)):
            assert spec.config(q, tape, h) == (q == spec.halt, q, h, tape)
            assert hash(spec.config(q, tape, h)) == hash((q == spec.halt, q, h, tape))
        c = spec.config("qH", tape, 2)
        s = one(spec, "1/sqrt(2):0 + 1/sqrt(2):11", 1)
        assert len(s) > 2
        assert [Configuration._make(k) for k, _ in s.keyed_items()] == list(s.configurations())
        for name in ("halted", "state", "head", "cells"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)
        assert repr(c) == "<H qH '1_0'@-1 head=2>"

    @pytest.mark.parametrize(
        "path, text, steps, halted_mass",
        [
            ("perfbench/machines/hadamard_walk.qtm", "0110", 50, 0.0),
            # the 01 branch halts at step 3, the 1100 branch at step 5
            ("machines/seek_right_lifted.qtm", "1/sqrt(2):01 + 1/sqrt(2):1100", 4, 0.5),
            # both have halted by step 5, and steps 6..9 only drift the ledger
            ("machines/seek_right_lifted.qtm", "1/sqrt(2):01 + 1/sqrt(2):1100", 9, 1.0),
        ],
        ids=["walk", "halting", "drifting"],
    )
    def test_stepping_hashes_no_key(self, path, text, steps, halted_mass):
        spec = parse_machine((ROOT / path).read_text())
        start = parse_input(text, spec)
        plain = list(trajectory(spec, start, 0, steps))[-1][1]
        # built from a sorted list: a dict would hash the cells
        state = QuantumState._sorted(
            [
                ((h, q, head, _Unhashable(cells)), a)
                for (h, q, head, cells), a in start.keyed_items()
            ]
        )
        for t, state in trajectory(spec, state, 0, steps):
            pass
        assert t == steps
        assert state == plain
        # neither machine rewrites a cell, so every key still carries the
        # unhashable cells and any hash of a key would have raised
        assert all(type(k[3]) is _Unhashable for k, _ in state.keyed_items())
        assert state.halted_mass() == pytest.approx(halted_mass)
        for flag in (True, False):
            part = state.component(flag)
            if len(part):
                assert part.renormalized().norm2() == pytest.approx(1.0)

    def test_replaced_spec_steps_by_its_own_rules(self, hadamard_halt):
        state = QuantumState({hadamard_halt.config("q0", tape_cells("1"), 0): 1.0})
        before = step(hadamard_halt, state)  # fills the compiled-row cache
        negated = {
            key: tuple(
                RuleTarget(-t.amplitude, t.state, t.write, t.move) for t in targets
            )
            for key, targets in hadamard_halt.rules.items()
        }
        copy = dataclasses.replace(hadamard_halt, rules=negated)
        after = step(copy, state)
        assert [(c, -a) for c, a in before.items()] == list(after.items())
        assert step(hadamard_halt, state) == before
        assert dataclasses.replace(hadamard_halt) == hadamard_halt
        assert "step_rows" not in repr(hadamard_halt)
