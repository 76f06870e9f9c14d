"""Step operator tests: hand-computed images, laws, and trace output."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmlab import (
    MissingRuleError,
    QuantumState,
    Tape,
    evolve,
    initial_state,
    parse_input,
    states_through,
    step,
)
from qtmlab.evolution import trajectory

R2 = 1 / math.sqrt(2)

TRACE_CSV = (
    "step,support,norm2,halted_mass\n"
    "0,1,1.0,0.0\n"
    "1,2,0.9999999999999998,0.9999999999999998\n"
    "2,2,0.9999999999999998,0.9999999999999998\n"
    "3,2,0.9999999999999998,0.9999999999999998\n"
)


def one(spec, text, steps=1):
    state, _ = evolve(spec, parse_input(text, spec), steps)
    return state


def amps_by_tape(spec, state):
    out = {}
    for cfg, amp in state.items():
        text, origin = cfg.tape.text()
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
        halted = hadamard_halt.config("qH", Tape.from_string("1"), 5)
        out = step(hadamard_halt, QuantumState.of((halted, 1.0)))
        ((cfg, amp),) = list(out.items())
        assert cfg.state == "qH"
        assert cfg.head == 6
        assert cfg.tape == halted.tape
        assert amp == 1 + 0j

    def test_missing_rule_raises(self, hadamard_halt_naive):
        blank_read = hadamard_halt_naive.config("q0", Tape(), 0)
        with pytest.raises(MissingRuleError) as err:
            step(hadamard_halt_naive, QuantumState.of((blank_read, 1.0)))
        assert err.value.state == "q0"
        assert err.value.symbol == "_"

    def test_prune_drops_small_amplitudes(self, right_shift):
        big = right_shift.config("q0", Tape.from_string("0"), 0)
        tiny = right_shift.config("q0", Tape.from_string("1"), 0)
        state = QuantumState.of((big, 1.0), (tiny, 1e-15))
        assert step(right_shift, state, prune=1e-12).support_size() == 1
        assert step(right_shift, state).support_size() == 2


class TestEvolve:
    def test_zero_steps_is_identity(self, hadamard_halt):
        inp = parse_input("0", hadamard_halt)
        state, trace = evolve(hadamard_halt, inp, 0)
        assert state == initial_state(hadamard_halt, inp)
        assert len(trace.rows) == 1
        assert trace.rows[0].step == 0

    def test_negative_steps_rejected(self, hadamard_halt):
        with pytest.raises(ValueError):
            evolve(hadamard_halt, parse_input("0", hadamard_halt), -1)

    def test_two_steps_compose(self, hadamard_halt):
        inp = parse_input("0", hadamard_halt)
        state, _ = evolve(hadamard_halt, inp, 2)
        assert state == step(hadamard_halt, step(hadamard_halt, initial_state(hadamard_halt, inp)))

    def test_states_through_prefixes_match_evolve(self, delayed_hadamard):
        inp = parse_input("10", delayed_hadamard)
        chain = states_through(delayed_hadamard, inp, 4)
        assert len(chain) == 5
        for n in (0, 2, 4):
            assert chain[n] == evolve(delayed_hadamard, inp, n)[0]

    def test_trajectory_resumes_mid_run(self, delayed_hadamard):
        # run_schedule resumes the evolution after each measurement
        chain = states_through(delayed_hadamard, parse_input("10", delayed_hadamard), 4)
        resumed = list(trajectory(delayed_hadamard, chain[2], 2, 4))
        assert resumed == [(3, chain[3]), (4, chain[4])]

    def test_trace_csv_golden(self, hadamard_halt):
        _, trace = evolve(hadamard_halt, parse_input("0", hadamard_halt), 3)
        assert trace.to_csv() == TRACE_CSV

    def test_norm_preserved_by_well_formed_machine(self, right_shift):
        _, trace = evolve(right_shift, parse_input("0110", right_shift), 50)
        for row in trace.rows:
            assert row.norm2 == pytest.approx(1.0, abs=1e-12)

    def test_halted_mass_monotone(self, delayed_hadamard):
        _, trace = evolve(delayed_hadamard, parse_input("10", delayed_hadamard), 30)
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            assert cur.halted_mass >= prev.halted_mass - 1e-12


def small_states(spec):
    config = st.builds(
        spec.config,
        st.sampled_from(spec.states),
        st.builds(Tape.from_string, st.text(alphabet="01", min_size=1, max_size=3)),
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
