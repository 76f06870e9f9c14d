"""Unit tests for tapes, configurations, states, and static validation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtmlab import (
    BLANK,
    Configuration,
    InputSpec,
    MachineSpec,
    ParseError,
    QuantumState,
    RuleTarget,
    Tape,
    initial_state,
    validate_input,
    validate_structure,
)


def mk_spec(rules):
    return MachineSpec(
        states=("q0", "qH"),
        initial="q0",
        halt="qH",
        alphabet=("0", "1", BLANK),
        rules=rules,
    )


def cfg(state, text, head, halted=False, origin=0):
    return Configuration(halted, state, head, Tape.from_string(text, origin).cells)


class TestTape:
    def test_dict_cells_are_sorted_and_blanks_dropped(self):
        t = Tape({2: "1", 0: "0", 1: BLANK})
        assert t.cells == ((0, "0"), (2, "1"))

    def test_from_string_lays_out_consecutively(self):
        t = Tape.from_string("011", origin=-1)
        assert t.cells == ((-1, "0"), (0, "1"), (1, "1"))

    def test_read_missing_cell_is_blank(self):
        t = Tape.from_string("01")
        assert t.read(0) == "0"
        assert t.read(1) == "1"
        assert t.read(2) == BLANK
        assert t.read(-5) == BLANK

    def test_write_returns_new_tape(self):
        t = Tape.from_string("0")
        u = t.write(0, "1")
        assert t.read(0) == "0"
        assert u.read(0) == "1"

    def test_write_blank_erases_cell(self):
        t = Tape.from_string("01").write(0, BLANK)
        assert t.cells == ((1, "1"),)

    def test_is_immutable(self):
        t = Tape.from_string("0")
        with pytest.raises(AttributeError):
            t.cells = ()

    def test_shifted(self):
        t = Tape.from_string("01").shifted(3)
        assert t.cells == ((3, "0"), (4, "1"))

    def test_text_renders_interior_blanks(self):
        t = Tape.from_string("1").write(2, "1")
        assert t.text() == ("1_1", 0)

    def test_text_reports_origin(self):
        assert Tape.from_string("10", origin=-4).text() == ("10", -4)

    def test_empty_tape_text(self):
        assert Tape().text() == ("", 0)

    def test_equality_and_hash(self):
        a = Tape({0: "1"})
        b = Tape.from_string("1")
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    @given(st.text(alphabet="01", min_size=1, max_size=8))
    def test_from_string_text_roundtrip(self, text):
        assert Tape.from_string(text).text() == (text, 0)

    @given(
        st.dictionaries(st.integers(-8, 8), st.sampled_from("01_"), max_size=6),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_shift_composes(self, cells, a, b):
        t = Tape(cells)
        assert t.shifted(a).shifted(b) == t.shifted(a + b)
        assert t.shifted(0) == t

    @given(
        st.dictionaries(st.integers(-8, 8), st.sampled_from("01_"), max_size=6),
        st.integers(-8, 8),
        st.sampled_from("01_"),
    )
    def test_write_then_read(self, cells, pos, symbol):
        t = Tape(cells).write(pos, symbol)
        assert t.read(pos) == symbol


class TestConfiguration:
    def test_halted_sorts_after_running(self):
        running = cfg("q0", "1", 0)
        halted = cfg("qH", "1", 0, halted=True)
        assert sorted([halted, running]) == [
            running,
            halted,
        ]

    def test_shifted_moves_head_and_tape(self):
        c = cfg("q0", "11", 1).shifted(-2)
        assert c.head == -1
        assert c.tape.cells == ((-2, "1"), (-1, "1"))

    def test_hashable_and_frozen(self):
        c = cfg("q0", "1", 0)
        assert c == cfg("q0", "1", 0)
        with pytest.raises(AttributeError):
            c.head = 3


class TestQuantumState:
    def test_entries_kept_in_canonical_order(self):
        a = cfg("q0", "1", 2)
        b = cfg("q0", "1", -1)
        state = QuantumState({a: 0.6, b: 0.8})
        assert [c for c, _ in state.items()] == [b, a]

    def test_amplitude_defaults_to_zero(self):
        state = QuantumState.of((cfg("q0", "1", 0), 1.0))
        assert state.amplitude(cfg("q0", "0", 0)) == 0j

    def test_norm2_and_support(self):
        state = QuantumState.of((cfg("q0", "1", 0), 0.6), (cfg("q0", "0", 0), 0.8j))
        assert state.norm2() == pytest.approx(1.0)
        assert state.support_size() == 2
        assert len(state) == 2

    def test_empty_state_sums_are_floats(self):
        empty = QuantumState({})
        assert empty.norm2() == 0.0
        assert isinstance(empty.norm2(), float)
        assert isinstance(empty.halted_mass(), float)

    def test_halted_mass_and_components(self):
        running = cfg("q0", "1", 0)
        halted = cfg("qH", "1", 1, halted=True)
        state = QuantumState.of((running, 0.6), (halted, 0.8))
        assert state.halted_mass() == pytest.approx(0.64)
        assert list(state.component(True).configurations()) == [halted]
        assert list(state.component(False).configurations()) == [running]

    def test_renormalized(self):
        state = QuantumState.of((cfg("q0", "1", 0), 0.5))
        assert state.renormalized().norm2() == pytest.approx(1.0)

    def test_renormalizing_zero_state_raises(self):
        with pytest.raises(ValueError):
            QuantumState({}).renormalized()

    def test_inner_is_conjugate_linear_in_first_argument(self):
        a, b = cfg("q0", "1", 0), cfg("q0", "0", 0)
        x = QuantumState.of((a, 1j), (b, 0.5))
        y = QuantumState.of((a, 0.25), (b, 2.0 + 1j))
        assert x.inner(y) == pytest.approx((1j).conjugate() * 0.25 + 0.5 * (2 + 1j))
        assert x.inner(y) == pytest.approx(y.inner(x).conjugate())

    def test_inner_of_disjoint_supports_is_zero(self):
        x = QuantumState.of((cfg("q0", "1", 0), 1.0))
        y = QuantumState.of((cfg("q0", "0", 0), 1.0))
        assert x.inner(y) == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.complex_numbers(max_magnitude=2, allow_nan=False),
            ),
            max_size=4,
        )
    )
    def test_norm2_matches_inner_with_self(self, entries):
        state = QuantumState({cfg("q0", "1", h): a for h, a in entries})
        assert state.norm2() == pytest.approx(state.inner(state).real, abs=1e-12)

    @given(
        st.dictionaries(
            st.builds(
                cfg,
                st.sampled_from(("q0", "qH")),
                st.text(alphabet="01_", max_size=3),
                st.integers(-2, 2),
                st.booleans(),
                st.integers(-2, 2),
            ),
            st.complex_numbers(max_magnitude=2, allow_nan=False),
            max_size=6,
        )
    )
    def test_items_round_trip_in_sort_key_order(self, amps):
        state = QuantumState(amps)
        items = list(state.items())
        assert QuantumState(dict(items)) == state
        keys = [c for c, _ in items]
        assert keys == sorted(amps)
        assert [k for k, _ in state.keyed_items()] == keys
        assert all(state.amplitude(c) == a for c, a in amps.items())
        assert list(state.configurations()) == [c for c, _ in items]


class TestInitialState:
    def test_single_string(self, hadamard_halt):
        state = initial_state(hadamard_halt, InputSpec(((complex(1), "10"),)))
        assert list(state.items()) == [(cfg("q0", "10", 0), 1 + 0j)]

    def test_duplicate_terms_merge(self, hadamard_halt):
        inp = InputSpec(((complex(0.5), "0"), (complex(0.5), "0")))
        state = initial_state(hadamard_halt, inp)
        assert state.amplitude(cfg("q0", "0", 0)) == 1 + 0j


class TestValidateStructure:
    def test_clean_machine_has_no_violations(self, hadamard_halt):
        assert validate_structure(hadamard_halt) == []

    def test_halt_rule_must_preserve_symbol(self):
        spec = mk_spec(
            {
                ("qH", "0"): (RuleTarget(complex(1), "qH", "1", "R"),),
            }
        )
        kinds = [v.kind for v in validate_structure(spec)]
        assert kinds == ["halt_rule"]

    def test_halt_rule_must_stay_halted(self):
        spec = mk_spec(
            {
                ("qH", "0"): (RuleTarget(complex(1), "q0", "0", "R"),),
            }
        )
        kinds = [v.kind for v in validate_structure(spec)]
        assert kinds == ["halt_rule"]

    def test_row_norm_violation(self):
        spec = mk_spec(
            {
                ("q0", "0"): (
                    RuleTarget(complex(1), "qH", "0", "R"),
                    RuleTarget(complex(1), "qH", "1", "R"),
                ),
            }
        )
        kinds = [v.kind for v in validate_structure(spec)]
        assert kinds == ["row_norm"]

    def test_row_norm_accepts_unit_rows(self):
        r = complex(1 / math.sqrt(2))
        spec = mk_spec(
            {
                ("q0", "0"): (
                    RuleTarget(r, "qH", "0", "R"),
                    RuleTarget(-r, "qH", "1", "R"),
                ),
            }
        )
        assert validate_structure(spec) == []


class TestValidateInput:
    def test_accepts_unit_superposition(self, hadamard_halt):
        r = complex(1 / math.sqrt(2))
        validate_input(hadamard_halt, InputSpec(((r, "0"), (r, "1"))))

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((complex(1), ""),), "empty input"),
            (((complex(0.5), "0"), (complex(0.5), "0")), "duplicate"),
            (((complex(1), "0_1"),), "blank"),
            (((complex(1), "2"),), "not in the machine alphabet"),
            (((complex(0.5), "0"),), "squared norm"),
        ],
    )
    def test_rejections(self, hadamard_halt, terms, message):
        with pytest.raises(ParseError, match=message):
            validate_input(hadamard_halt, InputSpec(terms))
