"""Unit tests for tapes, configurations, states, and static validation."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtmlab import (
    BLANK,
    Configuration,
    MachineSpec,
    ParseError,
    QuantumState,
    RuleTarget,
    StructureViolation,
    check_wellformed,
    initial_state,
    step,
    tape_cells,
    tape_text,
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
    return Configuration(halted, state, head, tape_cells(text, origin))


class TestTape:
    def test_cells_start_at_origin(self):
        assert tape_cells("011", origin=-1) == ((-1, "0"), (0, "1"), (1, "1"))
        assert tape_cells("01") == ((0, "0"), (1, "1"))

    def test_blanks_are_not_stored(self):
        assert tape_cells("_0_1_") == ((1, "0"), (3, "1"))
        assert tape_cells("__") == ()

    def test_text_renders_interior_blanks(self):
        assert tape_text(((0, "1"), (2, "1"))) == ("1_1", 0)

    def test_text_reports_origin(self):
        assert tape_text(tape_cells("10", origin=-4)) == ("10", -4)

    def test_empty_tape(self):
        assert tape_cells("") == ()
        assert tape_text(()) == ("", 0)

    @given(
        st.dictionaries(st.integers(-8, 8), st.sampled_from("01_"), max_size=6),
    )
    def test_text_then_cells_roundtrip(self, cells):
        canonical = tuple(sorted((p, s) for p, s in cells.items() if s != BLANK))
        assert tape_cells(*tape_text(canonical)) == canonical

    @given(st.from_regex(r"[01]([01_]*[01])?", fullmatch=True), st.integers(-5, 5))
    def test_cells_then_text_roundtrip(self, text, origin):
        assert tape_text(tape_cells(text, origin)) == (text, origin)

    @given(st.text("01_", max_size=12) | st.text("01", max_size=12), st.integers())
    def test_cells_are_their_definition(self, text, origin):
        # with and without blanks, at any int origin, one cell per non-blank
        # symbol at its position from origin
        want = tuple((origin + i, s) for i, s in enumerate(text) if s != BLANK)
        assert tape_cells(text, origin) == want


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
        assert c.cells == ((-2, "1"), (-1, "1"))

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
        state = QuantumState({cfg("q0", "1", 0): 1.0})
        assert state.amplitude(cfg("q0", "0", 0)) == 0j

    def test_norm2_and_support(self):
        state = QuantumState({cfg("q0", "1", 0): 0.6, cfg("q0", "0", 0): 0.8j})
        assert state.norm2() == pytest.approx(1.0)
        assert len(state) == 2

    def test_empty_state_sums_are_floats(self):
        empty = QuantumState({})
        assert empty.norm2() == 0.0
        assert isinstance(empty.norm2(), float)
        assert isinstance(empty.halted_mass(), float)

    def test_halted_mass_and_components(self):
        running = cfg("q0", "1", 0)
        halted = cfg("qH", "1", 1, halted=True)
        state = QuantumState({running: 0.6, halted: 0.8})
        assert state.halted_mass() == pytest.approx(0.64)
        assert list(state.component(True).configurations()) == [halted]
        assert list(state.component(False).configurations()) == [running]
        assert state.running() and state.component(False).running()
        assert not state.component(True).running() and not QuantumState({}).running()

    def test_renormalized(self):
        state = QuantumState({cfg("q0", "1", 0): 0.5})
        assert state.renormalized().norm2() == pytest.approx(1.0)

    def test_renormalizing_zero_state_raises(self):
        with pytest.raises(ValueError):
            QuantumState({}).renormalized()

    def test_inner_is_conjugate_linear_in_first_argument(self):
        a, b = cfg("q0", "1", 0), cfg("q0", "0", 0)
        x = QuantumState({a: 1j, b: 0.5})
        y = QuantumState({a: 0.25, b: 2.0 + 1j})
        assert x.inner(y) == pytest.approx((1j).conjugate() * 0.25 + 0.5 * (2 + 1j))
        assert x.inner(y) == pytest.approx(y.inner(x).conjugate())

    def test_inner_of_disjoint_supports_is_zero(self):
        x = QuantumState({cfg("q0", "1", 0): 1.0})
        y = QuantumState({cfg("q0", "0", 0): 1.0})
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
        state = initial_state(hadamard_halt, ((complex(1), "10"),))
        assert list(state.items()) == [(cfg("q0", "10", 0), 1 + 0j)]

    def test_zero_terms_are_left_out(self, hadamard_halt):
        terms = ((complex(1), "0"), (0j, "1"))
        assert initial_state(hadamard_halt, terms) == QuantumState({cfg("q0", "0", 0): 1})


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

    def test_repeated_targets_add_as_the_step_adds_them(self, hadamard_halt):
        # a code-built row: the parser refuses a repeated target
        r = complex(1 / math.sqrt(2))
        rules = {**hadamard_halt.rules, ("q0", "0"): (RuleTarget(r, "qH", "0", "R"),) * 2}
        spec = dataclasses.replace(hadamard_halt, rules=rules)
        [(key, norm2)] = check_wellformed(spec).norm_violations
        assert key == ("q0", "0") and norm2 == pytest.approx(2.0)
        assert validate_structure(spec) == [
            StructureViolation("row_norm", "q0", "0", f"squared row norm {norm2!r}")
        ]
        image = step(spec, QuantumState({cfg("q0", "0", 0): 1}))
        assert image.norm2() == pytest.approx(norm2)


class TestValidateInput:
    def test_accepts_unit_superposition(self, hadamard_halt):
        r = complex(1 / math.sqrt(2))
        state = initial_state(hadamard_halt, ((r, "0"), (r, "1")))
        assert state.norm2() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((complex(1), ""),), "empty input"),
            (((complex(0.5), "0"), (complex(0.5), "0")), "duplicate"),
            (((complex(1), "0_1"),), "blank"),
            (((complex(1), "2"),), "not in the machine alphabet"),
            (((complex(0.5), "0"),), "squared norm"),
            # NaN passed a "> tol" test, and a part's ** 2 overflowed
            (((complex(float("nan"), 0.0), "0"),), "squared norm nan"),
            (((complex(1.0, float("nan")), "0"),), "squared norm nan"),
            (((complex(1e200), "0"),), "squared norm inf"),
        ],
    )
    def test_rejections(self, hadamard_halt, terms, message):
        with pytest.raises(ParseError, match=message):
            initial_state(hadamard_halt, terms)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0_x", "input strings may not contain the blank symbol"),
            ("0x_", "symbol 'x' is not in the machine alphabet"),
            ("x", "symbol 'x' is not in the machine alphabet"),
            ("_", "input strings may not contain the blank symbol"),
        ],
    )
    def test_first_bad_character_is_reported(self, hadamard_halt, text, message):
        with pytest.raises(ParseError) as err:
            initial_state(hadamard_halt, ((complex(1), text),))
        assert str(err.value) == message
