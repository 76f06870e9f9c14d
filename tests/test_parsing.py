"""Parser and renderer tests: amplitudes, machine files, and inputs."""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import MACHINES, load_qtm
from qtmlab import (
    Configuration,
    ParseError,
    QuantumState,
    RuleTarget,
    parse_amplitude,
    parse_classical,
    parse_input,
    parse_machine,
    render_amplitude,
    render_machine,
    tape_cells,
)

R2 = 1 / math.sqrt(2)

MINIMAL_QTM = """\
qtm-spec v1  # header comment
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _

rule: q0 0 -> 1/sqrt(2) : qH 0 R | 1/sqrt(2) : qH 1 R
rule: qH * -> 1 : qH * R
"""

MINIMAL_TM = """\
tm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _

rule: q0 0 -> qH 1 R
"""


class TestParseAmplitude:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1", 1 + 0j),
            ("0", 0j),
            ("-1", -1 + 0j),
            ("3/4", 0.75 + 0j),
            ("-1/2", -0.5 + 0j),
            ("1/sqrt(2)", complex(R2)),
            ("-1/sqrt(2)", complex(-R2)),
            ("2/sqrt(8)", complex(2 / math.sqrt(8))),
            ("1i", 1j),
            ("-1/2i", -0.5j),
            ("1/sqrt(2)i", complex(0, R2)),
            ("1/2 + 1/2i", 0.5 + 0.5j),
            ("1/2 - 1/2i", 0.5 - 0.5j),
            ("  1  ", 1 + 0j),
        ],
    )
    def test_grammar(self, text, value):
        assert parse_amplitude(text) == value

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected an integer"),
            ("x", "expected an integer"),
            ("1/0", "division by zero"),
            ("1/sqrt(0)", "sqrt argument"),
            ("1/sqrt(2", "expected '\\)'"),
            ("1 + 1", "expected 'i'"),
            ("1junk", "trailing characters"),
            ("1 i junk", "trailing characters"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_amplitude(text)

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse_amplitude("1/x")
        assert err.value.offset == 2
        assert "offset 2" in str(err.value)

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="0123456789-+/ isqrt()", max_size=30),
            st.integers(0, 10**450).map(str),
        )
    )
    @example("1" + "0" * 400)
    @example("1" + "0" * 400 + "e0")
    @example("1/sqrt(1" + "0" * 400 + ")")
    @example("1 + " + "9" * 5000 + "i")
    @example("\u00b2")  # a digit to str.isdigit, not a decimal to int()
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            value = parse_amplitude(text)
        except ParseError:
            return
        assert isinstance(value, complex)


class TestRenderAmplitude:
    @pytest.mark.parametrize(
        "value, text",
        [
            (1 + 0j, "1"),
            (-1 + 0j, "-1"),
            (0.5 + 0j, "1/2"),
            (complex(R2), "1/sqrt(2)"),
            (complex(-R2), "-1/sqrt(2)"),
            (0.25j, "1/4i"),
            (0.5 + 0.5j, "1/2 + 1/2i"),
            (0.5 - 0.5j, "1/2 - 1/2i"),
        ],
    )
    def test_common_values(self, value, text):
        assert render_amplitude(value) == text

    @given(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    )
    def test_roundtrip_is_exact(self, value):
        assert parse_amplitude(render_amplitude(value)) == value

    @pytest.mark.parametrize("value", [R2, -R2, 1 / math.sqrt(3), 2 / math.sqrt(5)])
    def test_roundtrip_of_square_roots_is_exact(self, value):
        assert parse_amplitude(render_amplitude(complex(value))) == complex(value)


class TestParseMachine:
    def test_minimal_machine(self):
        spec = parse_machine(MINIMAL_QTM)
        assert spec.states == ("q0", "qH")
        assert spec.initial == "q0"
        assert spec.halt == "qH"
        assert spec.alphabet == ("0", "1", "_")
        targets = spec.rules[("q0", "0")]
        assert [t.state for t in targets] == ["qH", "qH"]
        assert targets[0].amplitude == complex(R2)

    def test_star_read_expands_and_star_write_echoes(self):
        spec = parse_machine(MINIMAL_QTM)
        for symbol in spec.alphabet:
            (target,) = spec.rules[("qH", symbol)]
            assert target.write == symbol
            assert target.move == "R"

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda t: t.replace("qtm-spec v1", "qtm-spec v2"), "format header"),
            (lambda t: "", "empty file"),
            (lambda t: t + "states: extra\n", "duplicate header"),
            (lambda t: t.replace("alphabet: 0 1 _\n", ""), "missing header 'alphabet'"),
            (lambda t: t + "frob: nar\n", "unrecognized line"),
            (lambda t: t.replace("initial: q0", "initial: qX"), "initial must name"),
            (lambda t: t.replace("halt: qH", "halt: q0"), "must differ"),
            (lambda t: t.replace("alphabet: 0 1 _", "alphabet: 0 1"), "blank symbol"),
            (lambda t: t.replace("alphabet: 0 1 _", "alphabet: 0 0 _"), "distinct"),
            (lambda t: t.replace("alphabet: 0 1 _", "alphabet: 0 ab _"), "bad tape symbol"),
            (lambda t: t.replace("alphabet: 0 1 _", "alphabet: 0 | _"), "reserved"),
            (lambda t: t + "rule: q0 0 -> 1 : qH 0 R\n", "duplicate rule"),
            (lambda t: t + "rule: qX 0 -> 1 : qH 0 R\n", "unknown state 'qX'"),
            (lambda t: t + "rule: q0 1 -> 1 : qH 2 R\n", "unknown symbol '2'"),
            (lambda t: t + "rule: q0 1 -> 1 : qH 0 U\n", "move must be one of"),
            (lambda t: t + "rule: q0 1 1 : qH 0 R\n", "rule needs '->'"),
            (lambda t: t + "rule: q0 1 -> 1 qH 0 R\n", "target must be"),
            (lambda t: t + "rule: q0 1 -> 1/0 : qH 0 R\n", "bad amplitude"),
            (
                lambda t: t + "rule: q0 1 -> 1/sqrt(2) : qH 0 R | 1/sqrt(2) : qH 0 R\n",
                "duplicate target",
            ),
        ],
    )
    def test_rejections(self, mangle, message):
        with pytest.raises(ParseError, match=message):
            parse_machine(mangle(MINIMAL_QTM))

    def test_duplicate_via_star_expansion(self):
        text = MINIMAL_QTM + "rule: q0 * -> 1 : qH * R\n"
        with pytest.raises(ParseError, match="duplicate rule"):
            parse_machine(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_machine(MINIMAL_QTM.replace("initial: q0", "initial: qX"))
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("name", ["q|0", "q->0", "|", "->"])
    def test_state_names_holding_a_rule_separator_are_refused(self, name):
        # "q|0" would split a quantum target, and "q->0" a rule line
        for text, parse in ((MINIMAL_QTM, parse_machine), (MINIMAL_TM, parse_classical)):
            with pytest.raises(ParseError) as err:
                parse(text.replace("states: q0 qH", f"states: q0 qH {name}"))
            assert str(err.value) == f"state name {name!r} may not contain '|' or '->' (line 2)"


class TestRenderMachine:
    @pytest.mark.parametrize(
        "name",
        [
            "hadamard_halt",
            "hadamard_halt_naive",
            "right_shift",
            "delayed_hadamard",
            "seek_right_lifted",
        ],
    )
    def test_roundtrip_through_render(self, name):
        spec = load_qtm(name)
        assert parse_machine(render_machine(spec)) == spec

    def test_rendered_form_is_stable(self):
        spec = parse_machine(MINIMAL_QTM)
        assert render_machine(spec) == render_machine(parse_machine(render_machine(spec)))


class TestParseClassical:
    def test_parses_rules_as_single_targets(self, seek_right):
        assert seek_right.rules[("q0", "0")] == (RuleTarget(1, "q0", "0", "R"),)

    def test_rejects_halt_state_rules(self):
        text = "\n".join(
            [
                "tm-spec v1",
                "states: q0 qH",
                "initial: q0",
                "halt: qH",
                "alphabet: 0 1 _",
                "rule: qH 0 -> qH 0 R",
            ]
        )
        with pytest.raises(ParseError, match="halt state"):
            parse_classical(text)

    def test_rejects_amplitude_syntax(self):
        text = "\n".join(
            [
                "tm-spec v1",
                "states: q0 qH",
                "initial: q0",
                "halt: qH",
                "alphabet: 0 1 _",
                "rule: q0 0 -> 1 : qH 0 R",
            ]
        )
        with pytest.raises(ParseError, match="right side"):
            parse_classical(text)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("rule: q0 1 qH 0 R", "rule needs '->'"),
            ("rule: q0 -> qH 0 R", "rule left side must be '<state> <symbol>'"),
            ("rule: qX 1 -> qH 0 R", "unknown state 'qX'"),
            ("rule: q0 1 -> qX 0 R", "unknown state 'qX'"),
            ("rule: q0 2 -> qH 0 R", "unknown symbol '2'"),
            ("rule: q0 1 -> qH 2 R", "unknown symbol '2'"),
            ("rule: q0 1 -> qH 0 U", "move must be one of L N R, got 'U'"),
            ("rule: q0 0 -> qH 0 R", "duplicate rule for (q0, 0)"),
            ("rule: q0 * -> qH * R", "duplicate rule for (q0, 0)"),
            ("rule: q0 1 -> 1 : qH 0 R", "rule right side must be '<state> <write> <move>'"),
            ("rule: q0 1 -> qH 0", "rule right side must be '<state> <write> <move>'"),
            ("rule: qH 0 -> qH 0 R", "classical rules may not start in the halt state"),
        ],
    )
    def test_rejections(self, rule, message):
        with pytest.raises(ParseError) as err:
            parse_classical(MINIMAL_TM + rule + "\n")
        assert str(err.value) == f"{message} (line 8)"
        assert err.value.line == 8

    def test_corpus_files_parse(self):
        for path in sorted(MACHINES.glob("*.tm")):
            tm = parse_classical(path.read_text())
            assert tm.initial in tm.states
            assert tm.halt in tm.states


def start(spec, amps):
    """The hand-built initial state: each string at cells 0.., head 0."""
    return QuantumState(
        {spec.config(spec.initial, tape_cells(text), 0): a for text, a in amps.items()}
    )


class TestParseInput:
    def test_bare_string(self, hadamard_halt):
        state = parse_input("10", hadamard_halt)
        assert state == start(hadamard_halt, {"10": 1 + 0j})

    def test_bare_string_is_trimmed(self, hadamard_halt):
        assert parse_input(" 10 ", hadamard_halt) == start(hadamard_halt, {"10": 1 + 0j})

    def test_uniform_superposition(self, hadamard_halt):
        state = parse_input("1/sqrt(2):0 + 1/sqrt(2):1", hadamard_halt)
        assert state == QuantumState(
            {
                Configuration(False, "q0", 0, ((0, "0"),)): complex(R2),
                Configuration(False, "q0", 0, ((0, "1"),)): complex(R2),
            }
        )

    def test_complex_amplitudes_keep_their_plus_signs(self, hadamard_halt):
        state = parse_input("1/2 + 1/2i : 0 + 1/2 - 1/2i : 1", hadamard_halt)
        assert state == start(hadamard_halt, {"0": 0.5 + 0.5j, "1": 0.5 - 0.5j})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            ("2", "not in the machine alphabet"),
            ("0 + 1", "needs an amplitude"),
            ("1/sqrt(2):0 + 1", "needs an amplitude"),
            ("1/2:0 + 1/2:1", "squared norm"),
            ("1:", "empty input string"),
        ],
    )
    def test_rejections(self, hadamard_halt, text, message):
        with pytest.raises(ParseError, match=message):
            parse_input(text, hadamard_halt)

    @pytest.mark.parametrize(
        "text, amplitude",
        [("0 + 1i : 0", 1j), ("1 + 0i : 0", 1 + 0j), ("0+1i:0", 1j)],
    )
    def test_amplitude_with_a_leading_digit_is_one_term(self, hadamard_halt, text, amplitude):
        assert parse_input(text, hadamard_halt) == start(hadamard_halt, {"0": amplitude})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("+1:0", "empty term"),
            ("1:0+", "empty term"),
            ("1:0 +", "empty term"),
            ("1:0 + ", "empty term"),
            ("1/sqrt(2):0 ++ 1/sqrt(2):1", "empty term"),
        ],
    )
    def test_empty_and_bare_terms_rejected(self, hadamard_halt, text, message):
        with pytest.raises(ParseError, match=message):
            parse_input(text, hadamard_halt)


# Fragments of both machine grammars and of the input grammar, spliced into
# corpus files and inputs so that most examples get past the header.
CORPUS_TEXTS = tuple(p.read_text() for p in sorted(MACHINES.glob("*.*tm")))
FRAGMENTS = (
    "qtm-spec v1", "tm-spec v1", "states:", "initial:", "halt:", "alphabet:",
    "rule:", "->", "|", ":", "*", "+", "#", " ", "\n", "q0", "q1", "qH", "qX",
    "0", "1", "_", "2", "L", "N", "R", "U", "-1", "1/2", "1/sqrt(2)",
    "-1/sqrt(2)", "1/2 + 1/2i", "3/5i", "1/0", "1/sqrt(0)", "9" * 400,
)
fragments = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=10
).map("".join)
# rule lines of both formats, each part well formed or not
states = st.sampled_from(("q0", "q1", "qH", "qX"))
symbols = st.sampled_from(("0", "1", "_", "*", "2"))
tokens = st.lists(
    st.one_of(states, symbols, st.sampled_from(("L", "N", "R", "U", "->", "|", ":"))),
    max_size=4,
).map(" ".join)
fields = st.one_of(
    st.tuples(states, symbols, st.sampled_from(("L", "N", "R", "U"))).map(" ".join),
    tokens,
)
amplitudes = st.sampled_from(("1", "-1", "1/sqrt(2)", "-1/sqrt(2)", "1/2 + 1/2i", "1/0", ""))
targets = st.lists(
    st.one_of(st.tuples(amplitudes, fields).map(" : ".join), fields), min_size=1, max_size=3
).map(" | ".join)
rule_lines = st.tuples(
    st.one_of(st.tuples(states, symbols).map(" ".join), tokens),
    st.sampled_from(("->", "->", "")),
    targets,
).map(lambda parts: "rule: {} {} {}".format(*parts))


@st.composite
def mutated(draw, texts):
    """A text from ``texts`` with up to four lines inserted (rule lines
    among them), replaced, spliced into or deleted."""
    lines = draw(st.sampled_from(texts)).split("\n")
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("rule", "rule", "insert", "replace", "splice", "delete")))
        if op == "rule":
            lines.insert(i, draw(rule_lines))
        elif op == "insert":
            lines.insert(i, draw(fragments))
        elif op == "replace":
            lines[i] = draw(fragments)
        elif op == "splice":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(fragments) + lines[i][j:]
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(lines)


# flip_bits.tm with a state name that the .qtm target grammar would split
FLIP_BITS_PIPE = (MACHINES / "flip_bits.tm").read_text().replace("q0", "q|0")

INPUTS = ("0", "1", "01", "1100", "1/sqrt(2):0 + 1/sqrt(2):1",
          "1/2 + 1/2i : 0 + 1/2 - 1/2i : 1", "3/5:01 + 4/5:1100")


# these properties are about which exceptions escape, not about time; one
# example stalled by a loaded CPU must not fail them
PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestAnyTextParsesOrRaisesParseError:
    @PROPERTY
    @given(mutated(CORPUS_TEXTS))
    @example("")
    @example("tm-spec v1\nrule:")
    @example(MINIMAL_QTM + "rule: q0 1 -> : qH 0 R |")
    def test_machine_files(self, text):
        for parse in (parse_machine, parse_classical):
            try:
                parse(text)
            except ParseError:
                pass

    @PROPERTY
    @given(mutated(CORPUS_TEXTS))
    @example(FLIP_BITS_PIPE)
    def test_accepted_machines_render_and_parse_back(self, text):
        for parse in (parse_machine, parse_classical):
            try:
                spec = parse(text)
            except ParseError:
                continue
            assert parse_machine(render_machine(spec)) == spec

    @PROPERTY
    @given(st.sampled_from(["hadamard_halt", "right_shift"]), mutated(INPUTS))
    @example("hadamard_halt", "")
    @example("hadamard_halt", "+:")
    def test_inputs(self, name, text):
        spec = load_qtm(name)
        try:
            parse_input(text, spec)
        except ParseError:
            pass
