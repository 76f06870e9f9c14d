"""Classical tables: runs of the reference chain, the reversibility check,
and the lift."""

import pytest

from conftest import CLASSICAL_NAMES, CORPUS_INPUTS, MACHINES, load_tm
from oracles import classical_chain, classical_halt, config_key, make_imager
from qtmlab import (
    MissingRuleError,
    NotReversibleError,
    ParseError,
    RuleTarget,
    check_wellformed,
    lift_to_qtm,
    parse_classical,
    parse_input,
    parse_machine,
    parse_schedule,
    render_machine,
    run_schedule,
    tape_cells,
    tape_text,
    trajectory,
    validate_structure,
)

REVERSIBLE = ("unary_inc", "flip_bits", "parity_mark", "seek_right")


def injectivity_witnesses(tm):
    """The colliding pairs ``lift_to_qtm`` raises, none when it lifts."""
    try:
        lift_to_qtm(tm)
    except NotReversibleError as exc:
        return exc.witnesses
    return ()


# Total orthogonality witnesses of each lifted machine; all of them pair a
# halted drifting configuration with a running one, so the core count is 0.
LIFTED_WITNESSES = {
    "unary_inc": 2673,
    "flip_bits": 2673,
    "parity_mark": 5346,
    "seek_right": 2673,
}

INJECTIVITY_WITNESSES = 2673  # collide.tm, frozen from the brute-force sweep


class TestRunClassical:
    """The reference chain stops at its first halted configuration."""

    @pytest.mark.parametrize(
        "name, text, steps, out",
        [
            ("unary_inc", "111", 4, "1111"),
            ("unary_inc", "1", 2, "11"),
            ("flip_bits", "10", 3, "01"),
            ("flip_bits", "0110", 5, "1001"),
            ("parity_mark", "11", 3, "110"),
            ("parity_mark", "1", 2, "11"),
            ("seek_right", "0", 2, "0"),
            ("seek_right", "0000", 5, "0000"),
        ],
    )
    def test_frozen_runs(self, request, name, text, steps, out):
        tm = request.getfixturevalue(name)
        cfg, taken = classical_halt(tm, text, budget=20)
        assert cfg.halted
        assert taken == steps
        assert cfg.state == tm.halt
        assert tape_text(cfg.cells) == (out, 0)

    def test_budget_zero_does_not_move(self, seek_right):
        cfg, steps = classical_halt(seek_right, "0", budget=0)
        assert not cfg.halted
        assert steps == 0
        assert cfg.state == "q0"
        assert cfg.head == 0

    def test_budget_exhausted_before_halt(self, seek_right):
        cfg, steps = classical_halt(seek_right, "0000", budget=3)
        assert not cfg.halted
        assert steps == 3
        assert cfg.head == 3

    def test_missing_rule_halts_in_place(self, collide):
        # collide has no (q0, _) rule; reading a blank falls back to the
        # halt-and-drift convention and costs one step.
        cfg, steps = classical_halt(collide, "", budget=5)
        assert cfg.halted
        assert steps == 1
        assert cfg.cells == ()
        assert cfg.head == 1

    @pytest.mark.parametrize("name", CLASSICAL_NAMES)
    def test_stops_on_the_trajectory(self, request, name):
        # the table's own evolution holds the point mass the chain stops at
        tm = request.getfixturevalue(name)
        for text in CORPUS_INPUTS[name]:
            start = parse_input(text, tm)
            states = [start, *(s for _, s in trajectory(tm, start, 0, 20))]
            for budget in range(21):
                cfg, steps = classical_halt(tm, text, budget)
                assert list(states[steps].items()) == [(cfg, 1 + 0j)]
                assert cfg.halted or steps == budget

    def test_halt_state_rows_drift(self, seek_right):
        assert seek_right.rules["qH", "0"] == (RuleTarget(1, "qH", "0", "R"),)
        assert seek_right.rules["qH", "_"] == (RuleTarget(1, "qH", "_", "R"),)

    def test_missing_keys_materialize_as_halt(self, collide):
        assert collide.rules["q0", "_"] == (RuleTarget(1, "qH", "_", "R"),)


STAR_TM = """tm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q1 * -> q0 * L
rule: q0 1 -> q1 0 R
"""


def _table_texts():
    """Each corpus .tm file, the same file with its rule lines reversed, and
    a file using ``*`` on both sides of a rule."""
    for path in sorted(MACHINES.glob("*.tm")):
        lines = path.read_text().splitlines()
        rules = [line for line in lines if line.startswith("rule:")]
        others = [line for line in lines if not line.startswith("rule:")]
        yield path.stem, path.read_text()
        yield path.stem + "-reversed", "\n".join(others + rules[::-1]) + "\n"
    yield "star", STAR_TM


def _reference_table(text):
    """The effective table of ``tm-spec v1`` text, split by hand: every
    declared key to its rule line, every other key to halt-and-move-right,
    in states x alphabet order."""
    headers, lines = {}, []
    for raw in text.splitlines():
        name, _, value = raw.split("#")[0].partition(":")
        if name.strip() == "rule":
            lhs, rhs = value.split("->")
            lines.append((lhs.split(), rhs.split()))
        elif value:
            headers[name.strip()] = value.split()
    (halt,), alphabet = headers["halt"], headers["alphabet"]
    declared = {}
    for (q, read), (q2, write, move) in lines:
        for s in alphabet if read == "*" else [read]:
            declared[q, s] = (q2, s if write == "*" else write, move)
    return [
        ((q, s), (RuleTarget(1, *declared.get((q, s), (halt, s, "R"))),))
        for q in headers["states"]
        for s in alphabet
    ]


TABLE_TEXTS = dict(_table_texts())


class TestEffectiveTable:
    @pytest.mark.parametrize("name", TABLE_TEXTS)
    def test_table_matches_rule_lines(self, name):
        text = TABLE_TEXTS[name]
        assert list(parse_classical(text).rules.items()) == _reference_table(text)


class TestTrajectory:
    def test_drifts_after_halting(self, seek_right):
        chain = classical_chain(seek_right, "0", 5)
        assert [(c.state, c.head) for c in chain] == [
            ("q0", 0),
            ("q0", 1),
            ("qH", 2),
            ("qH", 3),
            ("qH", 4),
            ("qH", 5),
        ]
        assert all(c.cells == tape_cells("0") for c in chain)

    @pytest.mark.parametrize("name", REVERSIBLE)
    def test_agrees_with_lifted_machine(self, request, name):
        tm = request.getfixturevalue(name)
        spec = lift_to_qtm(tm)
        for text in ("1", "10", "0110"):
            chain = classical_chain(tm, text, 7)
            start = parse_input(text, spec)
            states = [start, *(s for _, s in trajectory(spec, start, 0, 7))]
            for cfg, state in zip(chain, states):
                assert list(state.items()) == [(cfg, 1 + 0j)]


class TestInjectivityWitnesses:
    @pytest.mark.parametrize("name", REVERSIBLE)
    def test_reversible_fixtures(self, request, name):
        assert injectivity_witnesses(request.getfixturevalue(name)) == ()

    def test_collide_witness_count_frozen(self, collide):
        assert len(injectivity_witnesses(collide)) == INJECTIVITY_WITNESSES

    def test_collide_minimal_witness(self, collide):
        c1 = collide.config("q0", tape_cells("0"), 0)
        c2 = collide.config("q0", tape_cells("1"), 0)
        assert (c1, c2) in injectivity_witnesses(collide)
        image = make_imager(collide)
        shared = {config_key(collide.config("qH", tape_cells("1"), 1)): 1}
        assert image(c1) == image(c2) == shared

    def test_witnesses_pair_running_configurations(self, collide):
        for c1, c2 in injectivity_witnesses(collide)[:100]:
            assert not c1.halted
            assert not c2.halted

    @pytest.mark.parametrize("name", REVERSIBLE + ("collide",))
    def test_witnesses_are_core_witnesses_of_unchecked_lift(self, request, name):
        # the table itself is checked against the rule lines in
        # TestEffectiveTable; here the sweep over its running rows is
        # checked against the full well-formedness check
        tm = request.getfixturevalue(name)
        pairs = check_wellformed(tm).witnesses
        assert injectivity_witnesses(tm) == tuple(w for w in pairs if w[0].halted == w[1].halted)


# an amplitude-1 table without a row for (q0, 1): classical, but not total
PARTIAL_QTM = """qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _

rule: q0 0 -> 1 : q0 0 R
rule: qH * -> 1 : qH * R
"""

# PARTIAL_QTM whose (q0, 0) row carries a phase instead of amplitude 1
PHASE_QTM = PARTIAL_QTM.replace("q0 0 -> 1 :", "q0 0 -> {amplitude} :")


class TestQuantumTableRefused:
    """The lift names the first row that is not one amplitude-1 target
    instead of checking a quantum table."""

    def test_quantum_spec_raises(self, hadamard_halt):
        with pytest.raises(ValueError, match=r"row \('q0', '0'\) is not one amplitude-1"):
            lift_to_qtm(hadamard_halt)

    @pytest.mark.parametrize("amplitude", ["-1", "1i"], ids=["minus_one", "imaginary"])
    def test_phase_row_raises(self, amplitude):
        # one target of unit modulus is still not a classical row
        spec = parse_machine(PHASE_QTM.format(amplitude=amplitude))
        with pytest.raises(ValueError, match=r"row \('q0', '0'\) is not one amplitude-1"):
            lift_to_qtm(spec)


class TestMissingKey:
    """A lifted table that lacks the key a run reads is named by the run,
    as any table is."""

    def test_trajectory_raises_missing_rule(self):
        spec = lift_to_qtm(parse_machine(PARTIAL_QTM))
        with pytest.raises(MissingRuleError, match=r"'q0' reading '1'"):
            list(trajectory(spec, parse_input("01", spec), 0, 5))

    def test_run_schedule_raises_missing_rule(self):
        spec = lift_to_qtm(parse_machine(PARTIAL_QTM))
        with pytest.raises(MissingRuleError) as err:
            run_schedule(spec, parse_input("01", spec), parse_schedule("end", 5))
        assert (err.value.state, err.value.symbol) == ("q0", "1")


class TestLibraryRun:
    """A classical table runs through ``parse_input``, ``trajectory`` and
    ``run_schedule`` like any other, under the same refusals."""

    def test_rejects_bad_symbols(self, seek_right):
        with pytest.raises(ParseError, match="alphabet"):
            parse_input("02x", seek_right)

    def test_rejects_negative_budget(self, seek_right):
        with pytest.raises(ValueError, match="below the start step"):
            next(trajectory(seek_right, parse_input("0", seek_right), 0, -1))

    def test_rejects_a_schedule_beyond_its_budget(self, seek_right):
        with pytest.raises(ValueError, match="exceeds budget 2"):
            run_schedule(seek_right, parse_input("0", seek_right), parse_schedule("end:3", 2))


class TestLift:
    @pytest.mark.parametrize("name", REVERSIBLE)
    def test_lifted_table_is_total_and_unit(self, request, name):
        tm = request.getfixturevalue(name)
        spec = lift_to_qtm(tm)
        assert spec is tm
        assert set(spec.rules) == {
            (q, s) for q in tm.states for s in tm.alphabet
        }
        for (state, symbol), targets in spec.rules.items():
            assert len(targets) == 1
            assert targets[0].amplitude == 1 + 0j
            if state == tm.halt:
                assert targets[0].state == tm.halt
                assert targets[0].write == symbol
                assert targets[0].move == "R"
        assert validate_structure(spec) == []

    @pytest.mark.parametrize("name", REVERSIBLE)
    def test_lifted_witnesses_are_all_drift(self, request, name):
        spec = lift_to_qtm(request.getfixturevalue(name))
        report = check_wellformed(spec)
        assert len(report.witnesses) == LIFTED_WITNESSES[name]
        assert report.core_count == 0

    def test_lift_refuses_collide(self, collide):
        with pytest.raises(NotReversibleError) as err:
            lift_to_qtm(collide)
        assert len(err.value.witnesses) == INJECTIVITY_WITNESSES
        assert "2673" in str(err.value)

    def test_shipped_lifted_file_matches(self, seek_right):
        rendered = render_machine(lift_to_qtm(seek_right))
        assert (MACHINES / "seek_right_lifted.qtm").read_text() == rendered

    def test_lift_is_stable_under_rerender(self):
        for name in REVERSIBLE:
            spec = lift_to_qtm(load_tm(name))
            assert render_machine(spec) == render_machine(
                lift_to_qtm(load_tm(name))
            )
