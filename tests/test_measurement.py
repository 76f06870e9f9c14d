"""Measurement schedule engine: distributions, sampling, comparison."""

import copy
import math
import pickle
from itertools import accumulate

import pytest
from conftest import CLASSICAL_NAMES, CORPUS_INPUTS, MACHINES, load_qtm, load_tm
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmlab import (
    UNHALTED,
    Configuration,
    HaltOutcome,
    ParseError,
    QuantumState,
    Schedule,
    compare_schedules,
    initial_state,
    lift_to_qtm,
    parse_input,
    parse_machine,
    parse_schedule,
    run_schedule,
    sample_run,
    tape_cells,
    trajectory,
)
from qtmlab.measurement import MeasurementRecord, _chain, _Unhalted, _walk

R2 = 1 / math.sqrt(2)


def dist(spec, text, schedule):
    return run_schedule(spec, parse_input(text, spec), schedule)


def every(budget):
    return parse_schedule("every", budget)


def end(n):
    return parse_schedule(f"end:{n}", n)


class TestSchedules:
    def test_every_step(self):
        assert every(4) == Schedule("every", range(1, 5), 4)
        assert list(every(4).steps) == [1, 2, 3, 4]
        assert not every(0).steps

    def test_every_step_is_not_materialized(self):
        assert len(parse_schedule("every", 10**12).steps) == 10**12

    def test_at_steps_sorts_and_dedupes(self):
        s = parse_schedule("at:3,1,2,2", budget=5)
        assert s == Schedule("at:1,2,3", (1, 2, 3), 5)

    def test_at_steps_rejects_nonpositive(self):
        with pytest.raises(ParseError, match="bad schedule"):
            parse_schedule("at:0,2", budget=5)

    def test_end_only(self):
        assert parse_schedule("end:4", budget=6) == Schedule("end:4", (4,), 6)
        assert parse_schedule("end:0", budget=6) == Schedule("end:0", (), 6)
        assert parse_schedule("end", budget=6) == Schedule("end:6", (6,), 6)

    @pytest.mark.parametrize("text", ["at:9", "end:9", "at:1,9"])
    def test_steps_beyond_budget_rejected_when_run(self, hadamard_halt, text):
        # parsing accepts them: the budget check belongs to run_schedule
        schedule = parse_schedule(text, budget=3)
        with pytest.raises(ValueError, match="schedule step 9 exceeds budget 3"):
            dist(hadamard_halt, "0", schedule)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("every", Schedule("every", range(1, 8), 7)),
            ("end", Schedule("end:7", (7,), 7)),
            ("end:3", Schedule("end:3", (3,), 7)),
            ("at:3,1,2", Schedule("at:1,2,3", (1, 2, 3), 7)),
            ("at:03", Schedule("at:3", (3,), 7)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_schedule(text, budget=7) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "sometimes", "at:x", "end:x", "",
            "at:1_0", "at:+3", "at:٣", "end:0_3",
            "at:", "at:1,,2", "at: 3", "end:-1",
        ],
    )
    def test_parse_rejections(self, text):
        with pytest.raises(ParseError):
            parse_schedule(text, budget=7)


class TestRunSchedule:
    def test_hadamard_every_step(self, hadamard_halt):
        d = dist(hadamard_halt, "0", every(5))
        assert d.entries == (
            (HaltOutcome(1, tape_cells("0")), 0.5),
            (HaltOutcome(1, tape_cells("1")), 0.5),
            (UNHALTED, 0.0),
        )
        assert d.max_norm_drift == 2.220446049250313e-16
        assert len(d.records) == 1
        rec = d.records[0]
        assert rec.step == 1
        assert rec.p_halt == 1.0
        assert rec.halted_outcomes == (
            (tape_cells("0"), 0.5),
            (tape_cells("1"), 0.5),
        )

    def test_every_step_walks_only_until_the_lineage_empties(self, hadamard_halt):
        # the state has fully halted at step 1; no step list of the budget's length
        huge = dist(hadamard_halt, "0", every(10**12))
        assert huge.entries == dist(hadamard_halt, "0", every(5)).entries

    def test_hadamard_end_only_agrees_up_to_halt_step(self, hadamard_halt):
        d = dist(hadamard_halt, "0", end(5))
        assert d.entries == (
            (HaltOutcome(5, tape_cells("0")), 0.5),
            (HaltOutcome(5, tape_cells("1")), 0.5),
            (UNHALTED, 0.0),
        )

    def test_interference_on_superposed_input(self, hadamard_halt):
        d = dist(hadamard_halt, "1/sqrt(2):0 + 1/sqrt(2):1", every(4))
        coarse = d.coarsened()
        assert coarse[tape_cells("0")] == pytest.approx(1.0)
        assert coarse[UNHALTED] == pytest.approx(0.0, abs=1e-12)

    def test_delayed_hadamard_two_branches(self, delayed_hadamard):
        d = dist(delayed_hadamard, "10", every(4))
        assert d.entries == (
            (HaltOutcome(2, tape_cells("10")), 0.5),
            (HaltOutcome(2, tape_cells("11")), 0.5),
            (UNHALTED, 0.0),
        )

    def test_nonhalting_machine_reports_unhalted(self, right_shift):
        d = dist(right_shift, "0", every(10))
        assert d.entries == ((UNHALTED, 1.0),)
        assert d.records == ()
        assert d.probability(UNHALTED) == 1.0

    def test_zero_measurements_leave_everything_live(self, hadamard_halt):
        d = dist(hadamard_halt, "0", parse_schedule("end:0", 5))
        assert d.entries == ((UNHALTED, 1.0),)

    def test_probability_accessor(self, hadamard_halt):
        d = dist(hadamard_halt, "0", every(5))
        assert d.probability(HaltOutcome(1, tape_cells("0"))) == 0.5
        assert d.probability(HaltOutcome(3, tape_cells("0"))) == 0.0

    def test_negative_budget_rejected(self, hadamard_halt):
        with pytest.raises(ValueError):
            dist(hadamard_halt, "0", every(-1))

    @pytest.mark.parametrize("k", range(6))
    def test_run_resumes_from_any_state_of_the_run(self, k):
        # the 01 branch halts at step 3, the 1100 branch at step 5
        spec = load_qtm("seek_right_lifted")
        n = 6
        start = parse_input("1/sqrt(2):01 + 1/sqrt(2):1100", spec)
        whole = run_schedule(spec, start, end(n))
        s_k = start if k == 0 else list(trajectory(spec, start, 0, k))[-1][1]
        rest = run_schedule(spec, s_k, end(n - k))
        assert [(o.step + k, o.cells, repr(p)) for o, p in rest.entries[:-1]] == [
            (o.step, o.cells, repr(p)) for o, p in whole.entries[:-1]
        ]
        assert len(whole.entries) == 3
        assert repr(rest.entries[-1][1]) == repr(whole.entries[-1][1])

    def test_unhalted_sentinel_is_a_singleton(self):
        assert _Unhalted() is UNHALTED
        assert repr(UNHALTED) == "UNHALTED"
        # each rebuilds the object through __new__, which hands back the one
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(UNHALTED) is UNHALTED


class TestSampling:
    def test_seeded_counts_frozen(self, hadamard_halt):
        dist, counts = sample_run(
            hadamard_halt, parse_input("0", hadamard_halt), every(5),
            seed=7, samples=2000,
        )
        assert [(o, n) for (o, _), n in zip(dist.entries, counts)] == [
            (HaltOutcome(1, tape_cells("0")), 1011),
            (HaltOutcome(1, tape_cells("1")), 989),
            (UNHALTED, 0),
        ]

    def test_identical_seeds_identical_reports(self, delayed_hadamard):
        inp = parse_input("10", delayed_hadamard)
        a = sample_run(delayed_hadamard, inp, every(6), seed=123, samples=500)
        b = sample_run(delayed_hadamard, inp, every(6), seed=123, samples=500)
        assert a == b

    def test_different_seeds_differ(self, hadamard_halt):
        inp = parse_input("0", hadamard_halt)
        a = sample_run(hadamard_halt, inp, every(5), seed=1, samples=200)
        b = sample_run(hadamard_halt, inp, every(5), seed=2, samples=200)
        assert a[1] != b[1]

    def test_nonhalting_samples_are_unhalted(self, right_shift):
        dist, counts = sample_run(
            right_shift, parse_input("0", right_shift), every(5),
            seed=0, samples=50,
        )
        assert [o for o, _ in dist.entries] == [UNHALTED]
        assert counts == [50]

    def test_zero_samples(self, hadamard_halt):
        dist, counts = sample_run(
            hadamard_halt, parse_input("0", hadamard_halt), every(5),
            seed=0, samples=0,
        )
        assert counts == [0] * len(dist.entries)

    def test_negative_samples_rejected(self, hadamard_halt):
        with pytest.raises(ValueError):
            sample_run(
                hadamard_halt, parse_input("0", hadamard_halt), every(5),
                seed=0, samples=-1,
            )

    def test_walk_falls_back_to_the_last_outcome_when_fracs_sum_short(self):
        # ten fracs of 0.1 sum to 0.9999999999999999, so a draw of 1 - 2**-53
        # is below no partial sum and the walk takes the record's last outcome
        outcomes = tuple((tape_cells("0" * n), 0.1) for n in range(1, 11))
        assert sum(frac for _, frac in outcomes) == 1 - 2**-53
        draws = iter([0.0, 1 - 2**-53])

        class Draws:
            def random(self):
                return next(draws)

        assert _walk(_chain([MeasurementRecord(1, 1.0, outcomes)]), Draws()) == 9

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_walk_picks_what_a_linear_scan_picks(self, data):
        # zero fractions give runs of equal sums, and ten of 0.1 sum short of 1
        fracs = st.lists(
            st.one_of(st.just(0.0), st.just(0.1), st.floats(0.0, 0.5)), min_size=1, max_size=10
        )
        drawn = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), fracs), max_size=4))
        records = [
            MeasurementRecord(t, p, tuple((tape_cells("1" * j), f) for j, f in enumerate(fs, 1)))
            for t, (p, fs) in enumerate(drawn, 1)
        ]
        # draws that hit a running sum exactly, or the largest double below 1
        sums = [x for _, fs in drawn for x in accumulate(fs) if x < 1.0]
        draw = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([*sums, 0.0, 1 - 2**-53])
        )
        draws = []

        class Draws:
            def random(self):
                draws.append(data.draw(draw))
                return draws[-1]

        got = _walk(_chain(records), Draws())
        replay = iter(draws)

        class Replay:
            def random(self):
                return next(replay)

        assert got == _linear_walk(records, Replay())
        assert next(replay, None) is None  # both took the same draws


def _linear_walk(records, rng):
    """The sampled entry index by a scan: the first outcome whose running
    sum exceeds the draw, else the record's last outcome."""
    base = 0
    for rec in records:
        if rng.random() < rec.p_halt:
            v = rng.random()
            acc = 0.0
            for j, (_, frac) in enumerate(rec.halted_outcomes):
                acc += frac
                if v < acc:
                    return base + j
            return base + len(rec.halted_outcomes) - 1
        base += len(rec.halted_outcomes)
    return base


# running amplitudes from 1e-170, whose squares underflow to 0.0, up to 1e-5,
# whose squares an input's norm tolerance still admits
TINY = st.floats(-170, -5).map(lambda e: 10.0**e)


class TestHaltProbabilityBound:
    """``p_halt`` is ``h / norm2`` with no clamp: ``norm2`` adds the halted
    terms that make ``h`` onto the running mass, left to right, each term
    >= 0, and rounding is monotone, so ``h <= norm2``."""

    @given(
        halted=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=6),
        running=st.lists(TINY, max_size=3),
    )
    def test_halted_mass_within_norm2(self, halted, running):
        amps = {Configuration(True, "qH", i, ()): a for i, a in enumerate(halted)}
        amps |= {Configuration(False, "q0", i, ()): a for i, a in enumerate(running)}
        state = QuantumState(amps)
        assert state.halted_mass() <= state.norm2()
        assert state.component(True).norm2() == state.halted_mass()
        if state.norm2() > 0.0:
            assert state.halted_mass() / state.norm2() <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
        tiny=TINY,
    )
    def test_p_halt_at_most_one(self, weights, tiny):
        # strings of lengths 1..4 halt at steps 2..5; the 12-symbol one runs
        spec = load_qtm("seek_right_lifted")
        total = sum(weights)
        terms = [(math.sqrt(w / total), "1" * n) for n, w in enumerate(weights, start=1)]
        state = initial_state(spec, [*terms, (tiny, "0" * 12)])
        for _, s in trajectory(spec, state, 0, 8):
            assert s.halted_mass() <= s.norm2()
        d = run_schedule(spec, state, every(8))
        assert len(d.records) == len(weights)
        assert all(0.0 < rec.p_halt <= 1.0 for rec in d.records)


# every corpus .qtm file with inputs that halt at different steps
QTM_INPUTS = {
    "delayed_hadamard": ("10", "0", "1/sqrt(2):10 + 1/sqrt(2):0"),
    "hadamard_halt": ("0", "1", "1/sqrt(2):0 + 1/sqrt(2):1"),
    "hadamard_halt_naive": ("0", "1", "1/sqrt(2):0 + 1/sqrt(2):1"),
    "right_shift": ("0", "101", "1/sqrt(2):0 + 1/sqrt(2):1"),
    "seek_right_lifted": ("01", "1100", "1/sqrt(2):01 + 1/sqrt(2):1100"),
}


class TestOutcomeOrder:
    @pytest.mark.parametrize("schedule", ["every", "end", "at:1,3,5"])
    @pytest.mark.parametrize(
        "name, text", [(name, text) for name, texts in QTM_INPUTS.items() for text in texts]
    )
    def test_entries_come_in_chain_order(self, name, text, schedule):
        spec = load_qtm(name)
        dist, counts = sample_run(
            spec, parse_input(text, spec), parse_schedule(schedule, 8),
            seed=0, samples=300,
        )
        entries = [outcome for outcome, _ in dist.entries]
        assert entries[-1] is UNHALTED
        keys = [(o.step, o.cells) for o in entries[:-1]]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(counts) == len(entries)
        assert sum(counts) == 300


class TestCompare:
    def test_well_behaved_machine_is_schedule_invariant(self, hadamard_halt):
        report = compare_schedules(
            hadamard_halt, parse_input("0", hadamard_halt),
            every(6), end(6),
        )
        assert report.tv_distance == 0.0
        assert not report.norm_flag
        assert report.equivalent

    def test_norm_breaking_machine_is_flagged(self, hadamard_halt_naive):
        inp = parse_input("1/sqrt(2):0 + 1/sqrt(2):1", hadamard_halt_naive)
        report = compare_schedules(
            hadamard_halt_naive, inp, every(6), end(6),
        )
        assert report.tv_distance == 0.0
        assert report.max_abs_diff == 0.0
        assert report.max_norm_drift == 0.7071067811865475
        assert report.norm_flag
        assert not report.equivalent

    def test_born_ratios_hide_the_drift(self, hadamard_halt_naive):
        # The distribution itself still sums to 1; only the flag reveals
        # that the machine inflated the norm along the way.
        inp = parse_input("1/sqrt(2):0 + 1/sqrt(2):1", hadamard_halt_naive)
        d = run_schedule(hadamard_halt_naive, inp, every(6))
        coarse = d.coarsened()
        assert sum(coarse.values()) == pytest.approx(1.0, abs=1e-12)
        assert coarse[tape_cells("0")] == pytest.approx(0.14644660940672619)
        assert coarse[tape_cells("1")] == pytest.approx(0.8535533905932737)

    def test_coarsened_lists_tapes_in_cell_order(self):
        # the 11 branch halts at step 3 and the 0000 branch at step 5, but
        # 0000 comes first in cell order; compare prints in this order
        spec = load_qtm("seek_right_lifted")
        d = dist(spec, "1/sqrt(2):11 + 1/sqrt(2):0000", every(9))
        assert [o.cells for o, _ in d.entries[:-1]] == [tape_cells("11"), tape_cells("0000")]
        assert list(d.coarsened()) == [tape_cells("0000"), tape_cells("11"), UNHALTED]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_schedule_matches_end_measurement(self, data, delayed_hadamard):
        budget = 8
        extra = data.draw(st.sets(st.integers(1, budget), max_size=5))
        schedule = parse_schedule("at:" + ",".join(map(str, extra | {budget})), budget)
        report = compare_schedules(
            delayed_hadamard, parse_input("10", delayed_hadamard),
            schedule, end(budget),
        )
        assert report.tv_distance <= 1e-9
        assert report.equivalent


# (loader, inputs) for every corpus .qtm file and every lift
CORPUS_AND_LIFTS = [
    *(pytest.param(lambda n=n: load_qtm(n), QTM_INPUTS[n], id=n) for n in QTM_INPUTS),
    *(
        pytest.param(lambda n=n: lift_to_qtm(load_tm(n)), CORPUS_INPUTS[n], id=f"{n}.tm")
        for n in CLASSICAL_NAMES
    ),
]


class TestStopRule:
    """Under drift_amplitude a run stops stepping once nothing runs; the
    answer is the one that stepping every halted configuration through the
    rule loop to the budget gives."""

    @pytest.mark.parametrize("load, inputs", CORPUS_AND_LIFTS)
    def test_early_stop_equals_full_stepping(self, monkeypatch, load, inputs):
        fast, slow = load(), load()
        assert fast.drift_amplitude is not None
        monkeypatch.setitem(vars(slow), "drift_amplitude", None)
        for text in inputs:
            for budget in (8, 40):
                for label in ("every", "end", "end:1", "end:3", "at:1,4,7"):
                    schedule = parse_schedule(label, budget)
                    for prune in (0.0, 0.1):
                        got = run_schedule(fast, parse_input(text, fast), schedule, prune)
                        want = run_schedule(slow, parse_input(text, slow), schedule, prune)
                        assert got == want
                        assert got.records == want.records

    def test_halt_row_that_is_not_pure_drift_steps_to_the_budget(self):
        # amplitude 1/2 on the blank: the halted branch loses norm each step
        text = (MACHINES / "seek_right_lifted.qtm").read_text()
        spec = parse_machine(text.replace("qH _ -> 1 : qH _ R", "qH _ -> 1/2 : qH _ R"))
        assert spec.drift_amplitude is None
        inp = parse_input("01", spec)
        drifts = [
            run_schedule(spec, inp, parse_schedule("end:1", budget)).max_norm_drift
            for budget in (3, 4, 5, 8)
        ]
        assert drifts[0] == 0.0
        assert all(a < b for a, b in zip(drifts, drifts[1:]))

    def test_compare_refuses_schedules_with_different_budgets(self, hadamard_halt):
        inp = parse_input("0", hadamard_halt)
        with pytest.raises(ValueError, match="budgets differ: 6 and 5"):
            compare_schedules(hadamard_halt, inp, every(6), end(5))
