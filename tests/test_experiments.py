"""Superposed-input halting window and halting subspace analysis tests."""

import pytest
from conftest import MACHINES
from test_evolution import MIXED_HALT_ROWS

from qtmlab import (
    ParseError,
    analyze_halting_subspace,
    lift_to_qtm,
    parse_input,
    QuantumState,
    parse_machine,
    superposition_window,
    tape_cells,
    trajectory,
)
from qtmlab.experiments import _gram_overlaps, _translate_overlaps
from qtmlab.wellformed import basis_image

# Every input's 3/5 branch halts at step 1 with the head on cell 1.  The
# 4/5 branch of input 0 halts at step 2 on the drifted copies of all three,
# so its halted part meets three translated keys, and their squared
# overlaps sum to different floats in different orders.
OVERLAPPING = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 0 -> 3/5 : qH 1 R | 4/5 : q1 1 R
rule: q1 _ -> 1/2 : qH _ R | 1/5 : qH 0 R | 1/3 : qH 1 R
rule: q1 0 -> 1 : qH 0 R
rule: q1 1 -> 1 : qH 1 R
rule: qH * -> 1 : qH * R
"""
OVERLAPPING_INPUT = "1/sqrt(3):0 + 1/sqrt(3):00 + 1/sqrt(3):01"

# Halt rows whose drift images overlap in part: the image of |qH, 0, "1">
# is 3/5 of the image of |qH, 0, "0"> plus 4/5 of a new direction.
SKEWED_HALT = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1 : qH * R
rule: qH 0 -> 1 : qH 0 R
rule: qH 1 -> 3/5 : qH 0 R | 4/5 : qH 1 R
"""


@pytest.fixture(scope="module")
def seek_lifted(seek_right):
    return lift_to_qtm(seek_right)


class TestSuperpositionWindow:
    def test_mixed_length_inputs_leave_a_window(self, seek_lifted):
        report = superposition_window(seek_lifted, "0", "0000", 8)
        assert report.per_step == (0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert report.halt_step_a == 2
        assert report.halt_step_b == 5
        assert report.window == (2, 4)

    def test_window_is_strictly_between_the_halt_steps(self, seek_lifted):
        report = superposition_window(seek_lifted, "0", "0000", 8)
        lo, hi = report.window
        assert report.halt_step_a <= lo
        assert hi < report.halt_step_b
        assert all(0.0 < m < 1.0 for m in report.per_step[lo : hi + 1])

    def test_equal_inputs_have_no_window(self, seek_lifted):
        report = superposition_window(seek_lifted, "0", "0", 4)
        assert report.per_step == (0.0, 0.0, 1.0, 1.0, 1.0)
        assert report.window is None
        assert report.halt_step_a == 2
        assert report.halt_step_b == 2

    def test_budget_below_second_halt_leaves_open_window(self, seek_lifted):
        report = superposition_window(seek_lifted, "0", "0000", 4)
        assert report.halt_step_a == 2
        assert report.halt_step_b is None
        assert report.window == (2, 4)

    def test_longer_gap_widens_the_window(self, seek_lifted):
        a = superposition_window(seek_lifted, "0", "000", 8)
        b = superposition_window(seek_lifted, "0", "000000", 8)
        width = lambda r: r.window[1] - r.window[0]
        assert width(b) > width(a)

    def test_rejects_bad_symbols(self, seek_lifted):
        with pytest.raises(ParseError):
            superposition_window(seek_lifted, "0", "02", 6)

    def test_rejects_negative_budget(self, seek_lifted):
        with pytest.raises(ValueError):
            superposition_window(seek_lifted, "0", "00", -1)


class TestHaltingSubspace:
    def test_hadamard_frozen_report(self, hadamard_halt):
        report = analyze_halting_subspace(
            hadamard_halt, parse_input("0", hadamard_halt), 3
        )
        assert report.halted_basis_count == 6
        assert report.newly_halting == (
            hadamard_halt.config("q0", tape_cells("0"), 0),
        )
        assert report.gram_deviation == 0.0
        assert report.max_overlap == 0.0
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "gap_found"

    def test_drift_images_stay_orthonormal(self, delayed_hadamard):
        report = analyze_halting_subspace(
            delayed_hadamard, parse_input("10", delayed_hadamard), 6
        )
        assert report.gram_deviation <= 1e-12
        assert report.verdict == "gap_found"

    def test_lifted_machine_gap(self, seek_lifted):
        report = analyze_halting_subspace(
            seek_lifted, parse_input("0000", seek_lifted), 8
        )
        assert report.halted_basis_count == 4
        assert len(report.newly_halting) == 1
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "gap_found"

    def test_nonhalting_machine(self, right_shift):
        report = analyze_halting_subspace(
            right_shift, parse_input("0", right_shift), 5
        )
        assert report.halted_basis_count == 0
        assert report.newly_halting == ()
        assert report.gram_deviation == 0.0
        assert report.max_residual == 0.0
        assert report.verdict == "no_halting_observed"

    def test_window_of_zero_steps_sees_nothing(self, right_shift):
        report = analyze_halting_subspace(
            right_shift, parse_input("0", right_shift), 0
        )
        assert report.verdict == "no_halting_observed"

    def test_rejects_negative_steps(self, hadamard_halt):
        with pytest.raises(ValueError):
            analyze_halting_subspace(hadamard_halt, parse_input("0", hadamard_halt), -2)


class TestSubspacePaths:
    """The translate lookup agrees exactly with the Gram-Schmidt path."""

    @pytest.mark.parametrize(
        "name",
        [p.name for p in sorted(MACHINES.glob("*.qtm"))] + ["overlapping", "mixed_halt_rows"],
    )
    def test_both_paths_give_equal_reports(self, monkeypatch, name):
        if name == "overlapping":
            text, inputs = OVERLAPPING, (OVERLAPPING_INPUT,)
        else:
            text = MIXED_HALT_ROWS if name == "mixed_halt_rows" else (MACHINES / name).read_text()
            inputs = ("0", "1100", "1/sqrt(2):01 + 1/sqrt(2):1100")
        # halt rows 1 and 1 - 0i differ only in bits: as written they take
        # the Gram path, made equal the translate lookup
        fast, slow = parse_machine(text.replace("1 - 0i", "1")), parse_machine(text)
        assert fast.drift_amplitude is not None
        monkeypatch.setitem(vars(slow), "drift_amplitude", None)
        for inp in inputs:
            for steps in (3, 8):
                report = analyze_halting_subspace(fast, parse_input(inp, fast), steps)
                assert report == analyze_halting_subspace(slow, parse_input(inp, slow), steps)
                assert report.gram_deviation == 0.0
        if name == "overlapping":
            assert report.max_overlap == 1.0
            assert report.max_residual == pytest.approx(0.6)

    def test_overlaps_agree_for_every_halted_part(self):
        # the report keeps only maxima; compare what each part feeds them
        spec = parse_machine(OVERLAPPING)
        start = parse_input(OVERLAPPING_INPUT, spec)
        states = [start, *(s for _, s in trajectory(spec, start, 0, 4))]
        halted = sorted({k for s in states for k, _ in s.keyed_items() if k[0]})
        _, lookup = _translate_overlaps(halted)
        _, gram = _gram_overlaps(spec, halted, 1e-9)
        hits = []
        for cfg in {c for s in states for c in s.configurations() if not c.halted}:
            part = basis_image(spec, cfg).component(True)
            (overlaps, projections), (g_overlaps, g_projections) = lookup(part), gram(part)
            assert max([0.0, *overlaps]) == max([0.0, *g_overlaps])
            assert sum(p ** 2 for p in projections) == sum(p ** 2 for p in g_projections)
            hits.append(len(projections))
        assert max(hits) == 3

    def test_gram_schmidt_removes_the_shared_direction(self):
        spec = parse_machine(SKEWED_HALT)
        assert spec.drift_amplitude is None
        keys = [spec.config("qH", tape_cells(text), 0) for text in "01"]
        deviation, measure = _gram_overlaps(spec, keys, 1e-9)
        assert deviation == pytest.approx(0.6)
        overlaps, projections = measure(
            QuantumState({spec.config("qH", tape_cells("1"), 1): 1 + 0j})
        )
        assert overlaps == pytest.approx([0.0, 0.8])
        # w - c*e leaves the new direction alone; w + c*e would give 0.5547
        assert projections == pytest.approx([0.0, 1.0])

    def test_gram_schmidt_keeps_a_residual_of_norm_above_tol(self):
        # the residual direction has norm 1e-6 > tol but norm2 1e-12 < tol:
        # the rank test compares norm2 with tol squared, so it is kept
        row = "1 : qH 0 R | 1/1000000 : qH 1 R"
        spec = parse_machine(SKEWED_HALT.replace("3/5 : qH 0 R | 4/5 : qH 1 R", row))
        keys = [spec.config("qH", tape_cells(text), 0) for text in "01"]
        _, measure = _gram_overlaps(spec, keys, 1e-9)
        _, projections = measure(QuantumState({spec.config("qH", tape_cells("1"), 1): 1 + 0j}))
        assert projections == pytest.approx([0.0, 1.0])
