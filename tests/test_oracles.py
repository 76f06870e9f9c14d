"""Cross-checks between the library and the independent oracles.

The integer constants below were produced by the oracles in oracles.py and
confirmed against the library once; they are frozen here as regression
values.  A failure means one side drifted.
"""

import re

import oracles
import pytest
from conftest import MACHINES, load_qtm
from test_measurement import QTM_INPUTS

from qtmlab import (
    analyze_halting_subspace,
    check_wellformed,
    core_well_formed,
    pair_image_inner,
    parse_input,
    parse_machine,
)

# Distinct unordered window pairs for two states over a three-symbol
# alphabet, after translation deduplication.
CANDIDATE_COUNT = 459999

# (total witnesses, core witnesses: both members running or both halted)
WITNESS_COUNTS = {
    "hadamard_halt": (10692, 0),
    "hadamard_halt_naive": (10692, 2673),
    "right_shift": (0, 0),
    "halt_rows_collide": (8991, 1458),
}


@pytest.mark.parametrize("name", sorted(WITNESS_COUNTS))
def test_checker_matches_brute_force_sweep(name, request, candidate_pairs):
    spec = request.getfixturevalue(name)
    report = check_wellformed(spec)
    assert len(candidate_pairs) == CANDIDATE_COUNT
    brute = oracles.brute_force_witnesses(spec, candidate_pairs)

    got = {oracles.pair_key(w): pair_image_inner(spec, *w) for w in report.witnesses}
    assert set(got) == set(brute)
    assert all(abs(got[k] - brute[k]) <= 1e-12 for k in got)

    total, core = WITNESS_COUNTS[name]
    assert len(report.witnesses) == total
    assert report.core_count == core
    assert core_well_formed(report) == (core == 0)


def test_subspace_matches_projection_oracle(corpus, right_shift):
    cases = [(spec, inputs[0], 6) for _, spec, inputs in corpus]
    cases.append((right_shift, "0", 5))
    # halt rows that do not all move right take the Gram-Schmidt path
    seek = (MACHINES / "seek_right_lifted.qtm").read_text()
    for read, move in ((r"\S", "N"), (r"\S", "L"), ("_", "N")):
        spec = parse_machine(re.sub(rf"(qH {read} -> 1 : qH \S) R", rf"\1 {move}", seek))
        assert spec.drift_amplitude is None
        cases.append((spec, "1/sqrt(2):01 + 1/sqrt(2):1100", 8))
    for spec, text, steps in cases:
        inp = parse_input(text, spec)
        report = analyze_halting_subspace(spec, inp, steps)
        count, newly, gram, overlap, residual, verdict = oracles.projection_subspace(
            spec, inp, steps
        )
        assert report.halted_basis_count == count
        assert set(report.newly_halting) == set(newly)
        assert report.gram_deviation == pytest.approx(gram, abs=1e-12)
        assert report.max_overlap == pytest.approx(overlap, abs=1e-9)
        assert report.max_residual == pytest.approx(residual, abs=1e-9)
        assert report.verdict == verdict


@pytest.mark.parametrize("name", sorted(QTM_INPUTS))
def test_subspace_window_edges_match_projection_oracle(name):
    # short windows: a running key of S_steps has not stepped inside the
    # window, so it must not count as newly halting
    spec = load_qtm(name)
    for text in QTM_INPUTS[name]:
        inp = parse_input(text, spec)
        for steps in range(5):
            report = analyze_halting_subspace(spec, inp, steps)
            count, newly, *_, verdict = oracles.projection_subspace(spec, inp, steps)
            assert report.halted_basis_count == count, (text, steps)
            assert set(report.newly_halting) == set(newly), (text, steps)
            assert report.verdict == verdict, (text, steps)
