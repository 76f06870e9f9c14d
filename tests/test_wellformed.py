"""Orthogonality checker tests against frozen counts and recomputed inners.

The headline example: branching to a fresh halt symbol makes the images of
inputs 0 and 1 overlap with |inner| = 1/sqrt(2) (two running configurations,
a genuine defect), while the sign-corrected variant drives that inner product
to zero.  Witness pairs with exactly one halted member are inherent to the
halt-and-drift convention and are reported but classified separately.
"""

import itertools
import math

import pytest

from qtmlab import (
    Configuration,
    NotReversibleError,
    basis_image,
    check_wellformed,
    core_well_formed,
    lift_to_qtm,
    pair_image_inner,
    tape_cells,
    validate_structure,
)

R2 = 1 / math.sqrt(2)

# (verdict, total witnesses, core witnesses, missing rule keys)
FROZEN = {
    "hadamard_halt": ("violation", 10692, 0, (("q0", "_"),)),
    "hadamard_halt_naive": ("violation", 10692, 2673, (("q0", "_"),)),
    "right_shift": ("well_formed", 0, 0, ()),
    "delayed_hadamard": ("violation", 13365, 0, ()),
    "halt_rows_collide": ("violation", 8991, 1458, ()),
}


def minimal_pair(spec):
    return (
        spec.config("q0", tape_cells("0"), 0),
        spec.config("q0", tape_cells("1"), 0),
    )


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_reports(name, request):
    spec = request.getfixturevalue(name)
    verdict, total, core, missing = FROZEN[name]
    report = check_wellformed(spec)
    assert report.verdict == verdict
    assert len(report.witnesses) == total
    assert report.core_count == core
    assert report.missing_rule_keys == missing
    assert report.norm_violations == ()
    assert core_well_formed(report) == (core == 0)


def test_naive_machine_minimal_witness(naive_report, hadamard_halt_naive):
    c1, c2 = minimal_pair(hadamard_halt_naive)
    inners = {w: pair_image_inner(hadamard_halt_naive, *w) for w in naive_report.witnesses}
    assert (c1, c2) in inners
    assert abs(inners[(c1, c2)]) == pytest.approx(R2, abs=1e-12)


def test_corrected_machine_zeroes_the_minimal_pair(corrected_report, hadamard_halt):
    c1, c2 = minimal_pair(hadamard_halt)
    assert pair_image_inner(hadamard_halt, c1, c2) == pytest.approx(0, abs=1e-12)
    assert (c1, c2) not in set(corrected_report.witnesses)


def test_corrected_machine_witnesses_are_all_drift(corrected_report):
    assert corrected_report.core_count == 0
    assert all(c1.halted != c2.halted for c1, c2 in corrected_report.witnesses)


def test_naive_core_witnesses_join_two_running_configs(naive_report, hadamard_halt_naive):
    core = [(c1, c2) for c1, c2 in naive_report.witnesses if c1.halted == c2.halted]
    assert len(core) == 2673
    assert all(not c1.halted and not c2.halted for c1, c2 in core)
    inners = {round(abs(pair_image_inner(hadamard_halt_naive, *w)), 12) for w in core}
    assert inners == {round(R2, 12)}


def test_drift_witness_moduli(naive_report, hadamard_halt_naive):
    drift = [(c1, c2) for c1, c2 in naive_report.witnesses if c1.halted != c2.halted]
    moduli = {round(abs(pair_image_inner(hadamard_halt_naive, *w)), 12) for w in drift}
    assert moduli == {round(R2, 12), 1.0}


def test_corpus_passes_core_gate(corpus):
    for name, spec, _ in corpus:
        report = check_wellformed(spec)
        assert core_well_formed(report), name
        assert report.core_count == 0, name


def test_colliding_halt_rows_give_core_witnesses(halt_rows_collide):
    # both halted members collide: a core defect, though neither is running
    assert validate_structure(halt_rows_collide) == []
    report = check_wellformed(halt_rows_collide)
    core = [(c1, c2) for c1, c2 in report.witnesses if c1.halted == c2.halted]
    assert len(core) == report.core_count == 1458
    assert all(c1.halted and c2.halted for c1, c2 in core)


def test_minimal_pair_is_a_candidate(hadamard_halt, candidate_pairs):
    c1, c2 = minimal_pair(hadamard_halt)
    assert (c1, c2) in candidate_pairs


def _refused_lift_witnesses(spec):
    with pytest.raises(NotReversibleError) as err:
        lift_to_qtm(spec)
    return err.value.witnesses


# every source of witnesses: (fixture, pairs of that fixture)
WITNESS_SOURCES = {
    "check_wellformed": ("hadamard_halt_naive", lambda spec: check_wellformed(spec).witnesses),
    "NotReversibleError": ("collide", _refused_lift_witnesses),
}


@pytest.mark.parametrize("source", sorted(WITNESS_SOURCES))
def test_a_witness_is_an_ordered_configuration_pair(source, request):
    name, pairs = WITNESS_SOURCES[source]
    seen = 0
    for w in itertools.islice(pairs(request.getfixturevalue(name)), 20000):
        assert type(w) is tuple and len(w) == 2
        c1, c2 = w
        assert type(c1) is Configuration and type(c2) is Configuration
        assert c1 < c2
        seen += 1
    assert seen > 0


def test_witness_inner_matches_basis_images(naive_report, hadamard_halt_naive):
    for c1, c2 in itertools.islice(naive_report.witnesses, 200):
        u = basis_image(hadamard_halt_naive, c1)
        v = basis_image(hadamard_halt_naive, c2)
        assert pair_image_inner(hadamard_halt_naive, c1, c2) == u.inner(v)


def test_pair_image_inner_is_translation_invariant(naive_report, hadamard_halt_naive):
    for c1, c2 in itertools.islice(naive_report.witnesses, 50):
        for offset in (-3, 4):
            shifted = pair_image_inner(
                hadamard_halt_naive, c1.shifted(offset), c2.shifted(offset)
            )
            assert shifted == pair_image_inner(hadamard_halt_naive, c1, c2)


def test_halted_image_is_pure_drift(hadamard_halt):
    halted = hadamard_halt.config("qH", tape_cells("10"), 0)
    img = basis_image(hadamard_halt, halted)
    ((cfg, amp),) = list(img.items())
    assert amp == 1 + 0j
    assert cfg.head == 1
    assert cfg.cells == halted.cells
    assert cfg.halted
