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
    parse_classical,
    parse_machine,
    tape_cells,
    validate_structure,
)
from conftest import MACHINES
from test_evolution import EXTRA

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


# Three machines whose halt rows break the halt rule of ``validate_structure``
# (a halted branch must stay halted on an unchanged tape, as the halt flag and
# reading it at every step or only at the end need).  On the first, a halted
# branch that reads a blank starts running again.
HALT_LEAVES_ON_BLANK = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1 : qH * R
rule: qH 0 -> 1 : qH 0 R
rule: qH 1 -> 1 : qH 1 R
rule: qH _ -> 1 : q0 _ R
"""

# The same machine, whose halt row on 0 flips the sign of the halted
# amplitude and whose halt row on a blank drifts: only the phase breaks it.
HALT_FLIPS_PHASE = (
    HALT_LEAVES_ON_BLANK.replace("qH 0 -> 1 : qH 0 R", "qH 0 -> -1 : qH 0 R")
    .replace("qH _ -> 1 : q0 _ R", "qH _ -> 1 : qH _ R")
)

# Nothing enters the halt state and its rows swap 0 and 1: an isometry with
# no witness at all, so the halt rule alone makes it a violation.
HALT_REWRITES = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1 : q0 * R
rule: qH 0 -> 1 : qH 1 R
rule: qH 1 -> 1 : qH 0 R
rule: qH _ -> 1 : qH _ R
"""

# name -> (text, halt-rule keys, core witnesses, drift witnesses)
HALT_RULE_BREAKERS = {
    "leaves_on_blank": (HALT_LEAVES_ON_BLANK, (("qH", "_"),), 0, 5346),
    "flips_phase": (HALT_FLIPS_PHASE, (("qH", "0"),), 0, 8019),
    "rewrites": (HALT_REWRITES, (("qH", "0"), ("qH", "1")), 0, 0),
}


@pytest.mark.parametrize("name", sorted(HALT_RULE_BREAKERS))
def test_a_halt_rule_breaker_is_not_core_well_formed(name):
    text, keys, core, drift = HALT_RULE_BREAKERS[name]
    report = check_wellformed(parse_machine(text))
    assert report.verdict == "violation"
    assert report.halt_rule_keys == keys
    assert report.norm_violations == ()
    assert (report.core_count, len(report.witnesses) - report.core_count) == (core, drift)
    assert core_well_formed(report) is False


def test_norm_violations_follow_states_by_alphabet():
    # rules declared out of order: the structure faults keep the file's
    # order, the report's rows the order of states x alphabet
    spec = parse_machine(
        "qtm-spec v1\nstates: q0 qH\ninitial: q0\nhalt: qH\nalphabet: 0 1 _\n"
        "rule: qH * -> 1 : qH * R\nrule: q0 1 -> 2 : q0 1 R\nrule: q0 0 -> 1/2 : q0 0 R\n"
    )
    assert [(v.state, v.symbol) for v in validate_structure(spec)] == [("q0", "1"), ("q0", "0")]
    report = check_wellformed(spec)
    assert report.norm_violations == ((("q0", "0"), 0.25), (("q0", "1"), 4.0))
    assert report.halt_rule_keys == ()
    assert not core_well_formed(report)


def _verdict_machines():
    for path in sorted(MACHINES.glob("*.qtm")):
        yield path.name, parse_machine(path.read_text())
    for path in sorted(MACHINES.glob("*.tm")):
        yield path.name, parse_classical(path.read_text())  # the table lift checks
    for name in sorted(EXTRA):
        yield name, parse_machine(EXTRA[name])
    for name, (text, *_) in sorted(HALT_RULE_BREAKERS.items()):
        yield name, parse_machine(text)


VERDICT_MACHINES = dict(_verdict_machines())


@pytest.mark.parametrize("name", list(VERDICT_MACHINES))
def test_verdict_is_the_rule_that_joined_structure_and_witnesses(name):
    # ``check`` once printed a verdict joined from ``validate_structure``
    # and the report's own; the report now decides it, by the same rule
    spec = VERDICT_MACHINES[name]
    report = check_wellformed(spec)
    clean = not validate_structure(spec) and not report.norm_violations and not report.witnesses
    assert (report.verdict == "well_formed") == clean
