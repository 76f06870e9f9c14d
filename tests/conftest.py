"""Shared fixtures: the machine corpus and its standard test inputs."""

from pathlib import Path

import oracles
import pytest

from qtmlab import check_wellformed, lift_to_qtm, parse_classical, parse_machine

ROOT = Path(__file__).resolve().parents[1]
MACHINES = ROOT / "machines"

# Inputs exercised for every corpus machine in schedule and lift tests.
CORPUS_INPUTS = {
    "unary_inc": ("111", "1"),
    "flip_bits": ("10", "0110"),
    "parity_mark": ("11", "1"),
    "seek_right": ("0", "0000"),
    "hadamard_halt": ("0", "1", "1/sqrt(2):0 + 1/sqrt(2):1"),
    "delayed_hadamard": ("10", "0"),
}

CLASSICAL_NAMES = ("unary_inc", "flip_bits", "parity_mark", "seek_right")


def load_qtm(name):
    return parse_machine((MACHINES / f"{name}.qtm").read_text())


def load_tm(name):
    return parse_classical((MACHINES / f"{name}.tm").read_text())


@pytest.fixture(scope="session")
def hadamard_halt():
    return load_qtm("hadamard_halt")


@pytest.fixture(scope="session")
def hadamard_halt_naive():
    return load_qtm("hadamard_halt_naive")


@pytest.fixture(scope="session")
def right_shift():
    return load_qtm("right_shift")


@pytest.fixture(scope="session")
def delayed_hadamard():
    return load_qtm("delayed_hadamard")


# Every halted configuration reading 1 stays put, so it and the drift of
# its left neighbour reading 0 or blank land on one configuration: the halt
# rows themselves are not injective, and each such pair has two halted members.
HALT_ROWS_COLLIDE = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 * -> 1 : qH * R
rule: qH 0 -> 1 : qH 0 R
rule: qH 1 -> 1 : qH 1 N
rule: qH _ -> 1 : qH _ R
"""


@pytest.fixture(scope="session")
def halt_rows_collide():
    return parse_machine(HALT_ROWS_COLLIDE)


@pytest.fixture(scope="session")
def unary_inc():
    return load_tm("unary_inc")


@pytest.fixture(scope="session")
def flip_bits():
    return load_tm("flip_bits")


@pytest.fixture(scope="session")
def parity_mark():
    return load_tm("parity_mark")


@pytest.fixture(scope="session")
def seek_right():
    return load_tm("seek_right")


@pytest.fixture(scope="session")
def collide():
    return load_tm("collide")


@pytest.fixture(scope="session")
def corpus():
    """All halting corpus machines with their standard inputs.

    Four lifted classical machines plus the two hand-built quantum ones.
    Every entry passes the core well-formedness gate (no collisions between
    two running configurations); see test_wellformed for the frozen counts.
    """
    specs = {name: lift_to_qtm(load_tm(name)) for name in CLASSICAL_NAMES}
    specs["hadamard_halt"] = load_qtm("hadamard_halt")
    specs["delayed_hadamard"] = load_qtm("delayed_hadamard")
    return [(name, spec, CORPUS_INPUTS[name]) for name, spec in specs.items()]


@pytest.fixture(scope="session")
def candidate_pairs(hadamard_halt):
    """Every window pair, as the keys ``(k1, k2)``, ``k1 < k2``, of the dense
    oracle's dict of key-tuple pairs; shared because it takes a second.

    The candidate space depends only on states and alphabet, which all the
    two-state three-symbol machines in machines/ share.  A ``Configuration``
    is its key tuple, so a pair of them is looked up as it is.
    """
    return oracles.dense_candidate_keys(hadamard_halt)


@pytest.fixture(scope="session")
def naive_report(hadamard_halt_naive):
    return check_wellformed(hadamard_halt_naive)


@pytest.fixture(scope="session")
def corrected_report(hadamard_halt):
    return check_wellformed(hadamard_halt)
