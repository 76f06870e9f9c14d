"""Decide whether a machine's step operator is an isometry on basis states.

The step operator maps every basis configuration to a superposition with
unit norm; it is an isometry exactly when images of distinct basis
configurations are also pairwise orthogonal.  Because one step writes only
the cell under the head and moves at most one cell, images of two sources
can share a basis configuration only when the source heads are at distance
<= 2 and the source tapes agree outside the two head cells.  A tape window
of radius 3 around the heads therefore realizes every way two images can
overlap, and checking all window pairs decides the question for the whole
(infinite) configuration space.

The checker exploits one more reduction: the inner product of two images
depends only on the head offset, the two (state, read symbol) rule rows,
and -- for offset >= 1 -- the two cells the members see under each other's
head.  All window pairs sharing this local pattern have the same inner
product, so the verdict needs only a sweep over patterns; the full window
enumeration is used to materialize witnesses for the patterns that fail.

A note on machines that can halt: a rule sending a running state into the
halt state produces images identical to the drift of some already-halted
configuration (halted configurations keep moving their head, covering every
halted configuration).  Such machines therefore always carry witnesses
pairing one running and one halted member.  The report keeps these
``drift_witnesses`` separate from ``core_witnesses`` (collisions between
two running members), because the former are a property of the halting
scheme itself while the latter indicate a genuinely broken rule table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .evolution import step
from .machine import (
    BLANK,
    Configuration,
    DEFAULT_TOL,
    MachineSpec,
    MOVE_DELTA,
    QuantumState,
    Tape,
)

WINDOW = tuple(range(-3, 4))
HEAD_POSITIONS = tuple(range(-2, 3))


@dataclass(frozen=True, slots=True)
class CollisionCandidatePair:
    """Two distinct window configurations whose images could overlap."""

    c1: Configuration
    c2: Configuration


@dataclass(frozen=True, slots=True)
class CollisionWitness:
    """A candidate pair whose images failed orthogonality.

    ``inner`` is the inner product of the one-step images, conjugate-linear
    in the image of ``c1``.
    """

    c1: Configuration
    c2: Configuration
    inner: complex

    @property
    def drift_collision(self) -> bool:
        """True when exactly one member is already halted."""
        return self.c1.halted != self.c2.halted


@dataclass(frozen=True)
class WellformednessReport:
    verdict: str  # "well_formed" | "violation"
    norm_violations: tuple[tuple[tuple[str, str], float], ...]
    witnesses: tuple[CollisionWitness, ...]
    missing_rule_keys: tuple[tuple[str, str], ...]

    @property
    def drift_witnesses(self) -> tuple[CollisionWitness, ...]:
        return tuple(w for w in self.witnesses if w.drift_collision)

    @property
    def core_witnesses(self) -> tuple[CollisionWitness, ...]:
        return tuple(w for w in self.witnesses if not w.drift_collision)


def core_well_formed(report: WellformednessReport) -> bool:
    """True when the only failures are halting-scheme drift collisions.

    Machines in this class preserve norm on every state reachable from a
    fresh input, because an input branch never occupies the halted
    configuration a newly-halting image would collide with.
    """
    return not report.norm_violations and not report.core_witnesses


def basis_image(spec: MachineSpec, config: Configuration) -> QuantumState:
    """One-step image of a single basis configuration."""
    return step(spec, QuantumState.of((config, 1.0)))


def pair_image_inner(
    spec: MachineSpec, c1: Configuration, c2: Configuration
) -> complex:
    """<U c1, U c2> computed directly from the two image superpositions."""
    return basis_image(spec, c1).inner(basis_image(spec, c2))


# ---------------------------------------------------------------------------
# window machinery

def _cells(pairs) -> tuple:
    """Sorted (pos, symbol) pairs with blanks removed."""
    return tuple(sorted((p, s) for p, s in pairs if s != BLANK))


def _window_config(spec, state, cell_pairs, head) -> Configuration:
    return spec.config(state, Tape(_cells(cell_pairs)), head)


def _canonical_pair(c1: Configuration, c2: Configuration):
    shift = -min(c1.head, c2.head)
    a = c1.shifted(shift) if shift else c1
    b = c2.shifted(shift) if shift else c2
    if b.sort_key() < a.sort_key():
        a, b = b, a
    return a, b


def collision_candidates(spec: MachineSpec) -> Iterator[CollisionCandidatePair]:
    """Enumerate every unordered pair of distinct window configurations with
    heads at distance <= 2 and tapes agreeing outside the head cells.

    Symbols are assigned to cells -3..3, heads range over -2..2, and pairs
    related by translating both members together are emitted once, in a
    deterministic order.  This enumeration is exhaustive but large; the
    checker itself uses the pattern reduction and only expands window pairs
    for failing patterns.
    """
    alphabet = spec.alphabet
    keys = [(q, s) for q in spec.states for s in alphabet]
    seen = set()

    def emit(c1, c2):
        a, b = _canonical_pair(c1, c2)
        key = (a.sort_key(), b.sort_key())
        if key not in seen:
            seen.add(key)
            return CollisionCandidatePair(a, b)
        return None

    for x in HEAD_POSITIONS:
        rest = [c for c in WINDOW if c != x]
        for assign in product(alphabet, repeat=len(rest)):
            base = list(zip(rest, assign))
            for i in range(len(keys)):
                q1, s1 = keys[i]
                c1 = _window_config(spec, q1, base + [(x, s1)], x)
                for j in range(i + 1, len(keys)):
                    q2, s2 = keys[j]
                    c2 = _window_config(spec, q2, base + [(x, s2)], x)
                    pair = emit(c1, c2)
                    if pair is not None:
                        yield pair
    for d in (1, 2):
        for x1 in range(-2, 3 - d):
            x2 = x1 + d
            rest = [c for c in WINDOW if c != x1 and c != x2]
            for assign in product(alphabet, repeat=len(rest)):
                base = list(zip(rest, assign))
                for q1, s1 in keys:
                    for a in alphabet:
                        c1 = _window_config(
                            spec, q1, base + [(x1, s1), (x2, a)], x1
                        )
                        for q2, s2 in keys:
                            for b in alphabet:
                                c2 = _window_config(
                                    spec, q2, base + [(x1, b), (x2, s2)], x2
                                )
                                pair = emit(c1, c2)
                                if pair is not None:
                                    yield pair


# ---------------------------------------------------------------------------
# pattern reduction

def _inner_same_head(rules1, rules2) -> complex:
    total = 0j
    for t1 in rules1:
        for t2 in rules2:
            if (
                t1.state == t2.state
                and t1.move == t2.move
                and t1.write == t2.write
            ):
                total += t1.amplitude.conjugate() * t2.amplitude
    return total


def _inner_apart(rules1, rules2, d: int) -> dict:
    """Member 1 at head 0 seeing ``a`` at cell d; member 2 at head d seeing
    ``b`` at cell 0.  Images coincide only where member 1 writes ``b``,
    member 2 writes ``a``, and the moves close the head gap, so one pass over
    the target pairs yields the inner product of every ``(a, b)`` that can
    be nonzero, each accumulated in target order."""
    totals: dict = {}
    for t1 in rules1:
        for t2 in rules2:
            if (
                t1.state == t2.state
                and MOVE_DELTA[t1.move] - MOVE_DELTA[t2.move] == d
            ):
                ab = (t2.write, t1.write)
                term = t1.amplitude.conjugate() * t2.amplitude
                totals[ab] = totals.get(ab, 0j) + term
    return totals


def _expand_same_head(spec, k1, k2):
    (q1, s1), (q2, s2) = k1, k2
    pairs = set()
    for x in HEAD_POSITIONS:
        rest = [c for c in WINDOW if c != x]
        for assign in product(spec.alphabet, repeat=len(rest)):
            base = list(zip(rest, assign))
            c1 = _window_config(spec, q1, base + [(x, s1)], x)
            c2 = _window_config(spec, q2, base + [(x, s2)], x)
            pairs.add(_canonical_pair(c1, c2))
    return pairs


def _expand_apart(spec, d, k1, a, k2, b):
    (q1, s1), (q2, s2) = k1, k2
    pairs = set()
    for x1 in range(-2, 3 - d):
        x2 = x1 + d
        rest = [c for c in WINDOW if c != x1 and c != x2]
        for assign in product(spec.alphabet, repeat=len(rest)):
            base = list(zip(rest, assign))
            c1 = _window_config(spec, q1, base + [(x1, s1), (x2, a)], x1)
            c2 = _window_config(spec, q2, base + [(x1, b), (x2, s2)], x2)
            pairs.add(_canonical_pair(c1, c2))
    return pairs


def _failing_windows(machine, keys, rules, tol: float) -> list:
    """Canonical window pairs, in canonical order, of every pattern over
    ``keys`` whose images have inner product of modulus above ``tol``.
    ``machine`` supplies only ``alphabet`` and ``config``."""
    pairs = set()
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if abs(_inner_same_head(rules[keys[i]], rules[keys[j]])) > tol:
                pairs |= _expand_same_head(machine, keys[i], keys[j])
    for d in (1, 2):
        for k1 in keys:
            for k2 in keys:
                for (a, b), ip in _inner_apart(rules[k1], rules[k2], d).items():
                    if abs(ip) > tol:
                        pairs |= _expand_apart(machine, d, k1, a, k2, b)
    return sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key()))


def check_wellformed(
    spec: MachineSpec, tol: float = DEFAULT_TOL
) -> WellformednessReport:
    """Verdict plus explicit evidence.

    * every rule row's image must have squared norm within ``tol`` of 1;
    * every collision-candidate pair's images must have inner product of
      modulus <= ``tol``.

    Keys without rules are skipped and listed in ``missing_rule_keys``; the
    verdict covers the part of the operator the rule table defines.
    Witnesses are reported in canonical configuration order with their
    exact image inner products.
    """
    all_keys = [(q, s) for q in spec.states for s in spec.alphabet]
    have = [k for k in all_keys if k in spec.rules]
    missing = tuple(sorted(k for k in all_keys if k not in spec.rules))

    norm_violations = []
    for key in have:
        rep = _window_config(spec, key[0], [(0, key[1])], 0)
        norm2 = basis_image(spec, rep).norm2()
        if abs(norm2 - 1.0) > tol:
            norm_violations.append((key, norm2))

    witnesses = tuple(
        CollisionWitness(c1, c2, pair_image_inner(spec, c1, c2))
        for c1, c2 in _failing_windows(spec, have, spec.rules, tol)
    )
    verdict = (
        "well_formed" if not norm_violations and not witnesses else "violation"
    )
    return WellformednessReport(
        verdict, tuple(norm_violations), witnesses, missing
    )
