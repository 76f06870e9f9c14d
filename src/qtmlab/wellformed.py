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
product, so the verdict needs only a sweep over patterns.  Each failing
pattern is expanded into its canonical window pairs as plain tuple keys
laid out like ``Configuration.sort_key()``; only after sorting does each
distinct key become one ``Configuration`` (and each distinct cell tuple one
``Tape``), shared by every witness that mentions it.  A witness computes its
image inner product, through ``pair_image_inner``, only when it is read, so
a report that shows a few witnesses steps only those.

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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
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


@dataclass(frozen=True, slots=True)
class CollisionCandidatePair:
    """Two distinct window configurations whose images could overlap."""

    c1: Configuration
    c2: Configuration


@dataclass(frozen=True, slots=True)
class CollisionWitness:
    """A candidate pair whose images failed orthogonality."""

    c1: Configuration
    c2: Configuration
    spec: MachineSpec = field(repr=False, compare=False)

    @property
    def inner(self) -> complex:
        """<U c1, U c2>, conjugate-linear in c1's image; computed per read."""
        return pair_image_inner(self.spec, self.c1, self.c2)

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

    @cached_property
    def _partition(self) -> tuple[tuple[CollisionWitness, ...], ...]:
        """(core, drift) witnesses, split in one pass and kept."""
        parts: tuple[list, list] = ([], [])
        for w in self.witnesses:
            parts[w.drift_collision].append(w)
        return tuple(parts[0]), tuple(parts[1])

    core_witnesses = property(lambda self: self._partition[0])
    drift_witnesses = property(lambda self: self._partition[1])


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
# window machinery: a window configuration is its key (halted, state, head,
# cells), laid out like ``Configuration.sort_key()``; a pair is canonical when
# its lower head is at cell 0 and its members are in key order.

@lru_cache(maxsize=256)
def _sides(alphabet: tuple, lo: int, hi: int) -> tuple:
    """Every assignment of ``alphabet`` to cells lo..hi, as sorted
    (pos, symbol) tuples with blanks left out."""
    cells = range(lo, hi + 1)
    return tuple(
        tuple((p, s) for p, s in zip(cells, symbols) if s != BLANK)
        for symbols in product(alphabet, repeat=len(cells))
    )


def _cell(pos: int, symbol) -> tuple:
    return () if symbol in (BLANK, None) else ((pos, symbol),)


def _expand(machine, pattern, intern: dict) -> set:
    """Canonical key pairs of one pattern ``(d, (q1, s1), a, (q2, s2), b)``:
    q1 reads s1 under a head at cell 0 and sees ``a`` at cell d, q2 reads
    s2 under a head at cell d and sees ``b`` at cell 0 (``a`` and ``b`` are
    None when d is 0), and every other window cell is shared.  Keys are
    interned in ``intern``."""
    d, (q1, s1), a, (q2, s2), b = pattern
    h1, h2 = q1 == machine.halt, q2 == machine.halt
    m1, ma, mb, m2 = _cell(0, s1), _cell(d, a), _cell(0, b), _cell(d, s2)
    pairs = set()
    for x1 in range(-2, 3 - d):
        rights = _sides(machine.alphabet, d + 1, 3 - x1)
        for left in _sides(machine.alphabet, -3 - x1, -1):
            for mid in _sides(machine.alphabet, 1, d - 1):
                l1 = left + m1 + mid + ma
                l2 = left + mb + mid + m2
                for right in rights:
                    c1 = (h1, q1, 0, l1 + right)
                    c2 = (h2, q2, d, l2 + right)
                    c1 = intern.setdefault(c1, c1)
                    c2 = intern.setdefault(c2, c2)
                    pairs.add((c1, c2) if c1 < c2 else (c2, c1))
    return pairs


class _Configurations(dict):
    """Key -> Configuration, built on first lookup, one Tape per distinct
    cell tuple."""

    def __init__(self):
        self.tapes: dict = {}

    def __missing__(self, key) -> Configuration:
        halted, state, head, cells = key
        tape = self.tapes.get(cells)
        if tape is None:
            tape = self.tapes[cells] = Tape(cells)
        self[key] = config = Configuration(halted, state, tape, head)
        return config


def collision_candidates(spec: MachineSpec) -> Iterator[CollisionCandidatePair]:
    """Enumerate every unordered pair of distinct window configurations with
    heads at distance <= 2 and tapes agreeing outside the head cells.

    Symbols are assigned to cells -3..3, heads range over -2..2, and pairs
    related by translating both members together are emitted once, in a
    deterministic order: pattern by pattern (each canonical pair has exactly
    one), each pattern's pairs in canonical order.  The checker itself only
    expands the patterns that fail.
    """
    alphabet = spec.alphabet
    keys = [(q, s) for q in spec.states for s in alphabet]
    same_head = (
        (0, k1, None, k2, None) for i, k1 in enumerate(keys) for k2 in keys[i + 1 :]
    )
    apart = product((1, 2), keys, alphabet, keys, alphabet)
    config = _Configurations()
    for pattern in chain(same_head, apart):
        for c1, c2 in sorted(_expand(spec, pattern, {})):
            yield CollisionCandidatePair(config[c1], config[c2])


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


def _failing_windows(machine, keys, rules, tol: float) -> list:
    """Canonical window pairs, in canonical order, of every pattern over
    ``keys`` whose images have inner product of modulus above ``tol``, as
    (Configuration, Configuration) sharing one object per distinct key.
    ``machine`` supplies only ``alphabet`` and ``halt``."""
    failing = [
        (0, k1, None, k2, None)
        for i, k1 in enumerate(keys)
        for k2 in keys[i + 1 :]
        if abs(_inner_same_head(rules[k1], rules[k2])) > tol
    ]
    for d, k1, k2 in product((1, 2), keys, keys):
        for (a, b), ip in _inner_apart(rules[k1], rules[k2], d).items():
            if abs(ip) > tol:
                failing.append((d, k1, a, k2, b))
    intern: dict = {}
    pairs = set()
    for pattern in failing:
        pairs |= _expand(machine, pattern, intern)
    config = _Configurations()
    return [(config[c1], config[c2]) for c1, c2 in sorted(pairs)]


def check_wellformed(
    spec: MachineSpec, tol: float = DEFAULT_TOL
) -> WellformednessReport:
    """Verdict plus explicit evidence.

    * every rule row's image must have squared norm within ``tol`` of 1;
    * every collision-candidate pair's images must have inner product of
      modulus <= ``tol``.

    Keys without rules are skipped and listed in ``missing_rule_keys``; the
    verdict covers the part of the operator the rule table defines.
    Witnesses are reported in canonical configuration order; each computes
    its exact image inner product when read.
    """
    all_keys = [(q, s) for q in spec.states for s in spec.alphabet]
    have = [k for k in all_keys if k in spec.rules]
    missing = tuple(sorted(k for k in all_keys if k not in spec.rules))

    norm_violations = []
    for key in have:
        rep = spec.config(key[0], Tape(_cell(0, key[1])), 0)
        norm2 = basis_image(spec, rep).norm2()
        if abs(norm2 - 1.0) > tol:
            norm_violations.append((key, norm2))

    witnesses = tuple(
        CollisionWitness(c1, c2, spec)
        for c1, c2 in _failing_windows(spec, have, spec.rules, tol)
    )
    verdict = (
        "well_formed" if not norm_violations and not witnesses else "violation"
    )
    return WellformednessReport(
        verdict, tuple(norm_violations), witnesses, missing
    )
