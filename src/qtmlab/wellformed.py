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
pattern is expanded into its canonical window pairs, each generated once,
with every key coded as it is built as an integer in canonical order and
made a ``Configuration`` once; one sort of integers orders the witnesses.
A rule row's squared norm is the same computation, the row's pattern with
itself at offset 0, which ``validate_structure``, ``check_wellformed`` and
the parser all read.
A witness is the pair ``(c1, c2)`` itself, with ``c1 < c2``; its image inner
product is ``pair_image_inner(spec, c1, c2)``, so a report that shows a few
witnesses steps only those.

A note on machines that can halt: a rule sending a running state into the
halt state produces images identical to the drift of some already-halted
configuration (halted configurations keep moving their head, covering every
halted configuration).  Such machines therefore always carry witnesses
pairing one running and one halted member.  The report counts apart, as
``core_count``, the core witnesses, whose members are both running or both
halted, because drift witnesses are a property of the halting scheme itself
while core witnesses indicate a genuinely broken rule table (two halted
members collide only when the halt rows themselves are not injective).

A classical machine is a table whose every row is one amplitude-1 target.
It preserves norm automatically, and is an isometry on running
configurations exactly when its transition function is injective there.
``lift_to_qtm`` decides that with the sweep over the running rows, whose
images fail orthogonality exactly when they coincide.  Pairs of a running
and a halted member are the halting scheme's and are not counted against
reversibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

from .errors import NotReversibleError
from .evolution import QuantumState, step
from .machine import BLANK, Configuration, DEFAULT_TOL, MachineSpec, MOVE_DELTA


@dataclass(frozen=True, slots=True)
class StructureViolation:
    kind: str  # "halt_rule" or "row_norm"
    state: str
    symbol: str
    detail: str


#: Structural conditions that hold for every parsed MachineSpec simply
#: because of how rules are represented; the checker reports them as
#: satisfied by construction rather than re-verifying them.
BY_CONSTRUCTION = (
    "rules depend only on (state, symbol under head), not on head position",
    "each transition writes exactly one cell, the one under the head",
    "head moves are restricted to L, N, R (at most one cell)",
    "the halt flag of a configuration is derived from its internal state",
)


@dataclass(frozen=True)
class WellformednessReport:
    verdict: str  # "well_formed" | "violation"
    norm_violations: tuple[tuple[tuple[str, str], float], ...]
    witnesses: tuple[tuple[Configuration, Configuration], ...]  # (c1, c2), c1 < c2
    missing_rule_keys: tuple[tuple[str, str], ...]
    core_count: int  # witnesses whose members are both running or both halted


def core_well_formed(report: WellformednessReport) -> bool:
    """True when the only failures are halting-scheme drift collisions.

    Machines in this class preserve norm on every state reachable from a
    fresh input, because an input branch never occupies the halted
    configuration a newly-halting image would collide with.
    """
    return not report.norm_violations and not report.core_count


def basis_image(spec: MachineSpec, config: Configuration) -> QuantumState:
    """One-step image of a single basis configuration."""
    return step(spec, QuantumState({config: complex(1.0)}))


def pair_image_inner(
    spec: MachineSpec, c1: Configuration, c2: Configuration
) -> complex:
    """<U c1, U c2> computed directly from the two image superpositions."""
    return basis_image(spec, c1).inner(basis_image(spec, c2))


# ---------------------------------------------------------------------------
# window machinery: a window configuration is its key (halted, state, head,
# cells), laid out like a ``Configuration``; a pair is canonical when its
# lower head is at cell 0 and its members are in key order (see ``_windows``).

WIDTH = 7  # cells in a window: no window tape holds more


@lru_cache(maxsize=16)
def _digits(alphabet: tuple) -> tuple[dict, int]:
    """Window tape cells (pos -5..5, symbol) numbered from 1 in tuple order; their bit width."""
    cells = sorted(product(range(-5, 6), [s for s in alphabet if s != BLANK]))
    return {c: i for i, c in enumerate(cells, 1)}, len(cells).bit_length()


def _code(alphabet: tuple, cells: tuple) -> int:
    """``cells`` as WIDTH digits, 0 past the last: integer order is tuple order."""
    digit, bits = _digits(alphabet)
    return sum(digit[c] << bits * (WIDTH - 1 - i) for i, c in enumerate(cells))


@lru_cache(maxsize=256)
def _sides(alphabet: tuple, lo: int, hi: int, pinned: bool = False) -> tuple:
    """Every assignment of ``alphabet`` to cells lo..hi (if ``pinned``, with
    cell lo not blank) as (cells, ``_code``), cells the sorted (pos, symbol)
    tuple with blanks left out."""
    span = range(lo, hi + 1)
    fills = (f for f in product(alphabet, repeat=len(span)) if not pinned or f[0] != BLANK)
    sides = [tuple((p, s) for p, s in zip(span, fill) if s != BLANK) for fill in fills]
    return tuple((cells, _code(alphabet, cells)) for cells in sides)


def _cell(pos: int, symbol) -> tuple:
    return () if symbol in (BLANK, None) else ((pos, symbol),)


def _windows(machine, patterns) -> list:
    """Canonical pairs of ``patterns`` in canonical order, as
    (Configuration, Configuration).

    In a pattern ``(d, (q1, s1), a, (q2, s2), b)``, q1 reads s1 under a head
    at cell 0 and sees ``a`` at cell d, q2 reads s2 under a head at cell d
    and sees ``b`` at cell 0 (``a`` and ``b`` are None when d is 0), and
    every other window cell is shared.  Window translation x1 = -2 takes
    every tape and x1 > -2 only tapes whose cell -3 - x1 is not blank (the
    rest fit x1 - 1), so each pair is generated once.  A key is coded as the
    rank of its (halted, state, head) above its ``_code`` and made a
    ``Configuration`` once; a pair is coded ``lo * radix + hi``, so one sort
    of integers orders all pairs.
    """
    alphabet, bits = machine.alphabet, _digits(machine.alphabet)[1]
    ranked = sorted((q == machine.halt, q, h) for q in machine.states for h in range(3))
    top = {(q, h): r << bits * WIDTH for r, (_, q, h) in enumerate(ranked)}
    radix, seen, codes, make = len(top) << bits * WIDTH, {}, [], Configuration._make
    for d, (q1, s1), a, (q2, s2), b in patterns:
        h1, h2 = q1 == machine.halt, q2 == machine.halt
        m1, ma, mb, m2 = _cell(0, s1), _cell(d, a), _cell(0, b), _cell(d, s2)
        for x1 in range(-2, 3 - d):
            rights = _sides(alphabet, d + 1, 3 - x1)
            lefts = _sides(alphabet, -3 - x1, -1, x1 > -2)
            for (left, _), (mid, _) in product(lefts, _sides(alphabet, 1, d - 1)):
                l1, l2 = left + m1 + mid + ma, left + mb + mid + m2
                k1 = top[q1, 0] | _code(alphabet, l1)
                k2 = top[q2, d] | _code(alphabet, l2)
                n1, n2 = bits * len(l1), bits * len(l2)
                for right, code in rights:
                    c1, c2 = k1 | code >> n1, k2 | code >> n2
                    if c1 not in seen:
                        seen[c1] = make((h1, q1, 0, l1 + right))
                    if c2 not in seen:
                        seen[c2] = make((h2, q2, d, l2 + right))
                    codes.append(c1 * radix + c2 if c1 < c2 else c2 * radix + c1)
    codes.sort()
    return [(seen[c // radix], seen[c % radix]) for c in codes]


# ---------------------------------------------------------------------------
# pattern reduction

def _pattern_inner(rules1, rules2, d: int) -> dict:
    """Member 1 at head 0 seeing ``a`` at cell d; member 2 at head d seeing
    ``b`` at cell 0.  Images coincide only where the states agree, the moves
    close the head gap and member 1 writes ``b`` while member 2 writes ``a``;
    at d = 0 the two write the same symbol under one head, keyed ``(None,
    None)``.  One pass over the target pairs, t1-major, yields the inner
    product of every ``(a, b)`` that can be nonzero."""
    totals: dict = {}
    for t1 in rules1:
        for t2 in rules2:
            if t1.state == t2.state and MOVE_DELTA[t1.move] - MOVE_DELTA[t2.move] == d:
                if d:
                    ab = (t2.write, t1.write)
                elif t1.write == t2.write:
                    ab = (None, None)
                else:
                    continue
                term = t1.amplitude.conjugate() * t2.amplitude
                totals[ab] = totals.get(ab, 0j) + term
    return totals


def row_norm2(row) -> float:
    """A rule row's squared norm, its pattern with itself at offset 0: the
    one computation of it, where coinciding targets add as in ``step``."""
    return _pattern_inner(row, row, 0).get((None, None), 0j).real


def _failing_windows(spec: MachineSpec, keys, tol: float) -> list:
    """Canonical window pairs, in canonical order, of every pattern over
    ``keys`` of ``spec.rules`` whose images have inner product of modulus
    above ``tol``, as (Configuration, Configuration)."""
    same_head = ((0, k1, k2) for i, k1 in enumerate(keys) for k2 in keys[i + 1 :])
    failing = [
        (d, k1, a, k2, b)
        for d, k1, k2 in chain(same_head, product((1, 2), keys, keys))
        for (a, b), ip in _pattern_inner(spec.rules[k1], spec.rules[k2], d).items()
        if abs(ip) > tol
    ]
    return _windows(spec, failing)


def validate_structure(spec: MachineSpec, tol: float = DEFAULT_TOL):
    """Check the statically checkable transition conditions.

    Returns a list of StructureViolation:

    * ``halt_rule`` -- a rule whose source is the halt state must keep the
      machine halted: exactly one target, amplitude 1, same state, and the
      written symbol equal to the one read (the move is unconstrained).
    * ``row_norm`` -- every rule row must have squared norm 1 (necessary
      for the step to be an isometry).
    """
    violations = []
    for (state, symbol), targets in spec.rules.items():
        if state == spec.halt and not (
            len(targets) == 1
            and abs(targets[0].amplitude - 1) <= tol
            and (targets[0].state, targets[0].write) == (state, symbol)
        ):
            detail = ("halt-state rule must have a single amplitude-1 target "
                      "that stays halted and rewrites the symbol it read")
            violations.append(StructureViolation("halt_rule", state, symbol, detail))
        norm2 = row_norm2(targets)
        if abs(norm2 - 1.0) > tol:
            detail = f"squared row norm {norm2!r}"
            violations.append(StructureViolation("row_norm", state, symbol, detail))
    return violations


def check_wellformed(
    spec: MachineSpec, tol: float = DEFAULT_TOL
) -> WellformednessReport:
    """Verdict plus explicit evidence.

    * every rule row must have squared norm within ``tol`` of 1;
    * every collision-candidate pair's images must have inner product of
      modulus <= ``tol``.

    Keys without rules are skipped and listed in ``missing_rule_keys``; the
    verdict covers the part of the operator the rule table defines.
    Witnesses are the failing pairs ``(c1, c2)`` in canonical configuration
    order.
    """
    all_keys = [(q, s) for q in spec.states for s in spec.alphabet]
    have = [k for k in all_keys if k in spec.rules]
    missing = tuple(sorted(k for k in all_keys if k not in spec.rules))
    norms = ((key, row_norm2(spec.rules[key])) for key in have)
    norm_violations = tuple((key, n) for key, n in norms if abs(n - 1.0) > tol)
    witnesses = tuple(_failing_windows(spec, have, tol))
    core_count = sum(c1.halted == c2.halted for c1, c2 in witnesses)
    verdict = "violation" if norm_violations or witnesses else "well_formed"
    return WellformednessReport(verdict, norm_violations, witnesses, missing, core_count)


def lift_to_qtm(spec: MachineSpec) -> MachineSpec:
    """The classical table itself, once it is checked to be reversible.

    When the transition is not injective on running configurations it
    raises ``NotReversibleError``, whose ``witnesses`` are the colliding
    pairs ``(c1, c2)`` of running configurations in canonical order.  A
    table with a row that is not one amplitude-1 target raises
    ``ValueError``.
    """
    for key, targets in spec.rules.items():
        if len(targets) != 1 or targets[0].amplitude != 1:
            raise ValueError(f"not a classical table: row {key} is not one amplitude-1 target")
    running = [k for k in spec.rules if k[0] != spec.halt]
    witnesses = tuple(_failing_windows(spec, running, DEFAULT_TOL))
    if witnesses:
        raise NotReversibleError(witnesses)
    return spec
