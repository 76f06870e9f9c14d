"""Two numerical experiments on the halting scheme.

``superposition_window`` runs an equal superposition of two classical
inputs and reports the range of steps during which the halt flag carries
strictly intermediate mass: the window where one branch has halted and the
other has not, so observing the flag is genuinely probabilistic and the
"time of halting" is not a classical quantity.

``analyze_halting_subspace`` inspects how freshly halting amplitude relates
to the drift of amplitude that halted earlier.  It collects the halted
basis configurations seen over a run, checks that their one-step images
stay orthonormal, and measures whether the halted component produced by a
running configuration lies inside the span of those images.  A nonzero
residual means the halt projection keeps extracting amplitude that no
bookkeeping of previously halted branches accounts for.

When every halt row rewrites its symbol, moves R and has amplitude exactly
1 with the same bits in every row (``MachineSpec.drift_amplitude``, set on
every corpus machine and every lift), each image is its halted
configuration translated one cell right.  The report then follows without
a Gram matrix: the deviation is 0.0 and every overlap is a lookup among
the translated keys, summed in the order the general path sums them, so
the report is the same to the bit.  Halt rows that move L or N, or that
differ in bits (``1`` and ``1 - 0i``), take the general Gram/Gram-Schmidt
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

# step is not called here; it stays a name because perfbench traces it
from .evolution import QuantumState, initial_state, step, trajectory  # noqa: F401
from .machine import DEFAULT_TOL, Configuration, MachineSpec
from .wellformed import basis_image


@dataclass(frozen=True)
class SuperpositionReport:
    per_step: tuple[float, ...]  # halted mass after 0..budget steps
    window: tuple[int, int] | None  # first and last step with mass in (tol, 1 - tol)
    halt_step_a: int | None
    halt_step_b: int | None


def _halted_fractions(spec: MachineSpec, state: QuantumState, budget: int):
    """The halted share of S_t's squared norm for t = 0 .. budget, lazily."""
    for _, state in chain([(0, state)], trajectory(spec, state, 0, budget)):
        yield state.halted_mass() / state.norm2()


def _halt_step(spec: MachineSpec, text: str, budget: int, tol: float):
    """First step at which a single input's halted mass reaches one."""
    state = initial_state(spec, ((complex(1), text),))
    fractions = enumerate(_halted_fractions(spec, state, budget))
    return next((t for t, m in fractions if m >= 1.0 - tol), None)


def superposition_window(
    spec: MachineSpec,
    input_a: str,
    input_b: str,
    budget: int,
    tol: float = DEFAULT_TOL,
) -> SuperpositionReport:
    if input_a == input_b:
        terms = ((complex(1), input_a),)
    else:
        r = complex(1.0 / math.sqrt(2.0))
        terms = ((r, input_a), (r, input_b))
    masses = list(_halted_fractions(spec, initial_state(spec, terms), budget))
    ambiguous = [
        t for t, m in enumerate(masses) if tol < m < 1.0 - tol
    ]
    window = (ambiguous[0], ambiguous[-1]) if ambiguous else None
    return SuperpositionReport(
        tuple(masses),
        window,
        _halt_step(spec, input_a, budget, tol),
        _halt_step(spec, input_b, budget, tol),
    )


# ---------------------------------------------------------------------------
# halting-subspace analysis

@dataclass(frozen=True)
class SubspaceReport:
    halted_basis_count: int
    newly_halting: tuple[Configuration, ...]
    gram_deviation: float
    max_overlap: float
    max_residual: float
    verdict: str  # "gap_found" | "no_gap_found" | "no_halting_observed"


def _combine(parts) -> QuantumState:
    """Linear combination of states given as (coefficient, state) pairs."""
    amps: dict = {}
    for coeff, vec in parts:
        for key, amp in vec.keyed_items():
            amps[key] = amps.get(key, 0j) + coeff * amp
    return QuantumState({k: a for k, a in amps.items() if a != 0})


def _translate_overlaps(halted_keys):
    """Overlaps under ``MachineSpec.drift_amplitude``: the images are the
    basis vectors at the translated keys, so Gram-Schmidt is the identity
    and an overlap is the part's amplitude at such a key.  Translation keeps
    the sort order, so the nonzero terms come in image order, as
    ``_gram_overlaps`` sums them."""
    translated = {(halted, q, head + 1, cells) for halted, q, head, cells in halted_keys}

    def measure(part):
        overlaps = [abs(a) for k, a in part.keyed_items() if k in translated]
        return overlaps, overlaps

    return 0.0, measure


def _gram_overlaps(spec, halted_keys, tol):
    """Gram deviation of the drift images and overlaps of a halted part with
    the images and with their Gram-Schmidt orthonormalization."""
    images = [basis_image(spec, Configuration._make(k)) for k in halted_keys]
    gram_deviation = 0.0
    for i, u in enumerate(images):
        for j, v in enumerate(images):
            expected = 1.0 if i == j else 0.0
            gram_deviation = max(
                gram_deviation, abs(u.inner(v) - expected)
            )

    # orthonormalize the drift images to measure residuals against their span
    ortho: list[QuantumState] = []
    for v in images:
        w = v
        for e in ortho:
            c = e.inner(w)
            if c != 0:
                w = _combine(((complex(1), w), (-c, e)))
        if w.norm2() > tol * tol:
            ortho.append(w.renormalized())

    def measure(part):
        return [abs(u.inner(part)) for u in images], [abs(e.inner(part)) for e in ortho]

    return gram_deviation, measure


def analyze_halting_subspace(
    spec: MachineSpec,
    state: QuantumState,
    steps: int,
    tol: float = DEFAULT_TOL,
) -> SubspaceReport:
    halted_set, running_keys = set(), set()
    for t, s in chain([(0, state)], trajectory(spec, state, 0, steps)):
        for k, _ in s.keyed_items():
            if k[0]:
                halted_set.add(k)
            elif t < steps:  # a running key of S_steps steps out of the window
                running_keys.add(k)
    halted_keys = sorted(halted_set)
    running_sorted = [Configuration._make(k) for k in sorted(running_keys)]

    if spec.drift_amplitude is not None:
        gram_deviation, measure = _translate_overlaps(halted_keys)
    else:
        gram_deviation, measure = _gram_overlaps(spec, halted_keys, tol)

    newly = []
    max_overlap = 0.0
    max_residual = 0.0
    for cfg in running_sorted:
        halted_part = basis_image(spec, cfg).component(True)
        mass = halted_part.norm2()
        if math.sqrt(mass) <= tol:
            continue
        newly.append(cfg)
        overlaps, projections = measure(halted_part)
        max_overlap = max([max_overlap, *overlaps])
        projected = 0.0
        for p in projections:  # left to right: float ``sum`` rounds otherwise on 3.12+
            projected += p ** 2
        residual_sq = mass - projected
        max_residual = max(max_residual, math.sqrt(max(residual_sq, 0.0)))

    if not halted_keys and not newly:
        verdict = "no_halting_observed"
    elif max_residual > tol:
        verdict = "gap_found"
    else:
        verdict = "no_gap_found"
    return SubspaceReport(
        len(halted_keys),
        tuple(newly),
        gram_deviation,
        max_overlap,
        max_residual,
        verdict,
    )
