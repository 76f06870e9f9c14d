"""Seeded job cycles for the three benchmark workloads.

A workload is one cycle of CYCLE_JOBS distinct CLI jobs that the worker
repeats, reshuffled, for the whole run.  The seed picks tape contents,
input strings, sampler seeds and machine variants; it never changes the
size of a job, so every seed gives the same amount of work and figures
from different seeds are comparable.  Job sizes are spread within each
workload, as a user's jobs would be.  Each job carries the answer it must
produce (see answers.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "machines"
WALK_MACHINE = HERE / "machines" / "hadamard_walk.qtm"
CYCLE_JOBS = 40  # distinct jobs per cycle: ten of them lie beyond the 75th percentile

# Witness totals frozen by the test suite; relabelling states, permuting
# the non-blank symbols and giving a rule row a phase in {1, i, -1, -i}
# map witnesses one to one, so every variant keeps its original's counts.
CHECK_COUNTS = {  # file: (witnessTotal, coreWitnessCount)
    "hadamard_halt_naive.qtm": (10692, 2673),
    "delayed_hadamard.qtm": (13365, 0),
    "seek_right_lifted.qtm": (2673, 0),
    "right_shift.qtm": (0, 0),
}
INJECTIVITY_WITNESSES = {"collide.tm": 2673}
REVERSIBLE_TM = ("flip_bits.tm", "parity_mark.tm", "seek_right.tm", "unary_inc.tm")


@dataclass(frozen=True)
class Job:
    kind: str  # the qtmlab subcommand
    argv: tuple[str, ...]
    expect: dict  # "exit" plus the kind's answer fields, see answers.py


def _bits(rng: Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """``n`` lengths spread evenly over lo..hi, distinct when hi - lo >= n - 1."""
    return [lo + (i * (hi - lo)) // (n - 1) for i in range(n)]


def _superposition(rng: Random, lengths: list[int]) -> str:
    """Equal-amplitude superposition of random strings, one per length.

    Distinct lengths make the strings distinct; the term order is shuffled.
    """
    n = len(lengths)
    root = math.isqrt(n)
    amp = f"1/{root}" if root * root == n else f"1/sqrt({n})"
    terms = [f"{amp}:{_bits(rng, length)}" for length in lengths]
    rng.shuffle(terms)
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# walk: the never-halting Hadamard walk, support up to 2t after t steps

WALK_TAPE = 8
WALK_STEPS = _spread(20, 100, CYCLE_JOBS)  # support up to 40..200 at the end
WALK_KINDS = (("run", "end"), ("run", "every"), ("trace", None))


def walk_cycle(rng: Random, workdir: Path) -> list[Job]:
    machine = str(WALK_MACHINE)
    jobs = []
    for index, steps in enumerate(WALK_STEPS):
        kind, schedule = WALK_KINDS[index % len(WALK_KINDS)]
        argv = [kind, machine, "--input", _bits(rng, WALK_TAPE), "--steps", str(steps)]
        if kind == "run":
            argv += ["--schedule", schedule]
            expect = {"exit": 0}
        else:
            expect = {"exit": 0, "rows": steps + 1}
        jobs.append(Job(kind, tuple(argv), expect))
    return jobs


# ---------------------------------------------------------------------------
# halt-drift: superposed inputs of many lengths on seek_right_lifted, so
# branches halt at different steps and halted support drifts until the end

DRIFT_TERMS = (8, 16, 32, 48)  # terms of a superposition, lengths 1..80
DRIFT_MAX_LEN = 80
DRIFT_STEPS = 112  # every branch halts by step DRIFT_MAX_LEN + 1, then drifts
DRIFT_SAMPLES = 1000
DRIFT_MIX = (("run", 3), ("sample", 2), ("compare", 2))  # (kind, copies per term count)
MYERS_JOBS = 8
MYERS_LENGTHS = (40, 100)
MYERS_STEPS = 110
SUBSPACE_JOBS = 4
SUBSPACE_LENGTHS = _spread(2, 16, 8)
SUBSPACE_STEPS = 24


def halt_drift_cycle(rng: Random, workdir: Path) -> list[Job]:
    machine = str(CORPUS / "seek_right_lifted.qtm")
    jobs = []
    for kind, copies in DRIFT_MIX:
        for terms in DRIFT_TERMS:
            for _ in range(copies):
                lengths = _spread(1, DRIFT_MAX_LEN, terms)
                argv = [kind, machine, "--input", _superposition(rng, lengths), "--steps", str(DRIFT_STEPS)]
                if kind == "run":
                    jobs.append(Job(kind, tuple(argv + ["--schedule", "end"]), {"exit": 0}))
                elif kind == "sample":
                    argv += ["--seed", str(rng.randrange(2**31)), "--samples", str(DRIFT_SAMPLES)]
                    jobs.append(Job(kind, tuple(argv), {"exit": 0, "samples": DRIFT_SAMPLES}))
                else:
                    argv += ["--schedules", "every,end"]
                    jobs.append(Job(kind, tuple(argv), {"exit": 0, "equivalent": True}))
    for _ in range(MYERS_JOBS):
        a, b = (_bits(rng, n) for n in MYERS_LENGTHS)
        argv = ["myers", machine, "--input-a", a, "--input-b", b, "--steps", str(MYERS_STEPS)]
        # seek_right halts one step after reading the blank past the input
        expect = {"exit": 0, "haltStepA": len(a) + 1, "haltStepB": len(b) + 1}
        jobs.append(Job("myers", tuple(argv), expect))
    # a branch of length L halts at step L + 1 and then visits one new
    # halted configuration per step; the lifted machine shows a gap (exit 2)
    basis = sum(SUBSPACE_STEPS - n for n in SUBSPACE_LENGTHS)
    for _ in range(SUBSPACE_JOBS):
        argv = [
            "subspace", machine,
            "--input", _superposition(rng, SUBSPACE_LENGTHS),
            "--steps", str(SUBSPACE_STEPS),
        ]
        jobs.append(Job("subspace", tuple(argv), {"exit": 2, "haltedBasisCount": basis}))
    return jobs


# ---------------------------------------------------------------------------
# check: well-formedness checks of seeded variants of the corpus .qtm files
# and lifts of the corpus .tm files

CHECK_MIX = (  # (corpus file, copies)
    ("right_shift.qtm", 16),
    ("seek_right_lifted.qtm", 6),
    ("hadamard_halt_naive.qtm", 1),
    ("delayed_hadamard.qtm", 1),
)
REVERSIBLE_COPIES = 3
COLLIDE_COPIES = 4
PHASES = (1, 1j, -1, -1j)


def variant(spec, rng: Random):
    """A MachineSpec isomorphic to ``spec`` up to row phases.

    States get fresh names, the non-blank symbols are permuted, and every
    rule row of a running state is multiplied by a random power of i
    (exact in floating point).  Halt-state rows keep amplitude 1, as the
    format requires.
    """
    names = dict(zip(spec.states, (f"s{n}" for n in rng.sample(range(100, 1000), len(spec.states)))))
    symbols = [s for s in spec.alphabet if s != "_"]
    shuffled = rng.sample(symbols, len(symbols))
    sym = dict(zip(symbols, shuffled), _="_")
    rules = {}
    for (state, read), targets in spec.rules.items():
        phase = 1 if state == spec.halt else rng.choice(PHASES)
        rules[(names[state], sym[read])] = tuple(
            replace(t, amplitude=t.amplitude * phase, state=names[t.state], write=sym[t.write])
            for t in targets
        )
    return replace(
        spec,
        states=tuple(names[s] for s in spec.states),
        initial=names[spec.initial],
        halt=names[spec.halt],
        rules=rules,
    )


def check_cycle(rng: Random, workdir: Path) -> list[Job]:
    from qtmlab.parsing import parse_classical, parse_machine, render_machine

    jobs = []
    for name in REVERSIBLE_TM:
        tm = parse_classical((CORPUS / name).read_text(encoding="utf-8"))
        rows = len(tm.states) * len(tm.alphabet)  # the lift has a row for every key
        for _ in range(REVERSIBLE_COPIES):
            jobs.append(Job("lift", ("lift", str(CORPUS / name)), {"exit": 0, "rules": rows}))
    for name, total in INJECTIVITY_WITNESSES.items():
        for _ in range(COLLIDE_COPIES):
            jobs.append(Job("lift", ("lift", str(CORPUS / name)), {"exit": 2, "witnessTotal": total}))
    for name, copies in CHECK_MIX:
        spec = parse_machine((CORPUS / name).read_text(encoding="utf-8"))
        total, core = CHECK_COUNTS[name]
        for _ in range(copies):
            path = workdir / f"{len(jobs):02d}-{name}"
            path.write_text(render_machine(variant(spec, rng)), encoding="utf-8")
            expect = {"exit": 2 if total else 0, "witnessTotal": total, "coreWitnessCount": core}
            jobs.append(Job("check", ("check", str(path)), expect))
    return jobs


WORKLOADS = {
    "walk": walk_cycle,
    "halt-drift": halt_drift_cycle,
    "check": check_cycle,
}


def make_cycle(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job cycle of ``workload`` for ``seed``; variant files go to ``workdir``.

    qtmlab must be importable (the check workload renders its variants with it).
    """
    jobs = WORKLOADS[workload](Random(f"{workload}/{seed}"), workdir)
    assert len(jobs) == CYCLE_JOBS, (workload, len(jobs))
    return jobs
