"""Command line entry points.

``main`` alone reads the machine file (``parse_classical`` for ``lift``, else
``parse_machine``) and any ``--input``; each handler takes ``(args, spec,
state)``, with ``state`` None for a command without ``--input``.

Commands that report an analysis print one JSON document with the fixed
envelope {tool, version, machine, parameters, result}; ``--json PATH``
redirects the document to a file.  ``parameters`` echoes the command
name followed by the command's options in declaration order, camelCased
(``--max-witnesses`` as ``maxWitnesses``), except ``--prune`` and where
the output goes (``--json``, ``--csv``, ``--output``).  Keys are emitted
in a fixed order and the bytes are those of ``json.dumps(doc, indent=2)``
(written by ``_json`` on 3.10-3.12), with shortest round-trip floats, so
identical invocations produce byte-identical output.  ``trace`` emits CSV
and ``lift`` a machine file, the formats their results feed into.

Exit status: 0 for a clean result, 2 when the analysis itself found
something (a well-formedness violation, schedule distributions differing
beyond tolerance or a flagged norm drift, a non-reversible machine given
to ``lift``, a subspace gap), 1 for usage, parse, or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from . import __version__, wellformed
from .errors import NotReversibleError, ParseError, QtmError
from .evolution import evolve
from .experiments import analyze_halting_subspace, superposition_window
from .machine import DEFAULT_TOL, tape_text
from .measurement import (
    UNHALTED,
    compare_schedules,
    parse_schedule,
    run_schedule,
    sample_run,
)
from .parsing import parse_classical, parse_input, parse_machine, render_machine
from .wellformed import (
    BY_CONSTRUCTION,
    basis_image,
    check_wellformed,
    core_well_formed,
    lift_to_qtm,
    validate_structure,
)

WITNESS_CAP = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for findings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"qtmlab: error: {message}\n")


def _nonnegative(convert):
    # argument type; NaN fails every comparison, so it is rejected with inf
    def parse(text):
        value = convert(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # keeps "invalid float value: ..."
    return parse


def _int(text):
    # int() would also take spaces, underscores, '+' and non-ASCII digits
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # keeps "invalid int value: ..."
_count = _nonnegative(_int)


def _ser_complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _ser_tape(cells: tuple) -> dict:
    text, origin = tape_text(cells)
    return {"text": text, "origin": origin}


def _ser_config(cfg) -> dict:
    return {
        "halted": cfg.halted,
        "state": cfg.state,
        "head": cfg.head,
        "tape": _ser_tape(cfg.cells),
    }


def _ser_witness(spec, c1, c2) -> dict:
    # looked up on the module per call, where the benchmark's tracer times it
    inner = wellformed.pair_image_inner(spec, c1, c2)
    return {
        "c1": _ser_config(c1),
        "c2": _ser_config(c2),
        "inner": _ser_complex(inner),
        "driftCollision": c1.halted != c2.halted,
    }


# Options left out of the parameters echo: where the output goes is not a
# parameter of the analysis.  --prune is not echoed because the pinned bytes
# of every pruned run must not move; it is to be echoed together with the
# prunedMass field that reports what pruning removed (ROADMAP item 4).
_NOT_ECHOED = frozenset({"prune", "json", "csv", "output"})


def _camel(dest: str) -> str:
    head, *rest = dest.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` for str keys, byte for byte."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, float):
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# json.dumps indents in pure Python before 3.13, slower than _json; from 3.13 in C, faster
_dumps = _json if sys.version_info < (3, 13) else partial(json.dumps, indent=2, allow_nan=False)


def _emit(args, result: dict) -> None:
    _, _, options = COMMANDS[args.command]
    parameters = {"command": args.command}
    for dest in options:
        if dest not in _NOT_ECHOED:
            parameters[_camel(dest)] = getattr(args, dest)
    doc = {
        "tool": "qtmlab",
        "version": __version__,
        "machine": args.machine,
        "parameters": parameters,
        "result": result,
    }
    _write(args.json, _dumps(doc) + "\n")


def _split_schedules(text: str, steps: int):
    """Split ``A,B`` into two schedules; ``at:`` lists contain commas, so
    try each comma as the separator and take the first split where both
    halves parse."""
    for i, ch in enumerate(text):
        if ch != ",":
            continue
        left, right = text[:i], text[i + 1 :]
        try:
            return parse_schedule(left, steps), parse_schedule(right, steps)
        except ParseError:
            continue
    raise ParseError(f"--schedules expects two comma-separated schedules, got {text!r}")


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args, spec, state) -> int:
    report = check_wellformed(spec, args.tol)
    shown = report.witnesses[: args.max_witnesses]
    result = {
        "verdict": report.verdict,
        "byConstruction": list(BY_CONSTRUCTION),
        "structureViolations": [asdict(v) for v in validate_structure(spec, args.tol)],
        "normViolations": [
            {"state": key[0], "symbol": key[1], "norm2": norm2}
            for key, norm2 in report.norm_violations
        ],
        "missingRuleKeys": [
            {"state": q, "symbol": s} for q, s in report.missing_rule_keys
        ],
        "witnessTotal": len(report.witnesses),
        "coreWitnessCount": report.core_count,
        "driftWitnessCount": len(report.witnesses) - report.core_count,
        "witnessesTruncated": len(report.witnesses) > len(shown),
        "orthogonalityWitnesses": [_ser_witness(spec, *w) for w in shown],
        "coreWellFormed": core_well_formed(report),
    }
    _emit(args, result)
    return 0 if report.verdict == "well_formed" else 2


def _cmd_run(args, spec, state) -> int:
    schedule = parse_schedule(args.schedule, args.steps)
    dist = run_schedule(spec, state, schedule, args.prune)
    *halted, (_, unhalted) = dist.entries  # UNHALTED is always last
    result = {
        "schedule": schedule.label,
        "steps": schedule.budget,
        "outcomes": [
            {"haltStep": o.step, "tape": _ser_tape(o.cells), "probability": p}
            for o, p in halted
        ],
        "unhalted": unhalted,
        "maxNormDrift": dist.max_norm_drift,
        "normFlag": dist.max_norm_drift > args.tol,
    }
    _emit(args, result)
    return 0


def _cmd_sample(args, spec, state) -> int:
    schedule = parse_schedule(args.schedule, args.steps)
    dist, counts = sample_run(spec, state, schedule, args.seed, args.samples, args.prune)
    shown = []
    for (outcome, p), count in zip(dist.entries, counts):
        if not count:
            continue
        entry = {"count": count, "frequency": count / args.samples}
        if outcome is UNHALTED:
            entry["outcome"] = "unhalted"
        else:
            entry["outcome"] = "halted"
            entry["haltStep"] = outcome.step
            entry["tape"] = _ser_tape(outcome.cells)
        entry["probability"] = p
        shown.append(entry)
    result = {
        "schedule": schedule.label,
        "steps": schedule.budget,
        "seed": args.seed,
        "samples": args.samples,
        "counts": shown,
    }
    _emit(args, result)
    return 0


def _ser_coarsened(coarse: dict) -> list:
    # in the order of ``coarsened``: tapes in cell order, then UNHALTED
    return [
        {"outcome": "unhalted", "probability": p}
        if cells is UNHALTED
        else {"outcome": "halted", "tape": _ser_tape(cells), "probability": p}
        for cells, p in coarse.items()
    ]


def _cmd_compare(args, spec, state) -> int:
    sched_a, sched_b = _split_schedules(args.schedules, args.steps)
    report = compare_schedules(spec, state, sched_a, sched_b, args.tol, args.prune)
    result = {
        "scheduleA": sched_a.label,
        "scheduleB": sched_b.label,
        "steps": sched_a.budget,
        "tvDistance": report.tv_distance,
        "maxAbsDiff": report.max_abs_diff,
        "maxNormDrift": report.max_norm_drift,
        "normFlag": report.norm_flag,
        "equivalent": report.equivalent,
        "coarsenedA": _ser_coarsened(report.coarsened_a),
        "coarsenedB": _ser_coarsened(report.coarsened_b),
    }
    _emit(args, result)
    return 0 if report.equivalent else 2


def _cmd_trace(args, spec, state) -> int:
    _, rows = evolve(spec, state, args.steps, args.prune)
    lines = ["step,support,norm2,halted_mass"]
    for r in rows:
        lines.append(f"{r.step},{r.support},{r.norm2!r},{r.halted_mass!r}")
    _write(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_lift(args, spec, state) -> int:
    try:
        lift_to_qtm(spec)
    except NotReversibleError as exc:
        shown = exc.witnesses[: args.max_witnesses]
        witnesses = []
        for c1, c2 in shown:
            (image,) = basis_image(spec, c1).configurations()
            witnesses.append(
                {"c1": _ser_config(c1), "c2": _ser_config(c2), "image": _ser_config(image)}
            )
        result = {
            "reversible": False,
            "witnessTotal": len(exc.witnesses),
            "witnessesTruncated": len(exc.witnesses) > len(shown),
            "witnesses": witnesses,
        }
        _emit(args, result)
        return 2
    _write(args.output, render_machine(spec))
    return 0


def _cmd_myers(args, spec, state) -> int:
    report = superposition_window(
        spec, args.input_a, args.input_b, args.steps, args.tol
    )
    lo, hi = report.window or (0, -1)
    result = {
        "inputA": args.input_a,
        "inputB": args.input_b,
        "steps": args.steps,
        "haltStepA": report.halt_step_a,
        "haltStepB": report.halt_step_b,
        "perStep": [[t, m] for t, m in enumerate(report.per_step)],
        "window": [lo, hi] if report.window else None,
        "windowMasses": list(report.per_step[lo : hi + 1]),
    }
    _emit(args, result)
    return 0


def _cmd_subspace(args, spec, state) -> int:
    report = analyze_halting_subspace(spec, state, args.steps, args.tol)
    shown = report.newly_halting[:WITNESS_CAP]
    result = {
        "windowSteps": args.steps,
        "haltedBasisCount": report.halted_basis_count,
        "newlyHaltingVectors": len(report.newly_halting),
        "newlyHalting": [_ser_config(c) for c in shown],
        "gramDeviation": report.gram_deviation,
        "maxOverlapWithUV": report.max_overlap,
        "maxResidual": report.max_residual,
        "verdict": report.verdict,
    }
    _emit(args, result)
    return 2 if report.verdict == "gap_found" else 0


# ---------------------------------------------------------------------------
# argument wiring

# argparse dest -> (flags, keyword arguments); every option is declared once
OPTIONS = {
    "input": (("--input",), dict(required=True, help="input superposition")),
    "input_a": (("--input-a",), dict(required=True, help="first input")),
    "input_b": (("--input-b",), dict(required=True, help="second input")),
    "steps": (("--steps",), dict(type=_count, required=True, help="evolution step budget")),
    "schedule": (("--schedule",), dict(default="end", help="every | end | end:N | at:N,N,...")),
    "schedules": (("--schedules",), dict(required=True, metavar="A,B", help="e.g. every,end")),
    "seed": (("--seed",), dict(type=_int, required=True)),
    "samples": (("--samples",), dict(type=_count, default=1000)),
    "prune": (
        ("--prune",),
        dict(type=_nonnegative(float), default=0.0, help="drop amplitudes below this modulus"),
    ),
    "tol": (("--tol",), dict(type=_nonnegative(float), default=DEFAULT_TOL)),
    "max_witnesses": (("--max-witnesses",), dict(type=_count, default=WITNESS_CAP)),
    "json": (("--json",), dict(metavar="PATH", help="write the report here")),
    "csv": (("--csv",), dict(metavar="PATH", help="write the CSV here")),
    "output": (("-o", "--output"), dict(help="write the lifted machine here")),
}

# command -> (handler, help, option dests in declaration order); every
# command takes the machine file first
COMMANDS = {
    "check": (_cmd_check, "well-formedness verdict with witnesses",
              ("tol", "max_witnesses", "json")),
    "run": (_cmd_run, "exact outcome distribution for a schedule",
            ("input", "steps", "schedule", "prune", "tol", "json")),
    "sample": (_cmd_sample, "seeded samples from the exact distribution",
               ("input", "steps", "schedule", "seed", "samples", "prune", "json")),
    "compare": (_cmd_compare, "compare two measurement schedules",
                ("input", "steps", "schedules", "prune", "tol", "json")),
    "trace": (_cmd_trace, "step,support,norm2,halted_mass as CSV",
              ("input", "steps", "prune", "csv")),
    "lift": (_cmd_lift, "lift a reversible classical machine",
             ("output", "max_witnesses", "json")),
    "myers": (_cmd_myers, "halting window for a superposition of two inputs",
              ("input_a", "input_b", "steps", "tol", "json")),
    "subspace": (_cmd_subspace, "relate newly halting amplitude to drifted halted amplitude",
                 ("input", "steps", "tol", "json")),
}


# Built once per process, on first use: the tree depends only on the constants
# above, and argparse keeps no parse state in it (each parse_args fills a fresh
# namespace; usage and help read the terminal width when they are printed).
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtmlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("machine")
        for dest in options:
            flags, kwargs = OPTIONS[dest]
            p.add_argument(*flags, dest=dest, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Parse the machine file and any ``--input`` once, then run the command."""
    args = build_parser().parse_args(argv)
    try:
        with open(args.machine, "r", encoding="utf-8") as fh:
            text = fh.read()
        # parse functions are looked up per call, where the benchmark's tracer times them
        spec = (parse_classical if args.command == "lift" else parse_machine)(text)
        state = parse_input(args.input, spec) if "input" in COMMANDS[args.command][2] else None
        return args.func(args, spec, state)
    except (QtmError, ValueError, OSError) as exc:
        print(f"qtmlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
