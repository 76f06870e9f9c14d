"""Command line entry points.

Commands that report an analysis print one JSON document with the fixed
envelope {tool, version, machine, parameters, result}; ``--json PATH``
redirects the document to a file.  Keys are emitted in a fixed order and
floats use the shortest round-trip representation, so identical
invocations produce byte-identical output.  ``trace`` emits CSV and
``lift`` emits a machine file, since those are the formats their results
feed into.

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

from . import __version__
from .classical import lift_to_qtm
from .errors import NotReversibleError, ParseError, QtmError
from .evolution import evolve
from .experiments import analyze_halting_subspace, superposition_window
from .machine import BY_CONSTRUCTION, DEFAULT_TOL, validate_structure
from .measurement import (
    UNHALTED,
    compare_schedules,
    parse_schedule,
    run_schedule,
    sample_run,
)
from .parsing import parse_classical, parse_input, parse_machine, render_machine
from .wellformed import check_wellformed, core_well_formed

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


def _ser_complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _ser_tape(tape) -> dict:
    text, origin = tape.text()
    return {"text": text, "origin": origin}


def _ser_config(cfg) -> dict:
    return {
        "halted": cfg.halted,
        "state": cfg.state,
        "head": cfg.head,
        "tape": _ser_tape(cfg.tape),
    }


def _ser_witness(w) -> dict:
    return {
        "c1": _ser_config(w.c1),
        "c2": _ser_config(w.c2),
        "inner": _ser_complex(w.inner),
        "driftCollision": w.drift_collision,
    }


def _emit(args, parameters: dict, result: dict) -> None:
    doc = {
        "tool": "qtmlab",
        "version": __version__,
        "machine": args.machine,
        "parameters": parameters,
        "result": result,
    }
    text = json.dumps(doc, indent=2) + "\n"
    path = getattr(args, "json", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_qtm(path: str):
    return parse_machine(_read(path))


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
        except (ParseError, ValueError):
            continue
    raise ParseError(f"--schedules expects two comma-separated schedules, got {text!r}")


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args) -> int:
    spec = _load_qtm(args.machine)
    structure = validate_structure(spec, args.tol)
    report = check_wellformed(spec, args.tol)
    clean = not structure and report.verdict == "well_formed"
    shown = report.witnesses[: args.max_witnesses]
    result = {
        "verdict": "well_formed" if clean else "violation",
        "byConstruction": list(BY_CONSTRUCTION),
        "structureViolations": [
            {
                "kind": v.kind,
                "state": v.state,
                "symbol": v.symbol,
                "detail": v.detail,
            }
            for v in structure
        ],
        "normViolations": [
            {"state": key[0], "symbol": key[1], "norm2": norm2}
            for key, norm2 in report.norm_violations
        ],
        "missingRuleKeys": [
            {"state": q, "symbol": s} for q, s in report.missing_rule_keys
        ],
        "witnessTotal": len(report.witnesses),
        "coreWitnessCount": len(report.core_witnesses),
        "driftWitnessCount": len(report.drift_witnesses),
        "witnessesTruncated": len(report.witnesses) > len(shown),
        "orthogonalityWitnesses": [_ser_witness(w) for w in shown],
        "coreWellFormed": core_well_formed(report)
        and not any(v.kind == "row_norm" for v in structure),
    }
    _emit(
        args,
        {"command": "check", "tol": args.tol, "maxWitnesses": args.max_witnesses},
        result,
    )
    return 0 if clean else 2


def _dist_outcomes(dist) -> tuple[list, float]:
    halted = []
    unhalted = 0.0
    for outcome, p in dist.entries:
        if outcome is UNHALTED:
            unhalted = p
        else:
            halted.append(
                {
                    "haltStep": outcome.step,
                    "tape": _ser_tape(outcome.tape),
                    "probability": p,
                }
            )
    return halted, unhalted


def _cmd_run(args) -> int:
    spec = _load_qtm(args.machine)
    inp = parse_input(args.input, spec)
    schedule = parse_schedule(args.schedule, args.steps)
    dist = run_schedule(spec, inp, schedule, args.steps, args.prune)
    halted, unhalted = _dist_outcomes(dist)
    result = {
        "schedule": dist.schedule_label,
        "steps": dist.budget,
        "outcomes": halted,
        "unhalted": unhalted,
        "maxNormDrift": dist.max_norm_drift,
        "normFlag": dist.max_norm_drift > args.tol,
    }
    _emit(
        args,
        {
            "command": "run",
            "input": args.input,
            "steps": args.steps,
            "schedule": args.schedule,
            "tol": args.tol,
        },
        result,
    )
    return 0


def _cmd_sample(args) -> int:
    spec = _load_qtm(args.machine)
    inp = parse_input(args.input, spec)
    schedule = parse_schedule(args.schedule, args.steps)
    report = sample_run(
        spec, inp, schedule, args.steps, args.seed, args.samples, args.prune
    )
    counts = []
    for outcome, count in report.counts:
        entry = {"count": count}
        if report.samples:
            entry["frequency"] = count / report.samples
        if outcome is UNHALTED:
            entry["outcome"] = "unhalted"
        else:
            entry["outcome"] = "halted"
            entry["haltStep"] = outcome.step
            entry["tape"] = _ser_tape(outcome.tape)
        entry["probability"] = report.distribution.probability(outcome)
        counts.append(entry)
    result = {
        "schedule": report.distribution.schedule_label,
        "steps": args.steps,
        "seed": report.seed,
        "samples": report.samples,
        "counts": counts,
    }
    _emit(
        args,
        {
            "command": "sample",
            "input": args.input,
            "steps": args.steps,
            "schedule": args.schedule,
            "seed": args.seed,
            "samples": args.samples,
        },
        result,
    )
    return 0


def _ser_coarsened(coarse: dict) -> list:
    entries = []
    tapes = sorted(
        (k for k in coarse if k is not UNHALTED), key=lambda t: t.cells
    )
    for tape in tapes:
        entries.append(
            {"outcome": "halted", "tape": _ser_tape(tape), "probability": coarse[tape]}
        )
    if UNHALTED in coarse:
        entries.append({"outcome": "unhalted", "probability": coarse[UNHALTED]})
    return entries


def _cmd_compare(args) -> int:
    spec = _load_qtm(args.machine)
    inp = parse_input(args.input, spec)
    sched_a, sched_b = _split_schedules(args.schedules, args.steps)
    report = compare_schedules(
        spec, inp, sched_a, sched_b, args.steps, args.tol, args.prune
    )
    result = {
        "scheduleA": report.dist_a.schedule_label,
        "scheduleB": report.dist_b.schedule_label,
        "steps": args.steps,
        "tvDistance": report.tv_distance,
        "maxAbsDiff": report.max_abs_diff,
        "maxNormDrift": max(
            report.dist_a.max_norm_drift, report.dist_b.max_norm_drift
        ),
        "normFlag": report.norm_flag,
        "equivalent": report.equivalent,
        "coarsenedA": _ser_coarsened(report.dist_a.coarsened()),
        "coarsenedB": _ser_coarsened(report.dist_b.coarsened()),
    }
    _emit(
        args,
        {
            "command": "compare",
            "input": args.input,
            "steps": args.steps,
            "schedules": args.schedules,
            "tol": args.tol,
        },
        result,
    )
    return 0 if report.equivalent else 2


def _cmd_trace(args) -> int:
    spec = _load_qtm(args.machine)
    inp = parse_input(args.input, spec)
    _, trace = evolve(spec, inp, args.steps, args.prune)
    text = trace.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_lift(args) -> int:
    tm = parse_classical(_read(args.machine))
    try:
        spec = lift_to_qtm(tm)
    except NotReversibleError as exc:
        shown = exc.witnesses[: args.max_witnesses]
        result = {
            "reversible": False,
            "witnessTotal": len(exc.witnesses),
            "witnessesTruncated": len(exc.witnesses) > len(shown),
            "witnesses": [
                {
                    "c1": _ser_config(w.c1),
                    "c2": _ser_config(w.c2),
                    "image": _ser_config(w.image),
                }
                for w in shown
            ],
        }
        _emit(
            args, {"command": "lift", "maxWitnesses": args.max_witnesses}, result
        )
        return 2
    text = render_machine(spec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_myers(args) -> int:
    spec = _load_qtm(args.machine)
    report = superposition_window(
        spec, args.input_a, args.input_b, args.steps, args.tol
    )
    result = {
        "inputA": report.input_a,
        "inputB": report.input_b,
        "steps": report.budget,
        "haltStepA": report.halt_step_a,
        "haltStepB": report.halt_step_b,
        "perStep": [[t, m] for t, m in enumerate(report.per_step)],
        "window": list(report.window) if report.window else None,
        "windowMasses": list(report.window_masses),
    }
    _emit(
        args,
        {
            "command": "myers",
            "inputA": args.input_a,
            "inputB": args.input_b,
            "steps": args.steps,
            "tol": args.tol,
        },
        result,
    )
    return 0


def _cmd_subspace(args) -> int:
    spec = _load_qtm(args.machine)
    inp = parse_input(args.input, spec)
    report = analyze_halting_subspace(spec, inp, args.steps, args.tol)
    shown = report.newly_halting[:WITNESS_CAP]
    result = {
        "windowSteps": report.steps,
        "haltedBasisCount": report.halted_basis_count,
        "newlyHaltingVectors": len(report.newly_halting),
        "newlyHalting": [_ser_config(c) for c in shown],
        "gramDeviation": report.gram_deviation,
        "maxOverlapWithUV": report.max_overlap,
        "maxResidual": report.max_residual,
        "verdict": report.verdict,
    }
    _emit(
        args,
        {
            "command": "subspace",
            "input": args.input,
            "steps": args.steps,
            "tol": args.tol,
        },
        result,
    )
    return 2 if report.verdict == "gap_found" else 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtmlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="well-formedness verdict with witnesses")
    p.add_argument("machine")
    p.add_argument("--tol", type=_nonnegative(float), default=DEFAULT_TOL)
    p.add_argument("--max-witnesses", type=_nonnegative(int), default=WITNESS_CAP)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", help="exact outcome distribution for a schedule")
    p.add_argument("machine")
    p.add_argument("--input", required=True, help="input superposition")
    p.add_argument("--steps", type=int, required=True, help="evolution step budget")
    p.add_argument(
        "--schedule", default="end", help="every | end | end:N | at:N,N,..."
    )
    p.add_argument(
        "--prune", type=_nonnegative(float), default=0.0,
        help="drop amplitudes below this modulus",
    )
    p.add_argument("--tol", type=_nonnegative(float), default=DEFAULT_TOL)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sample", help="seeded samples from the exact distribution")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--schedule", default="end")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--prune", type=_nonnegative(float), default=0.0)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("compare", help="compare two measurement schedules")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--schedules", required=True, metavar="A,B", help="e.g. every,end"
    )
    p.add_argument("--prune", type=_nonnegative(float), default=0.0)
    p.add_argument("--tol", type=_nonnegative(float), default=DEFAULT_TOL)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("trace", help="step,support,norm2,halted_mass as CSV")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--prune", type=_nonnegative(float), default=0.0)
    p.add_argument("--csv", metavar="PATH", help="write the CSV here")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("lift", help="lift a reversible classical machine")
    p.add_argument("machine")
    p.add_argument("-o", "--output", help="write the lifted machine here")
    p.add_argument("--max-witnesses", type=_nonnegative(int), default=WITNESS_CAP)
    p.add_argument("--json", metavar="PATH", help="write a failure report here")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser(
        "myers", help="halting window for a superposition of two inputs"
    )
    p.add_argument("machine")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tol", type=_nonnegative(float), default=DEFAULT_TOL)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_myers)

    p = sub.add_parser(
        "subspace", help="relate newly halting amplitude to drifted halted amplitude"
    )
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tol", type=_nonnegative(float), default=DEFAULT_TOL)
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=_cmd_subspace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QtmError as exc:
        print(f"qtmlab: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"qtmlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
