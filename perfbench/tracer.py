"""Spans and counters at qtmlab's module boundaries, for the traced run.

``Tracer.install`` rebinds public functions at the sites where other
qtmlab modules import them (``qtmlab.measurement.step``,
``qtmlab.cli.check_wellformed`` and so on), so every call through those
sites records a span: name, start, end, parent span and job id.  Nothing
in qtmlab itself changes, and ``uninstall`` puts the original functions
back.  A site whose attribute no longer exists is skipped; the metrics it
fed then read ``None`` ("not measured") instead of 0.

A span's self time is its duration minus the time its child spans cover.
Counting done by the tracer after a call returns is charged to no layer:
it belongs to the child span's cover, not to its duration.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name); one span name may have several sites
SITES = (
    ("qtmlab.cli", "main", "cli.main"),
    ("qtmlab.cli", "parse_machine", "parsing.parse_machine"),
    ("qtmlab.cli", "parse_classical", "parsing.parse_classical"),
    ("qtmlab.cli", "parse_input", "parsing.parse_input"),
    ("qtmlab.cli", "render_machine", "parsing.render_machine"),
    ("qtmlab.cli", "parse_schedule", "measurement.parse_schedule"),
    ("qtmlab.cli", "validate_structure", "machine.validate_structure"),
    ("qtmlab.cli", "check_wellformed", "wellformed.check_wellformed"),
    ("qtmlab.cli", "core_well_formed", "wellformed.core_well_formed"),
    ("qtmlab.wellformed", "pair_image_inner", "wellformed.pair_image_inner"),
    ("qtmlab.cli", "run_schedule", "measurement.run_schedule"),
    ("qtmlab.measurement", "run_schedule", "measurement.run_schedule"),
    ("qtmlab.cli", "sample_run", "measurement.sample_run"),
    ("qtmlab.cli", "compare_schedules", "measurement.compare_schedules"),
    ("qtmlab.cli", "evolve", "evolution.evolve"),
    ("qtmlab.evolution", "step", "evolution.step"),
    ("qtmlab.measurement", "step", "evolution.step"),
    ("qtmlab.experiments", "step", "evolution.step"),
    ("qtmlab.cli", "superposition_window", "experiments.superposition_window"),
    ("qtmlab.cli", "analyze_halting_subspace", "experiments.analyze_halting_subspace"),
    ("qtmlab.cli", "lift_to_qtm", "classical.lift_to_qtm"),
)

# per-layer time metric: (spans summed, "self" or inclusive "total" time)
TIMES = {
    "evolution.step_self_s": (("evolution.step",), "self"),
    "evolution.evolve_self_s": (("evolution.evolve",), "self"),
    "measurement.schedule_self_s": (("measurement.run_schedule",), "self"),
    "measurement.sample_self_s": (("measurement.sample_run",), "self"),
    "measurement.compare_self_s": (("measurement.compare_schedules",), "self"),
    "wellformed.sweep_self_s": (("wellformed.check_wellformed",), "self"),
    "wellformed.materialize_s": (("wellformed.pair_image_inner",), "total"),
    "classical.lift_self_s": (("classical.lift_to_qtm",), "self"),
    "experiments.myers_self_s": (("experiments.superposition_window",), "self"),
    "experiments.subspace_self_s": (("experiments.analyze_halting_subspace",), "self"),
    "parsing.self_s": (
        (
            "parsing.parse_machine",
            "parsing.parse_classical",
            "parsing.parse_input",
            "parsing.render_machine",
        ),
        "self",
    ),
    "cli.self_s": (("cli.main",), "self"),
}

COUNTS = (
    "evolution.step_calls",
    "evolution.config_steps",
    "evolution.halted_config_steps",
    "evolution.support_peak",
    "measurement.records",
    "wellformed.check_calls",
    "wellformed.witnesses",
    "classical.injectivity_witnesses",
    "experiments.halted_basis",
    "cli.bytes_out",
)


def _count_step(counts, args, kwargs, result, exc):
    state = args[1] if len(args) > 1 else kwargs["state"]
    counts["evolution.step_calls"] += 1
    counts["evolution.config_steps"] += len(state)
    counts["evolution.halted_config_steps"] += sum(1 for c in state.configurations() if c.halted)
    peak = max(len(state), 0 if exc else len(result))
    counts["evolution.support_peak"] = max(counts["evolution.support_peak"], peak)


def _count_schedule(counts, args, kwargs, result, exc):
    counts["measurement.records"] += 0 if exc else len(result.records)


def _count_check(counts, args, kwargs, result, exc):
    counts["wellformed.check_calls"] += 1
    counts["wellformed.witnesses"] += 0 if exc else len(result.witnesses)


def _count_lift(counts, args, kwargs, result, exc):
    # a non-reversible machine raises NotReversibleError with its witnesses
    counts["classical.injectivity_witnesses"] += len(getattr(exc, "witnesses", ()))


def _count_subspace(counts, args, kwargs, result, exc):
    basis = 0 if exc else result.halted_basis_count
    counts["experiments.halted_basis"] = max(counts["experiments.halted_basis"], basis)


HOOKS = {
    "evolution.step": _count_step,
    "measurement.run_schedule": _count_schedule,
    "wellformed.check_wellformed": _count_check,
    "classical.lift_to_qtm": _count_lift,
    "experiments.analyze_halting_subspace": _count_subspace,
}


class _Counts(dict):
    """Counters read 0 while counting but stay absent until first set."""

    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, cover_end, parent, job)
        self.counts = _Counts()
        self.job = None
        self._stack: list[int] = []
        self._saved: list = []

    def reset(self):
        self.spans = []
        self.counts = _Counts()

    def install(self):
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, name):
        stack = self._stack
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)
                spans[sid] = (name, t0, t1, perf_counter(), parent, self.job)

        return traced

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset.

        A metric whose boundary was never called is None.
        """
        cover = [0.0] * len(self.spans)
        for name, t0, t1, t2, parent, job in self.spans:
            if parent is not None:
                cover[parent] += t2 - t0
        self_s: dict = {}
        total_s: dict = {}
        for i, (name, t0, t1, t2, parent, job) in enumerate(self.spans):
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - cover[i]
        out: dict = {}
        for metric, (names, kind) in TIMES.items():
            source = self_s if kind == "self" else total_s
            seen = [source[n] for n in names if n in source]
            out[metric] = sum(seen) if seen else None
        for key in COUNTS:
            out[key] = self.counts.get(key)
        return out

    def span_records(self, origin: float) -> list:
        """Spans as [name, start, end, parent, job], times from ``origin``."""
        return [
            [name, t0 - origin, t1 - origin, parent, job]
            for name, t0, t1, t2, parent, job in self.spans
        ]


def derived(m: dict) -> dict:
    """Ratios computed from the summed metrics; None when a part is missing."""

    def ratio(num, den, scale=1.0):
        if num is None or not den:
            return None
        return num / den * scale

    return {
        "evolution.halted_share": ratio(m["evolution.halted_config_steps"], m["evolution.config_steps"]),
        "evolution.ns_per_config_step": ratio(m["evolution.step_self_s"], m["evolution.config_steps"], 1e9),
        "wellformed.us_per_witness": ratio(m["wellformed.materialize_s"], m["wellformed.witnesses"], 1e6),
    }
