"""Tests of the benchmark itself: answer checks, tracer and seeded inputs.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import tempfile
import unittest
from pathlib import Path
from random import Random

import run
import tracer as tracer_mod
import worker
from answers import Ledger, check_answer
from workloads import CORPUS, make_cycle, variant

cli = worker._import_qtmlab()
from qtmlab.parsing import parse_machine  # noqa: E402  (needs the path set above)
from qtmlab.wellformed import check_wellformed  # noqa: E402


def _first(jobs, kind, name=""):
    return next(j for j in jobs if j.kind == kind and name in " ".join(j.argv))


class _Cycles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work = worker.HERE / ".work"
        work.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="test-", dir=work))
        cls.cycles = {w: make_cycle(w, 7, cls.workdir) for w in ("walk", "halt-drift", "check")}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)


class AnswerChecks(_Cycles):
    """Every answer check passes the real answer and fails a corrupted one."""

    def assert_caught(self, job, corrupt):
        _, code, out = worker.run_job(cli, job)
        reason, _ = check_answer(job, code, out)
        self.assertIsNone(reason, f"real answer rejected: {reason}")
        doc = json.loads(out)
        corrupt(doc["result"])
        reason, _ = check_answer(job, code, json.dumps(doc))
        self.assertIsNotNone(reason, "corrupted answer accepted")

    def test_run_probabilities_must_sum_to_one(self):
        job = _first(self.cycles["halt-drift"], "run")
        self.assert_caught(job, lambda r: r["outcomes"][0].update(probability=0.0))

    def test_sample_counts_must_sum_to_samples(self):
        job = _first(self.cycles["halt-drift"], "sample")
        self.assert_caught(job, lambda r: r["counts"][0].update(count=r["counts"][0]["count"] + 1))

    def test_compare_must_be_equivalent(self):
        job = _first(self.cycles["halt-drift"], "compare")
        self.assert_caught(job, lambda r: r.update(equivalent=False))

    def test_myers_halt_steps(self):
        job = _first(self.cycles["halt-drift"], "myers")
        self.assert_caught(job, lambda r: r.update(haltStepA=r["haltStepA"] + 1))

    def test_subspace_basis_size(self):
        job = _first(self.cycles["halt-drift"], "subspace")
        self.assert_caught(job, lambda r: r.update(haltedBasisCount=r["haltedBasisCount"] - 1))

    def test_check_witness_totals(self):
        job = _first(self.cycles["check"], "check", "seek_right_lifted")
        self.assert_caught(job, lambda r: r.update(witnessTotal=r["witnessTotal"] - 1))
        self.assert_caught(job, lambda r: r.update(coreWitnessCount=1))

    def test_lift_injectivity_witnesses(self):
        job = _first(self.cycles["check"], "lift", "collide")
        self.assert_caught(job, lambda r: r.update(witnessTotal=2672))

    def test_lifted_machine_rules(self):
        job = _first(self.cycles["check"], "lift", "unary_inc")
        _, code, out = worker.run_job(cli, job)
        self.assertIsNone(check_answer(job, code, out)[0])
        dropped = "".join(out.splitlines(keepends=True)[:-1])
        self.assertIsNotNone(check_answer(job, code, dropped)[0])

    def test_trace_norm_and_support(self):
        job = _first(self.cycles["walk"], "trace")
        _, code, out = worker.run_job(cli, job)
        self.assertIsNone(check_answer(job, code, out)[0])
        lines = out.splitlines()
        step, support, norm2, halted = lines[3].split(",")
        bad_norm = lines[:3] + [f"{step},{support},0.5,{halted}"] + lines[4:]
        self.assertIsNotNone(check_answer(job, code, "\n".join(bad_norm) + "\n")[0])
        too_wide = lines[:3] + [f"{step},{2 * int(step) + 1},{norm2},{halted}"] + lines[4:]
        self.assertIsNotNone(check_answer(job, code, "\n".join(too_wide) + "\n")[0])
        self.assertIsNotNone(check_answer(job, code, "\n".join(lines[:-1]) + "\n")[0])

    def test_new_fields_do_not_fail_a_job(self):
        job = _first(self.cycles["halt-drift"], "run")
        _, code, out = worker.run_job(cli, job)
        doc = json.loads(out)
        doc["result"]["prunedMass"] = 0.0
        doc["stats"] = {"anything": 1}
        self.assertIsNone(check_answer(job, code, json.dumps(doc, indent=4))[0])

    def test_unexpected_exit_code_or_exception_fails(self):
        job = _first(self.cycles["check"], "check", "right_shift")
        _, code, out = worker.run_job(cli, job)
        self.assertIsNotNone(check_answer(job, 2, out)[0])
        self.assertIsNotNone(check_answer(job, RuntimeError("boom"), "")[0])


class CorruptedProgram(_Cycles):
    """A wrong answer from the program itself becomes a failed job."""

    def test_dropped_witness_fails_the_job(self):
        job = _first(self.cycles["check"], "check", "seek_right_lifted")
        original = cli.check_wellformed

        def drops_one(spec, tol):
            report = original(spec, tol)
            return type(report)(
                report.verdict, report.norm_violations, report.witnesses[:-1], report.missing_rule_keys
            )

        ledger = Ledger()
        cli.check_wellformed = drops_one
        try:
            _, code, out = worker.run_job(cli, job)
        finally:
            cli.check_wellformed = original
        self.assertFalse(ledger.record(job, code, out))
        self.assertEqual((ledger.attempted, len(ledger.failures)), (1, 1))

    def test_repeat_with_different_answer_fails(self):
        job = _first(self.cycles["walk"], "run")
        _, code, out = worker.run_job(cli, job)
        ledger = Ledger()
        self.assertTrue(ledger.record(job, code, out))
        doc = json.loads(out)
        doc["result"]["maxNormDrift"] += 1e-12
        self.assertFalse(ledger.record(job, code, json.dumps(doc)))

    def test_raising_job_fails(self):
        job = _first(self.cycles["walk"], "run")
        original = cli.run_schedule
        cli.run_schedule = lambda *a, **k: 1 / 0
        try:
            _, code, out = worker.run_job(cli, job)
        finally:
            cli.run_schedule = original
        self.assertIsInstance(code, ZeroDivisionError)
        self.assertFalse(Ledger().record(job, code, out))


class Tracing(_Cycles):
    def traced_cycle(self, workload):
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            worker.run_cycle(cli, self.cycles[workload], Ledger(), tr)
        finally:
            tr.uninstall()
        return tr

    def test_uninstall_restores_every_site(self):
        def bound():
            return [getattr(importlib.import_module(m), a) for m, a, _ in tracer_mod.SITES]

        before = bound()
        self.traced_cycle("walk")
        after = bound()
        self.assertEqual(before, after)

    def test_never_called_boundary_is_none(self):
        summary = self.traced_cycle("walk").summary()
        self.assertIsNone(summary["wellformed.sweep_self_s"])
        self.assertIsNone(summary["wellformed.witnesses"])
        self.assertEqual(summary["evolution.halted_config_steps"], 0)
        self.assertGreater(summary["evolution.step_self_s"], 0)

    def test_self_time_excludes_children(self):
        tr = tracer_mod.Tracer()
        tr.spans = [
            ("cli.main", 0.0, 10.0, 10.0, None, 0),
            ("measurement.run_schedule", 1.0, 9.0, 9.0, 0, 0),
            ("evolution.step", 2.0, 5.0, 5.5, 1, 0),
            ("evolution.step", 6.0, 8.0, 8.0, 1, 0),
        ]
        summary = tr.summary()
        self.assertEqual(summary["cli.self_s"], 2.0)
        self.assertEqual(summary["measurement.schedule_self_s"], 8.0 - 3.5 - 2.0)
        self.assertEqual(summary["evolution.step_self_s"], 5.0)
        self.assertIsNone(summary["parsing.self_s"])

    def test_counts_repeat_and_layers_dominate(self):
        for workload in ("walk", "check"):
            reports = [
                {"summaries": [self.traced_cycle(workload).summary()], "plain_walls": [1.0], "traced_walls": [1.1]}
                for _ in range(2)
            ]
            layers, problems = worker.aggregate(workload, reports)
            self.assertEqual(problems, [])
            self.assertAlmostEqual(layers["trace_overhead_frac"], 0.1)

    def test_differing_count_is_a_problem(self):
        summary = self.traced_cycle("walk").summary()
        other = dict(summary, **{"evolution.config_steps": summary["evolution.config_steps"] + 1})
        reports = [{"summaries": [s], "plain_walls": [1.0], "traced_walls": [1.0]} for s in (summary, other)]
        _, problems = worker.aggregate("walk", reports)
        self.assertTrue(any("evolution.config_steps differs" in p for p in problems), problems)

    def test_unmeasured_required_metric_is_a_problem(self):
        summary = self.traced_cycle("walk").summary()
        layers = dict(summary, **tracer_mod.derived(summary))
        self.assertEqual(worker.layer_checks("walk", layers), [])
        layers["measurement.schedule_self_s"] = None
        self.assertIn(
            "measurement.schedule_self_s not measured on walk", worker.layer_checks("walk", layers)
        )


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for workload in ("walk", "halt-drift", "check"):
                one = make_cycle(workload, 11, Path(a))
                two = make_cycle(workload, 11, Path(b))
                self.assertEqual(
                    [[Path(x).name for x in j.argv] for j in one],
                    [[Path(x).name for x in j.argv] for j in two],
                )
            for path in Path(a).iterdir():
                self.assertEqual(path.read_text(), (Path(b) / path.name).read_text())

    def test_variant_renames_states_and_keeps_witnesses(self):
        spec = parse_machine((CORPUS / "seek_right_lifted.qtm").read_text())
        twin = variant(spec, Random(3))
        self.assertFalse(set(twin.states) & set(spec.states))
        for (state, _), targets in twin.rules.items():
            if state == twin.halt:
                self.assertEqual([t.amplitude for t in targets], [1])
        witnesses = len(check_wellformed(twin).witnesses)
        self.assertEqual(witnesses, len(check_wellformed(spec).witnesses))
        self.assertEqual(witnesses, 2673)

    def test_tail_percentile_leaves_ten_beyond(self):
        self.assertEqual(run.tail_percentile(40), 75)
        value, beyond = run.percentile(list(range(40)), 75)
        self.assertEqual((value, beyond), (29, 10))

if __name__ == "__main__":
    unittest.main()
