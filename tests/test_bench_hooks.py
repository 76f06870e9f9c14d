"""The benchmark's counting hooks and answer checks still see the program.

perfbench/tracer.py counts stepping work by rebinding ``step`` where the
qtmlab modules look it up and by reading the state it is given (``len``
and ``configurations()``), it reads ``experiments.halted_basis`` from
the report of ``analyze_halting_subspace``, and it counts the check
workload's witnesses on the reports of ``check_wellformed`` and
``lift_to_qtm``.  These properties otherwise show only in a traced
benchmark run; here they are checked on six small CLI jobs.  The benchmark's
answer checks (perfbench/answers.py) must fail a check job whose report
lost a witness.  Both files are imported read-only, and the benchmark's own
unit tests run in a subprocess.
"""

import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest
from conftest import MACHINES, ROOT

from qtmlab import cli

WALK = ROOT / "perfbench" / "machines" / "hadamard_walk.qtm"


def _perfbench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    module = _perfbench_module("tracer")
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr, None)
        for mod, attr, _ in module.SITES
    }
    t = module.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr, None) is fn


def test_walk_trace_counts_every_configuration_step(tracer, tmp_path, capsys):
    csv = tmp_path / "walk.csv"
    argv = ["trace", str(WALK), "--input", "0110", "--steps", "10", "--csv", str(csv)]
    assert cli.main(argv) == 0
    summary = tracer.summary()
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == 11
    assert summary["evolution.step_calls"] == 10
    assert summary["evolution.config_steps"] == sum(int(r[1]) for r in rows[:10])
    assert summary["evolution.halted_config_steps"] == 0


def _stepping_counts(summary):
    return [
        summary[f"evolution.{name}"]
        for name in ("step_calls", "config_steps", "halted_config_steps", "support_peak")
    ]


def test_halting_run_counts_halted_configuration_steps(tracer, capsys):
    machine = str(MACHINES / "seek_right_lifted.qtm")
    argv = ["run", machine, "--input", "1/sqrt(2):01 + 1/sqrt(2):1100", "--steps", "9"]
    assert cli.main(argv) == 0
    summary = tracer.summary()
    # both branches have halted by step 5; the 01 branch, halted at step 3,
    # is stepped at steps 4 and 5 as one halted configuration
    assert _stepping_counts(summary) == [5, 10, 2, 2]
    assert summary["measurement.records"] == 1


def test_halting_compare_counts_both_schedules(tracer, capsys):
    machine = str(MACHINES / "seek_right_lifted.qtm")
    argv = [
        "compare", machine, "--input", "1/sqrt(2):01 + 1/sqrt(2):1100", "--steps", "9",
        "--schedules", "every,end",
    ]
    assert cli.main(argv) == 0
    summary = tracer.summary()
    # every retires the halted branch at step 3, so only end steps it
    assert _stepping_counts(summary) == [10, 18, 2, 2]
    assert summary["measurement.records"] == 3


def test_subspace_reports_its_halted_basis(tracer, capsys):
    machine = str(MACHINES / "seek_right_lifted.qtm")
    argv = ["subspace", machine, "--input", "1/sqrt(2):01 + 1/sqrt(2):1100", "--steps", "8"]
    assert cli.main(argv) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    summary = tracer.summary()
    assert summary["experiments.halted_basis"] == result["haltedBasisCount"] > 0
    assert summary["experiments.subspace_self_s"] is not None


def test_refused_lift_counts_its_injectivity_witnesses(tracer, capsys):
    argv = ["lift", str(MACHINES / "collide.tm"), "--max-witnesses", "3"]
    assert cli.main(argv) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    summary = tracer.summary()
    assert summary["classical.injectivity_witnesses"] == result["witnessTotal"] == 2673
    assert summary["classical.lift_self_s"] is not None


def test_check_counts_its_witnesses(tracer, capsys):
    argv = ["check", str(MACHINES / "hadamard_halt_naive.qtm"), "--max-witnesses", "3"]
    assert cli.main(argv) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    summary = tracer.summary()
    assert summary["wellformed.check_calls"] == 1
    assert summary["wellformed.witnesses"] == result["witnessTotal"] == 10692
    assert summary["wellformed.materialize_s"] is not None


def test_answer_check_flags_a_dropped_witness(monkeypatch, capsys):
    answers = _perfbench_module("answers")
    argv = ["check", str(MACHINES / "seek_right_lifted.qtm"), "--max-witnesses", "3"]
    job = SimpleNamespace(
        kind="check", argv=tuple(argv),
        expect={"exit": 2, "witnessTotal": 2673, "coreWitnessCount": 0},
    )
    assert cli.main(argv) == 2
    reason, answer = answers.check_answer(job, 2, capsys.readouterr().out)
    assert reason is None and answer["witnessTotal"] == 2673
    original = cli.check_wellformed

    def drops_one(spec, tol):
        report = original(spec, tol)
        return dataclasses.replace(report, witnesses=report.witnesses[:-1])

    monkeypatch.setattr(cli, "check_wellformed", drops_one)
    assert cli.main(argv) == 2
    reason, _ = answers.check_answer(job, 2, capsys.readouterr().out)
    assert reason == "witnessTotal is 2672, expected 2673"


def test_benchmark_unit_tests_pass():
    # a change to a hook point can pass every test above and still fail the
    # benchmark's own unit tests, so those run here too
    p = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert p.returncode == 0, p.stderr[-4000:]
