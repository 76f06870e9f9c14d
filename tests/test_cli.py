"""End-to-end command line tests; goldens are byte-exact stdout captures."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import pins
from conftest import MACHINES, ROOT
from test_evolution import DRIFT_COLLISION
from pins import (
    CORPUS_OUTPUT_SHA256,
    ERROR_PINS,
    LONG_SUBSPACE_ARGV,
    LONG_SUBSPACE_SHA256,
    PRUNED_MACHINES,
    STEPPING_COMMANDS,
    STEPPING_OUTPUT_SHA256,
    TRUNCATED_OUTPUT_SHA256,
)
from qtmlab import cli, parse_classical, tape_cells, wellformed

CHECK_RIGHT_SHIFT = """\
{
  "tool": "qtmlab",
  "version": "0.1.0",
  "machine": "machines/right_shift.qtm",
  "parameters": {
    "command": "check",
    "tol": 1e-09,
    "maxWitnesses": 100
  },
  "result": {
    "verdict": "well_formed",
    "byConstruction": [
      "rules depend only on (state, symbol under head), not on head position",
      "each transition writes exactly one cell, the one under the head",
      "head moves are restricted to L, N, R (at most one cell)",
      "the halt flag of a configuration is derived from its internal state"
    ],
    "structureViolations": [],
    "normViolations": [],
    "missingRuleKeys": [],
    "witnessTotal": 0,
    "coreWitnessCount": 0,
    "driftWitnessCount": 0,
    "witnessesTruncated": false,
    "orthogonalityWitnesses": [],
    "coreWellFormed": true
  }
}
"""

RUN_HADAMARD = """\
{
  "tool": "qtmlab",
  "version": "0.1.0",
  "machine": "machines/hadamard_halt.qtm",
  "parameters": {
    "command": "run",
    "input": "0",
    "steps": 5,
    "schedule": "end",
    "tol": 1e-09
  },
  "result": {
    "schedule": "end:5",
    "steps": 5,
    "outcomes": [
      {
        "haltStep": 5,
        "tape": {
          "text": "0",
          "origin": 0
        },
        "probability": 0.5
      },
      {
        "haltStep": 5,
        "tape": {
          "text": "1",
          "origin": 0
        },
        "probability": 0.5
      }
    ],
    "unhalted": 0.0,
    "maxNormDrift": 2.220446049250313e-16,
    "normFlag": false
  }
}
"""

SAMPLE_HADAMARD = """\
{
  "tool": "qtmlab",
  "version": "0.1.0",
  "machine": "machines/hadamard_halt.qtm",
  "parameters": {
    "command": "sample",
    "input": "0",
    "steps": 5,
    "schedule": "end",
    "seed": 42,
    "samples": 100
  },
  "result": {
    "schedule": "end:5",
    "steps": 5,
    "seed": 42,
    "samples": 100,
    "counts": [
      {
        "count": 50,
        "frequency": 0.5,
        "outcome": "halted",
        "haltStep": 5,
        "tape": {
          "text": "0",
          "origin": 0
        },
        "probability": 0.5
      },
      {
        "count": 50,
        "frequency": 0.5,
        "outcome": "halted",
        "haltStep": 5,
        "tape": {
          "text": "1",
          "origin": 0
        },
        "probability": 0.5
      }
    ]
  }
}
"""

TRACE_CSV = (
    "step,support,norm2,halted_mass\n"
    "0,1,1.0,0.0\n"
    "1,2,0.9999999999999998,0.9999999999999998\n"
    "2,2,0.9999999999999998,0.9999999999999998\n"
    "3,2,0.9999999999999998,0.9999999999999998\n"
)

MYERS_WINDOW = """\
{
  "tool": "qtmlab",
  "version": "0.1.0",
  "machine": "machines/seek_right_lifted.qtm",
  "parameters": {
    "command": "myers",
    "inputA": "0",
    "inputB": "0000",
    "steps": 8,
    "tol": 1e-09
  },
  "result": {
    "inputA": "0",
    "inputB": "0000",
    "steps": 8,
    "haltStepA": 2,
    "haltStepB": 5,
    "perStep": [
      [
        0,
        0.0
      ],
      [
        1,
        0.0
      ],
      [
        2,
        0.5
      ],
      [
        3,
        0.5
      ],
      [
        4,
        0.5
      ],
      [
        5,
        1.0
      ],
      [
        6,
        1.0
      ],
      [
        7,
        1.0
      ],
      [
        8,
        1.0
      ]
    ],
    "window": [
      2,
      4
    ],
    "windowMasses": [
      0.5,
      0.5,
      0.5
    ]
  }
}
"""

SUBSPACE_GAP = """\
{
  "tool": "qtmlab",
  "version": "0.1.0",
  "machine": "machines/hadamard_halt.qtm",
  "parameters": {
    "command": "subspace",
    "input": "0",
    "steps": 3,
    "tol": 1e-09
  },
  "result": {
    "windowSteps": 3,
    "haltedBasisCount": 6,
    "newlyHaltingVectors": 1,
    "newlyHalting": [
      {
        "halted": false,
        "state": "q0",
        "head": 0,
        "tape": {
          "text": "0",
          "origin": 0
        }
      }
    ],
    "gramDeviation": 0.0,
    "maxOverlapWithUV": 0.0,
    "maxResidual": 0.9999999999999999,
    "verdict": "gap_found"
  }
}
"""


CANCELLING_MACHINE = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 0 -> 1 : q1 0 R
rule: q0 1 -> -1 : q1 0 R
rule: q1 * -> 1 : qH * R
rule: qH * -> 1 : qH * R
"""

# every running row doubles the amplitude: the squared norm is 4**t, which
# overflows a double at step 512
GROWING_MACHINE = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> 2 : q0 0 R
rule: q0 _ -> 2 : q0 _ R
rule: qH * -> 1 : qH * R
"""

# a row of squared norm 1/2 and a halt-state row that rewrites its symbol
STRUCTURE_VIOLATING_MACHINE = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 0 -> 1/2 : qH 0 R | 1/2 : qH 1 R
rule: qH 0 -> 1 : qH 1 R
"""

# a row of squared norm 1.01, whose sum in rule order and in the order of
# its image's configurations are different floats
THREE_TARGET_MACHINE = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> 3/5 : q1 0 R | 4/5 : q0 _ R | 1/10 : q0 0 R
rule: q1 * -> 1 : qH * R
rule: q0 _ -> 1 : qH _ R
rule: qH * -> 1 : qH * R
"""


# on tape 0 half the amplitude halts at step 1 and the other half, after
# one step in place, at step 2, on the same tape
TWICE_HALTING_MACHINE = """\
qtm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> 1/sqrt(2) : qH 0 R | 1/sqrt(2) : q1 0 N
rule: q1 0 -> 1 : qH 0 R
rule: qH * -> 1 : qH * R
"""

# a branch of amplitude 1e-6, above the default tol but with a squared norm
# below it, halts from q0 reading 0
FAINT_HALT_MACHINE = """\
qtm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 1 _
rule: q0 0 -> 1/1000000 : qH 0 R | 999999999999/1000000000000 : q0 1 R
rule: q0 1 -> 1 : q0 1 R
rule: q0 _ -> 1 : qH _ R
rule: qH * -> 1 : qH * R
"""

# all but a 1e-12 share of the squared norm halts at step 1; the rest runs on
NEARLY_HALTING_MACHINE = """\
qtm-spec v1
states: q0 q2 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> 999999999999/1000000000000 : qH 0 R | 1/1000000 : q2 0 R
rule: q2 _ -> 1 : q2 _ R
rule: qH * -> 1 : qH * R
"""


# not reversible: both keys of q0 write 0 and move L into the halt state
COLLIDE_LEFT_MACHINE = """\
tm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> qH 0 L
rule: q0 _ -> qH 0 L
"""

# not reversible: both keys of q0 erase their cell and move R into the halt
# state, so the shared successor's tape is empty
COLLIDE_ERASE_MACHINE = """\
tm-spec v1
states: q0 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> qH _ R
rule: q0 _ -> qH _ R
"""

# not reversible: both keys of q0 write 0 and stay, into the running state q1
COLLIDE_RUNNING_MACHINE = """\
tm-spec v1
states: q0 q1 qH
initial: q0
halt: qH
alphabet: 0 _
rule: q0 0 -> q1 0 N
rule: q0 _ -> q1 0 N
rule: q1 * -> q1 * R
"""


def qtmlab(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "qtmlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=None if env is None else {**os.environ, **env},
        timeout=timeout,
    )


class TestGoldens:
    def test_check_well_formed(self):
        p = qtmlab("check", "machines/right_shift.qtm")
        assert p.returncode == 0
        assert p.stdout == CHECK_RIGHT_SHIFT

    def test_package_runs_as_module(self):
        p = subprocess.run(
            [sys.executable, "-m", "qtmlab", "check", "machines/right_shift.qtm"],
            capture_output=True,
            text=True,
            cwd=str(ROOT),
        )
        assert p.returncode == 0
        assert p.stdout == CHECK_RIGHT_SHIFT

    def test_run_end_schedule(self):
        p = qtmlab("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "5")
        assert p.returncode == 0
        assert p.stdout == RUN_HADAMARD

    def test_run_every_over_a_huge_budget(self):
        def result(steps):
            p = qtmlab(
                "run", "machines/hadamard_halt.qtm", "--input", "0",
                "--steps", steps, "--schedule", "every",
            )
            assert p.returncode == 0
            out = json.loads(p.stdout)["result"]
            return out["outcomes"], out["unhalted"]

        assert result("1000000000000") == result("5")

    def test_sample_seeded(self):
        p = qtmlab(
            "sample", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "5", "--seed", "42", "--samples", "100",
        )
        assert p.returncode == 0
        assert p.stdout == SAMPLE_HADAMARD

    def test_trace_csv(self):
        p = qtmlab("trace", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3")
        assert p.returncode == 0
        assert p.stdout == TRACE_CSV

    def test_myers_window(self):
        p = qtmlab(
            "myers", "machines/seek_right_lifted.qtm",
            "--input-a", "0", "--input-b", "0000", "--steps", "8",
        )
        assert p.returncode == 0
        assert p.stdout == MYERS_WINDOW

    def test_subspace_gap(self):
        p = qtmlab("subspace", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3")
        assert p.returncode == 2
        assert p.stdout == SUBSPACE_GAP

    def test_sample_is_reproducible_byte_for_byte(self):
        args = (
            "sample", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "5", "--seed", "7", "--samples", "500",
        )
        assert qtmlab(*args).stdout == qtmlab(*args).stdout


class TestCheckViolation:
    def test_naive_machine_fields(self):
        p = qtmlab("check", "machines/hadamard_halt_naive.qtm")
        assert p.returncode == 2
        result = json.loads(p.stdout)["result"]
        assert result["verdict"] == "violation"
        assert result["witnessTotal"] == 10692
        assert result["coreWitnessCount"] == 2673
        assert result["driftWitnessCount"] == 8019
        assert result["witnessesTruncated"] is True
        assert len(result["orthogonalityWitnesses"]) == 100
        assert result["coreWellFormed"] is False
        assert result["missingRuleKeys"] == [{"state": "q0", "symbol": "_"}]
        assert result["orthogonalityWitnesses"][0] == {
            "c1": {
                "halted": False,
                "state": "q0",
                "head": 0,
                "tape": {"text": "000000", "origin": -5},
            },
            "c2": {
                "halted": False,
                "state": "q0",
                "head": 0,
                "tape": {"text": "000001", "origin": -5},
            },
            "inner": {"re": 0.7071067811865475, "im": -0.0},
            "driftCollision": False,
        }

    def test_witness_cap_flag(self):
        p = qtmlab("check", "machines/hadamard_halt_naive.qtm", "--max-witnesses", "3")
        result = json.loads(p.stdout)["result"]
        assert len(result["orthogonalityWitnesses"]) == 3
        assert result["witnessTotal"] == 10692
        assert result["witnessesTruncated"] is True

    def test_structure_violations_fields(self, tmp_path, capsys):
        machine = tmp_path / "bad.qtm"
        machine.write_text(STRUCTURE_VIOLATING_MACHINE)
        code = cli.main(["check", str(machine), "--max-witnesses", "0"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 2
        assert result["structureViolations"] == [
            {"kind": "row_norm", "state": "q0", "symbol": "0",
             "detail": "squared row norm 0.5"},
            {"kind": "halt_rule", "state": "qH", "symbol": "0",
             "detail": "halt-state rule must have a single amplitude-1 target "
                       "that stays halted and rewrites the symbol it read"},
        ]
        assert [list(v) for v in result["structureViolations"]] == [
            ["kind", "state", "symbol", "detail"]] * 2
        assert result["coreWellFormed"] is False

    def test_both_norm_reports_read_one_number(self, tmp_path, capsys):
        machine = tmp_path / "three.qtm"
        machine.write_text(THREE_TARGET_MACHINE)
        assert cli.main(["check", str(machine), "--max-witnesses", "0"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["structureViolations"] == [
            {"kind": "row_norm", "state": "q0", "symbol": "0",
             "detail": "squared row norm 1.01"},
        ]
        assert result["normViolations"] == [{"state": "q0", "symbol": "0", "norm2": 1.01}]
        assert result["coreWellFormed"] is False


class TestCompare:
    def test_equivalent_schedules(self):
        p = qtmlab(
            "compare", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "6", "--schedules", "every,end",
        )
        assert p.returncode == 0
        result = json.loads(p.stdout)["result"]
        assert result["equivalent"] is True
        assert result["tvDistance"] == 0.0
        assert result["scheduleA"] == "every"
        assert result["scheduleB"] == "end:6"

    def test_schedule_split_tries_every_comma(self):
        p = qtmlab(
            "compare", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "6", "--schedules", "at:1,3,6,end:6",
        )
        assert p.returncode == 0
        result = json.loads(p.stdout)["result"]
        assert result["scheduleA"] == "at:1,3,6"
        assert result["scheduleB"] == "end:6"

    def test_step_beyond_budget_is_reported_not_the_split(self):
        p = qtmlab(
            "compare", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "3", "--schedules", "at:1,9,end",
        )
        assert p.returncode == 1
        assert "schedule step 9 exceeds budget 3" in p.stderr

    def test_tv_distance_does_not_follow_the_hash_seed(self):
        # six final tapes whose |p_a - p_b| sum rounds differently by order
        args = (
            "compare", "machines/seek_right_lifted.qtm", "--input",
            "1/sqrt(6):0 + -1/sqrt(6):01010 + 1/sqrt(6):000010"
            " + -1/sqrt(6):10100 + -1/sqrt(6):000011 + 1/sqrt(6):0001",
            "--steps", "9", "--schedules", "at:1,3,every",
        )
        outs = {qtmlab(*args, env={"PYTHONHASHSEED": seed}).stdout for seed in "047"}
        assert len(outs) == 1
        assert json.loads(outs.pop())["result"]["tvDistance"] == 0.8333333333333333

    def test_mass_halting_at_two_steps_on_one_tape_is_added(self, tmp_path, capsys):
        machine = tmp_path / "twice.qtm"
        machine.write_text(TWICE_HALTING_MACHINE)
        argv = ["compare", str(machine), "--input", "0", "--steps", "3",
                "--schedules", "every,end"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        whole = [
            {"outcome": "halted", "tape": {"text": "0", "origin": 0}, "probability": 1.0},
            {"outcome": "unhalted", "probability": 0.0},
        ]
        assert result["coarsenedA"] == result["coarsenedB"] == whole
        assert result["tvDistance"] == 0.0
        assert result["equivalent"] is True

    def test_max_abs_diff_counts_the_unhalted_difference(self, capsys):
        # at:2 sees one branch halt and leaves the two longer ones unhalted
        argv = ["compare", str(MACHINES / "seek_right_lifted.qtm"), "--input",
                "1/sqrt(3):0 + 1/sqrt(3):00000 + 1/sqrt(3):000000",
                "--steps", "9", "--schedules", "at:2,end"]
        assert cli.main(argv) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["coarsenedA"][-1] == {"outcome": "unhalted", "probability": 0.6666666666666666}
        assert result["maxAbsDiff"] == 0.6666666666666666

    def test_norm_breaking_machine_flagged(self):
        p = qtmlab(
            "compare", "machines/hadamard_halt_naive.qtm",
            "--input", "1/sqrt(2):0 + 1/sqrt(2):1",
            "--steps", "6", "--schedules", "every,end",
        )
        assert p.returncode == 2
        result = json.loads(p.stdout)["result"]
        assert result["tvDistance"] == 0.0
        assert result["maxNormDrift"] == 0.7071067811865475
        assert result["normFlag"] is True
        assert result["equivalent"] is False


class TestDriftCollision:
    """A core-well-formed machine need not keep a run's norm: on
    ``DRIFT_COLLISION`` a newly halting branch lands on a drifting one at
    step 2, unless ``every`` has retired the drifting one at step 1."""

    PLUS = "1/sqrt(2):0 + 1/sqrt(2):1"
    MINUS = "1/sqrt(2):0 + -1/sqrt(2):1"

    @pytest.fixture
    def machine(self, tmp_path):
        path = tmp_path / "collide.qtm"
        path.write_text(DRIFT_COLLISION)
        return str(path)

    def test_check_finds_only_drift_witnesses(self, machine, capsys):
        assert cli.main(["check", machine]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["coreWellFormed"] is True
        assert (result["coreWitnessCount"], result["driftWitnessCount"]) == (0, 5346)

    def test_in_phase_branches_double_the_norm(self, machine, capsys):
        assert cli.main(["run", machine, "--input", self.PLUS, "--steps", "3"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["maxNormDrift"] == 0.9999999999999996
        assert result["normFlag"] is True
        argv = ["compare", machine, "--input", self.PLUS, "--steps", "3",
                "--schedules", "every,end"]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_opposite_branches_cancel(self, machine, capsys, command):
        assert cli.main([command, machine, "--input", self.MINUS, "--steps", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qtmlab: error: cancellation removed all amplitude at step 2\n"

    @pytest.mark.parametrize("text", [PLUS, MINUS], ids=["plus", "minus"])
    def test_every_step_retires_each_halted_branch(self, machine, capsys, text):
        argv = ["run", machine, "--input", text, "--steps", "3", "--schedule", "every"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        tape = {"text": "0", "origin": 0}
        assert result["outcomes"] == [
            {"haltStep": 1, "tape": tape, "probability": 0.5},
            {"haltStep": 2, "tape": tape, "probability": 0.5},
        ]
        assert result["maxNormDrift"] == 2.220446049250313e-16
        assert result["normFlag"] is False


class TestToleranceEdges:
    """``tol`` bounds an amplitude's modulus in ``subspace`` and a share of
    the squared norm in ``myers``."""

    def test_subspace_counts_a_branch_whose_modulus_exceeds_tol(self, tmp_path, capsys):
        machine = tmp_path / "faint.qtm"
        machine.write_text(FAINT_HALT_MACHINE)
        assert cli.main(["subspace", str(machine), "--input", "0", "--steps", "3"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        # q0 at 0 reading 0 halts with amplitude 1e-6, squared 1e-12 < tol
        assert result["newlyHaltingVectors"] == 2
        assert [c["head"] for c in result["newlyHalting"]] == [0, 1]

    def test_myers_halts_within_tol_of_one(self, tmp_path, capsys):
        machine = tmp_path / "almost.qtm"
        machine.write_text(NEARLY_HALTING_MACHINE)
        argv = ["myers", str(machine), "--input-a", "0", "--input-b", "0", "--steps", "3"]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["perStep"][1] == [1, 0.999999999999]
        assert result["haltStepA"] == result["haltStepB"] == 1


class TestHaltedRunStops:
    """Once every branch has halted and only drifts, no schedule steps on:
    a 20-digit budget answers as a small one does."""

    @pytest.mark.parametrize(
        "command, option, code",
        [
            ("run", ("--schedule", "end:1"), 0),
            ("sample", ("--schedule", "end:1", "--seed", "1"), 0),
            # end:1 reads the flag before the branch halts at step 3
            ("compare", ("--schedules", "end:1,end"), 2),
        ],
    )
    def test_huge_budget_returns_the_small_budget_answer(self, command, option, code):
        def result(steps):
            p = qtmlab(
                command, "machines/seek_right_lifted.qtm", "--input", "01",
                "--steps", steps, *option, timeout=60,
            )
            assert p.returncode == code, p.stderr
            return json.loads(p.stdout)["result"]

        huge, small = result("99999999999999999999"), result("999")
        assert huge.pop("steps") == 99999999999999999999
        assert small.pop("steps") == 999
        if command == "compare":  # bare end names the budget
            assert (huge.pop("scheduleB"), small.pop("scheduleB")) == (
                "end:99999999999999999999", "end:999",
            )
            for side in ("coarsenedA", "coarsenedB"):
                assert huge[side] == small[side]
        assert huge == small


class TestLift:
    def test_stdout_matches_shipped_file(self):
        p = qtmlab("lift", "machines/seek_right.tm")
        assert p.returncode == 0
        assert p.stdout == (MACHINES / "seek_right_lifted.qtm").read_text()

    def test_output_file(self, tmp_path):
        out = tmp_path / "lifted.qtm"
        p = qtmlab("lift", "machines/seek_right.tm", "-o", str(out))
        assert p.returncode == 0
        assert p.stdout == ""
        assert out.read_text() == (MACHINES / "seek_right_lifted.qtm").read_text()

    def test_refuses_irreversible_machine(self):
        p = qtmlab("lift", "machines/collide.tm")
        assert p.returncode == 2
        result = json.loads(p.stdout)["result"]
        assert result["reversible"] is False
        assert result["witnessTotal"] == 2673
        assert result["witnessesTruncated"] is True
        assert len(result["witnesses"]) == 100
        first = result["witnesses"][0]
        assert first["c1"]["tape"] == {"text": "000000", "origin": -5}
        assert first["c2"]["tape"] == {"text": "000001", "origin": -5}
        assert first["image"]["state"] == "qH"

    @pytest.mark.parametrize(
        "text",
        [
            (MACHINES / "collide.tm").read_text(),
            COLLIDE_LEFT_MACHINE,
            COLLIDE_RUNNING_MACHINE,
            COLLIDE_ERASE_MACHINE,
        ],
        ids=["collide", "left", "running", "erase"],
    )
    def test_image_is_the_shared_successor(self, tmp_path, capsys, text):
        # every shown witness's image is the one-step image of c1 and of c2
        # by the raw-dict oracle
        path = tmp_path / "machine.tm"
        path.write_text(text)
        code = cli.main(["lift", str(path), "--max-witnesses", "100000"])
        result = json.loads(capsys.readouterr().out)["result"]
        image = oracles.make_imager(parse_classical(text))

        def key(doc):
            return (doc["halted"], doc["state"], doc["head"], tape_cells(**doc["tape"]))

        assert code == 2
        assert not result["witnessesTruncated"]
        for w in result["witnesses"]:
            assert image(key(w["c1"])) == image(key(w["c2"])) == {key(w["image"]): 1}

    def test_refuses_a_state_name_the_rule_grammar_splits(self, tmp_path):
        # lifted, "q|0" would be a .qtm file that parse_machine refuses
        source = tmp_path / "pipe.tm"
        source.write_text((MACHINES / "flip_bits.tm").read_text().replace("q0", "q|0"))
        out = tmp_path / "pipe.qtm"
        p = qtmlab("lift", str(source), "-o", str(out))
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr.startswith("qtmlab: error: ")
        assert not out.exists()


class TestOutputFiles:
    def test_json_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        p = qtmlab(
            "run", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "5", "--json", str(out),
        )
        assert p.returncode == 0
        assert p.stdout == ""
        assert out.read_text() == RUN_HADAMARD

    def test_csv_flag_writes_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        p = qtmlab(
            "trace", "machines/hadamard_halt.qtm", "--input", "0",
            "--steps", "3", "--csv", str(out),
        )
        assert p.returncode == 0
        assert p.stdout == ""
        assert out.read_text() == TRACE_CSV


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "machines/does_not_exist.qtm"),
            ("run", "machines/hadamard_halt.qtm", "--input", "2", "--steps", "3"),
            ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--schedule", "sometimes"),
            ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--schedule", "at:9"),
            ("frobnicate",),
            (),
            ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--tol", "nan"),
            ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--tol", "-0.001"),
            ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--prune", "nan"),
            ("compare", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--schedules", "every,end", "--prune", "-0.5"),
            ("trace", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
             "--prune", "inf"),
            ("check", "machines/hadamard_halt.qtm", "--tol", "inf"),
            ("run", "machines/hadamard_halt.qtm", "--steps", "2",
             "--input", "1" + "0" * 400 + "e0:0"),
            *(
                ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
                 "--schedule", schedule)
                for schedule in ("at:1_0", "at:+3", "at:\u0663", "end:0_3")
            ),
            ("run", "machines/hadamard_halt.qtm", "--input", "1:0 +", "--steps", "3"),
            ("run", "machines/hadamard_halt.qtm", "--steps", "3",
             "--input", "1/sqrt(2):0 ++ 1/sqrt(2):1"),
            ("run", "machines/hadamard_halt.qtm", "--steps", "2", "--input", "9" * 200 + ":0"),
        ],
    )
    def test_usage_and_runtime_errors_exit_one(self, args):
        p = qtmlab(*args)
        assert p.returncode == 1
        assert p.stdout == ""
        assert "error" in p.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "machines/hadamard_halt.qtm"),
            ("lift", "machines/collide.tm"),
        ],
    )
    def test_negative_witness_cap_rejected(self, args):
        p = qtmlab(*args, "--max-witnesses", "-1")
        assert p.returncode == 1
        assert p.stdout == ""
        assert "qtmlab: error: argument --max-witnesses" in p.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("run", "--input", "0", "--steps", "-1"), "--steps"),
            (("sample", "--input", "0", "--steps", "-1", "--seed", "1"), "--steps"),
            (("compare", "--input", "0", "--steps", "-1", "--schedules", "every,end"),
             "--steps"),
            (("trace", "--input", "0", "--steps", "-1"), "--steps"),
            (("myers", "--input-a", "0", "--input-b", "1", "--steps", "-1"), "--steps"),
            (("subspace", "--input", "0", "--steps", "-1"), "--steps"),
            (("sample", "--input", "0", "--steps", "3", "--seed", "1", "--samples", "-1"),
             "--samples"),
        ],
        ids=["run", "sample", "compare", "trace", "myers", "subspace", "sample-samples"],
    )
    def test_negative_count_rejected(self, args, flag):
        p = qtmlab(args[0], "machines/hadamard_halt.qtm", *args[1:])
        assert p.returncode == 1
        assert p.stdout == ""
        assert f"argument {flag}: must be finite and >= 0" in p.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("run",),
            ("compare", "--schedules", "every,end"),
            ("sample", "--samples", "5", "--seed", "1"),
            ("trace",),
        ],
    )
    def test_state_emptied_by_pruning_is_an_error(self, args):
        p = qtmlab(
            args[0], "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3",
            "--prune", "0.8", *args[1:],
        )
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr == (
            "qtmlab: error: pruning below 0.8 removed all amplitude at step 1\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("myers", "--input-a", "0", "--input-b", "1"),
            ("subspace", "--input", "1/sqrt(2):0 + 1/sqrt(2):1"),
            ("trace", "--input", "1/sqrt(2):0 + 1/sqrt(2):1"),
            ("run", "--input", "1/sqrt(2):0 + 1/sqrt(2):1"),
        ],
        ids=lambda args: args[0],
    )
    def test_state_emptied_by_cancellation_is_an_error(self, tmp_path, args):
        # the two input branches meet in one configuration with opposite signs
        machine = tmp_path / "cancel.qtm"
        machine.write_text(CANCELLING_MACHINE)
        p = qtmlab(args[0], str(machine), *args[1:], "--steps", "3")
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr == (
            "qtmlab: error: cancellation removed all amplitude at step 1\n"
        )

    @pytest.mark.parametrize("steps", ["600", "1100"])
    @pytest.mark.parametrize(
        "args",
        [("run", "--schedule", "every"), ("compare", "--schedules", "every,end"), ("trace",)],
        ids=lambda args: args[0],
    )
    def test_overflowing_norm_is_an_error(self, tmp_path, args, steps):
        machine = tmp_path / "grow.qtm"
        machine.write_text(GROWING_MACHINE)
        p = qtmlab(args[0], str(machine), "--input", "0", "--steps", steps, *args[1:])
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr == "qtmlab: error: squared norm overflowed at step 512\n"

    def test_rule_amplitude_whose_square_overflows_is_an_error(self, tmp_path):
        machine = tmp_path / "big.qtm"
        machine.write_text(GROWING_MACHINE.replace("-> 2 :", f"-> {'9' * 200} :"))
        p = qtmlab("check", str(machine))
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr.startswith("qtmlab: error: bad amplitude: number too large")

    @pytest.mark.parametrize("command", [("check",), ("run", "--input", "0", "--steps", "1")])
    def test_rule_row_whose_squared_norm_overflows_is_an_error(self, tmp_path, command):
        # each amplitude's square is finite, the row's squared norm is not
        big = "1" + "0" * 154
        machine = tmp_path / "wide.qtm"
        machine.write_text(
            GROWING_MACHINE.replace("-> 2 : q0 0 R", f"-> {big} : q0 0 R | {big} : q0 0 L"
                                    f" | {big} : qH 0 R")
        )
        p = qtmlab(command[0], str(machine), *command[1:])
        assert p.returncode == 1
        assert p.stdout == ""
        assert p.stderr == "qtmlab: error: squared norm of rule (q0, 0) overflows (line 6)\n"

    def test_result_that_is_not_json_is_an_error(self, tmp_path, monkeypatch, capsys):
        # a parsed machine gives no infinite field; one is stood in
        monkeypatch.setattr(cli, "core_well_formed", lambda report: math.inf)
        out = tmp_path / "out.json"
        for json_flag in ((), ("--json", str(out))):
            assert cli.main(["check", str(MACHINES / "right_shift.qtm"), *json_flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("qtmlab: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "subspace"])
    def test_zero_amplitude_input_term_changes_nothing(self, monkeypatch, capsys, command):
        # the zero term's configuration is not part of the state: subspace
        # counts no newly halting vector for it, trace no support
        monkeypatch.chdir(ROOT)
        outputs = []
        for text in ("1:0 + 0:1", "0"):
            argv = [command, "machines/hadamard_halt.qtm", "--input", text, "--steps", "1"]
            code = cli.main(argv)
            outputs.append((code, capsys.readouterr().out))
        if command == "subspace":  # the parameters echo differs
            outputs = [(code, json.loads(out)["result"]) for code, out in outputs]
        assert outputs[0] == outputs[1]

    def test_error_messages_are_prefixed(self):
        p = qtmlab("check", "machines/does_not_exist.qtm")
        assert p.stderr.startswith("qtmlab: error:")

    def test_version(self):
        p = qtmlab("--version")
        assert p.returncode == 0
        assert p.stdout == "qtmlab 0.1.0\n"


class TestCorpusOutputsFrozen:
    def test_every_corpus_machine_is_pinned(self):
        files = {p.name for p in MACHINES.glob("*.*tm")}
        assert {name for _, name in CORPUS_OUTPUT_SHA256} == files
        for cap in (None, 3):
            pinned = {name for _, name, c in TRUNCATED_OUTPUT_SHA256 if c == cap}
            assert pinned == files
        qtm_files = {name for name in files if name.endswith(".qtm")}
        for command in STEPPING_COMMANDS:
            pinned = {name for c, name in STEPPING_OUTPUT_SHA256 if c == command}
            assert pinned == qtm_files

    @pytest.mark.parametrize("command, name", sorted(CORPUS_OUTPUT_SHA256))
    def test_output_is_byte_identical(self, command, name):
        # every witness is shown, so the whole report is pinned
        p = qtmlab(command, f"machines/{name}", "--max-witnesses", "100000")
        digest = hashlib.sha256(p.stdout.encode("utf-8")).hexdigest()
        assert (p.returncode, digest) == CORPUS_OUTPUT_SHA256[command, name]

    @pytest.mark.parametrize(
        "command, name, cap", sorted(TRUNCATED_OUTPUT_SHA256, key=str)
    )
    def test_truncated_output_is_byte_identical(self, command, name, cap):
        flags = () if cap is None else ("--max-witnesses", str(cap))
        p = qtmlab(command, f"machines/{name}", *flags)
        digest = hashlib.sha256(p.stdout.encode("utf-8")).hexdigest()
        assert (p.returncode, digest) == TRUNCATED_OUTPUT_SHA256[command, name, cap]

    @pytest.mark.parametrize("command, name", sorted(STEPPING_OUTPUT_SHA256))
    def test_stepping_output_is_byte_identical(
        self, monkeypatch, capsys, command, name
    ):
        # in-process; the JSON envelope echoes the machine path, so run from
        # the repository root with the same relative path as the recording
        monkeypatch.chdir(ROOT)
        argv = STEPPING_COMMANDS[command]
        code = cli.main([argv[0], f"machines/{name}", *argv[1:]])
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == STEPPING_OUTPUT_SHA256[command, name]

    def test_long_subspace_output_is_byte_identical(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code = cli.main(list(LONG_SUBSPACE_ARGV))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == LONG_SUBSPACE_SHA256

    @pytest.mark.parametrize("argv", sorted(ERROR_PINS))
    def test_error_output_is_pinned(self, argv):
        code, stderr = ERROR_PINS[argv]
        p = qtmlab(*argv)
        assert (p.returncode, p.stdout, p.stderr) == (code, "", stderr)
        assert pins.run(argv) == (code, "", stderr)

    def test_pin_runner_replays_every_parametrized_case(self):
        # one case per parametrized pin test, and the long subspace pin
        parametrized = 1 + sum(
            len(test.pytestmark[0].args[1])
            for test in (
                self.test_output_is_byte_identical,
                self.test_truncated_output_is_byte_identical,
                self.test_stepping_output_is_byte_identical,
            )
        )
        cases = list(pins.cases())
        assert len(cases) == parametrized == 91
        assert len({label for label, _, _ in cases}) == len(cases)
        # the in-process replay reads the bytes the subprocess pins read
        label, argv, pinned = cases[0]
        assert pins.replay(argv) == pinned

    @pytest.mark.parametrize("command", ["run-prune", "trace-prune"])
    @pytest.mark.parametrize("name", PRUNED_MACHINES)
    def test_pruned_pins_are_pruned(self, monkeypatch, capsys, command, name):
        # the same command without --prune gives other bytes, so the pin
        # covers states that pruning thinned but did not empty
        monkeypatch.chdir(ROOT)
        argv = STEPPING_COMMANDS[command]
        assert argv[-2:] == ("--prune", "0.5")
        code = cli.main([argv[0], f"machines/{name}", *argv[1:-2]])
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert code == 0
        assert digest != STEPPING_OUTPUT_SHA256[command, name][1]


class TestWitnessesAreLazy:
    """Only the witnesses a report shows compute their image data."""

    @pytest.mark.parametrize(
        "module, attr, command, name, listed",
        [
            (wellformed, "pair_image_inner", "check", "hadamard_halt_naive.qtm",
             "orthogonalityWitnesses"),
            (cli, "basis_image", "lift", "collide.tm", "witnesses"),
        ],
        ids=["check", "lift"],
    )
    def test_shown_witnesses_only(
        self, monkeypatch, capsys, module, attr, command, name, listed
    ):
        original = getattr(module, attr)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, attr, counting)
        code = cli.main([command, str(MACHINES / name), "--max-witnesses", "3"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 2
        assert result["witnessTotal"] > 3
        assert len(result[listed]) == 3
        assert len(calls) == 3


# vars(build_parser().parse_args(argv)) without func, for a minimal argv of
# every subcommand: the dests, their defaults and their order.  The order is
# the one the parameters echo follows.
PARSED_SURFACE = [
    (("check", "m"),
     [("command", "check"), ("machine", "m"), ("tol", 1e-09),
      ("max_witnesses", 100), ("json", None)]),
    (("run", "m", "--input", "0", "--steps", "3"),
     [("command", "run"), ("machine", "m"), ("input", "0"), ("steps", 3),
      ("schedule", "end"), ("prune", 0.0), ("tol", 1e-09), ("json", None)]),
    (("sample", "m", "--input", "0", "--steps", "3", "--seed", "1"),
     [("command", "sample"), ("machine", "m"), ("input", "0"), ("steps", 3),
      ("schedule", "end"), ("seed", 1), ("samples", 1000), ("prune", 0.0),
      ("json", None)]),
    (("compare", "m", "--input", "0", "--steps", "3", "--schedules", "every,end"),
     [("command", "compare"), ("machine", "m"), ("input", "0"), ("steps", 3),
      ("schedules", "every,end"), ("prune", 0.0), ("tol", 1e-09),
      ("json", None)]),
    (("trace", "m", "--input", "0", "--steps", "3"),
     [("command", "trace"), ("machine", "m"), ("input", "0"), ("steps", 3),
      ("prune", 0.0), ("csv", None)]),
    (("lift", "m"),
     [("command", "lift"), ("machine", "m"), ("output", None),
      ("max_witnesses", 100), ("json", None)]),
    (("myers", "m", "--input-a", "0", "--input-b", "1", "--steps", "3"),
     [("command", "myers"), ("machine", "m"), ("input_a", "0"), ("input_b", "1"),
      ("steps", 3), ("tol", 1e-09), ("json", None)]),
    (("subspace", "m", "--input", "0", "--steps", "3"),
     [("command", "subspace"), ("machine", "m"), ("input", "0"), ("steps", 3),
      ("tol", 1e-09), ("json", None)]),
]


class TestParserSurface:
    @pytest.mark.parametrize(
        "argv, expected", PARSED_SURFACE, ids=[a[0] for a, _ in PARSED_SURFACE]
    )
    def test_dests_defaults_and_order(self, argv, expected):
        ns = cli.build_parser().parse_args(list(argv))
        assert callable(ns.func)
        assert [(k, v) for k, v in vars(ns).items() if k != "func"] == expected
        assert [type(v) for _, v in expected] == [
            type(v) for k, v in vars(ns).items() if k != "func"
        ]

    def test_every_command_is_pinned(self):
        sub = next(
            a for a in cli.build_parser()._actions if a.dest == "command"
        )
        assert sorted(sub.choices) == sorted(a[0] for a, _ in PARSED_SURFACE)


class TestParserPerProcess:
    """One parser serves every ``main`` call of a process, and no call's
    defaults, namespace or error leaks into the next."""

    RUN = ("run", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "5")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_do_not_leak_between_calls(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert cli.main([*self.RUN, "--schedule", "every"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["schedule"] == "every"
        assert cli.main(list(self.RUN)) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["parameters"]["schedule"] == "end"
        assert out == qtmlab(*self.RUN).stdout == RUN_HADAMARD

    def test_usage_error_then_valid_call(self, monkeypatch, capsys):
        # usage text wraps at the terminal width; pin it in both processes
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        bad = [*self.RUN[:-1], "-1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        err = capsys.readouterr().err
        fresh = qtmlab(*bad, env={"COLUMNS": "80"})
        assert exc.value.code == fresh.returncode == 1
        assert err == fresh.stderr
        assert "--steps" in err
        assert cli.main(list(self.RUN)) == 0
        assert capsys.readouterr().out == RUN_HADAMARD


class TestIntegerOptions:
    """Integer options take an optional ``-`` and ASCII digits, as schedule
    steps do; ``int()`` alone would also take spaces, underscores, ``+``
    and non-ASCII digits."""

    RUN = ("run", "machines/hadamard_halt.qtm", "--input", "0")
    SAMPLE = ("sample", "machines/hadamard_halt.qtm", "--input", "0", "--steps", "3")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ((*RUN, "--steps", " 1_0 "), "--steps"),
            ((*RUN, "--steps", "1_0"), "--steps"),
            ((*RUN, "--steps", "+3"), "--steps"),
            ((*RUN, "--steps", "\u0661\u0662"), "--steps"),
            ((*SAMPLE, "--seed", " \u0661\u0662 "), "--seed"),
            ((*SAMPLE, "--seed", "1", "--samples", "1_0"), "--samples"),
            (("check", "machines/hadamard_halt.qtm", "--max-witnesses", " 3"),
             "--max-witnesses"),
        ],
        ids=["steps-spaced", "steps-underscore", "steps-plus", "steps-arabic",
             "seed-arabic", "samples-underscore", "max-witnesses-spaced"],
    )
    def test_other_integer_spellings_rejected(self, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(ROOT)
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"qtmlab: error: argument {flag}: invalid int value: {argv[-1]!r}" in err

    def test_minus_and_ascii_digits_accepted(self):
        ns = cli.build_parser().parse_args(
            ["sample", "m", "--input", "0", "--steps", "010", "--seed", "-12", "--samples", "7"]
        )
        assert (ns.steps, ns.seed, ns.samples) == (10, -12, 7)


# every code point, lone surrogates and control characters included, with the
# ones JSON escapes specially drawn often
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.sampled_from('"\\/\x00\x08\x1f\x7f\xe9\u2028\U0001f600'),
    ),
    max_size=6,
)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e308, -1e308, 1e-7, 0.1]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200), _FINITE, _TEXT
)


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=3).map(tuple),
            st.dictionaries(_TEXT, kids, max_size=4),
        ),
        max_leaves=24,
    )


class TestJsonEmitter:
    """``cli._json`` writes what ``json.dumps(doc, indent=2, allow_nan=False)``
    writes; ``_emit`` uses it where the stdlib indents in pure Python."""

    def test_selected_where_json_dumps_indents_in_python(self):
        assert (cli._dumps is cli._json) == (sys.version_info < (3, 13))

    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(_LEAVES))
    def test_bytes_equal_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2, allow_nan=False)

    @settings(max_examples=300, deadline=None)
    @given(doc=_documents(st.one_of(_LEAVES, st.sampled_from([math.nan, math.inf, -math.inf]))))
    def test_non_finite_floats_refused_where_json_dumps_refuses(self, doc):
        try:
            expected = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                cli._json(doc)
        else:
            assert cli._json(doc) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [lambda x: x, lambda x: [x], lambda x: {"a": [1, {"b": (x,)}]}, lambda x: [[], {}, [x]]],
        ids=["top", "list", "nested", "last"],
    )
    def test_non_finite_float_at_any_depth(self, bad, wrap):
        with pytest.raises(ValueError) as want:
            json.dumps(wrap(bad), indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            cli._json(wrap(bad))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [b"x"], {"a": 1j}])
    def test_other_types_refused(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(TypeError) as got:
            cli._json(doc)
        assert str(got.value) == str(want.value)

    def test_non_str_keys_refused(self):
        # json.dumps would write the key 1 as "1"; no document has such a key
        with pytest.raises(TypeError):
            cli._json({1: "int key"})
