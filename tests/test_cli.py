"""End-to-end command line tests; goldens are byte-exact stdout captures."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import MACHINES, ROOT
from qtmlab import classical, cli, wellformed

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


def qtmlab(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qtmlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=None if env is None else {**os.environ, **env},
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


# sha256 of stdout and the exit status of every corpus machine's analysis,
# recorded before the reversibility check moved onto the shared window sweep;
# the outputs must stay byte-identical across refactors.
CORPUS_OUTPUT_SHA256 = {
    ("check", "delayed_hadamard.qtm"): (
        2, "0f6de7abc30846c0bbbba607684c807bc293f3bfee89c4358af054b32c6d32c2"),
    ("check", "hadamard_halt.qtm"): (
        2, "98e988d61639424ddc4ad88594d2d4a2adb8a9179264b175c22885c41546b9cb"),
    ("check", "hadamard_halt_naive.qtm"): (
        2, "945bdb9531a52f2bdfc78c62a64811d8e876bcb8eb8b5ef402b445ed2616bf2a"),
    ("check", "right_shift.qtm"): (
        0, "dd288d2a75bbbd34dd70b67c6d74f95aa2690f99d140714e31719f1bc251b3f0"),
    ("check", "seek_right_lifted.qtm"): (
        2, "166617354aff2bacf4bc7b483f71dc679fe5576ea13f74bda1694f62b7a6af11"),
    ("lift", "collide.tm"): (
        2, "12711571dd8c3752df2748603a93f3d802a68cb1a446fb646857e878a9470873"),
    ("lift", "flip_bits.tm"): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "parity_mark.tm"): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "seek_right.tm"): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "unary_inc.tm"): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
}


# The same at the default witness cap (None) and at --max-witnesses 3, where
# only the first witnesses are shown; recorded before witnesses computed
# their inner products and images lazily.
TRUNCATED_OUTPUT_SHA256 = {
    ("check", "delayed_hadamard.qtm", None): (
        2, "a21c9506ce451bc55564c720e22e83352c5f5cee1e2ca8e682faa4a7d31782c8"),
    ("check", "delayed_hadamard.qtm", 3): (
        2, "dfa84e909b7f77cc516b9ff61916dd359d7339a8671adf884cfb9a86717e263d"),
    ("check", "hadamard_halt.qtm", None): (
        2, "58c56d4859479f39dcfb7d2e9baf8616ad73d1e37a71a0d9a34e7b3a0d80eda6"),
    ("check", "hadamard_halt.qtm", 3): (
        2, "40a504591b005edf584c3416b05989b5ebff56e3bd71ab94d4dd66ce8dc5782a"),
    ("check", "hadamard_halt_naive.qtm", None): (
        2, "187a63f271deafe9e7856e39d3d043f8e9ae92b622cda3ed40fdec30bf8dc31c"),
    ("check", "hadamard_halt_naive.qtm", 3): (
        2, "838c934876766845ad79cc9f6d50af85eb35456fc5f6d5168ec1553899ebf27b"),
    ("check", "right_shift.qtm", None): (
        0, "5ce8ea6502fb04f09f72c33817b17607a87a53c81a19a4e564701d56029e7d5b"),
    ("check", "right_shift.qtm", 3): (
        0, "0f878e6d148f06480af25454c5e161d5219d1efe75aaf8ac7602e97e66d4b7cd"),
    ("check", "seek_right_lifted.qtm", None): (
        2, "3ed2e943e28c8298aee2842364512747a9e5195188040e2a18e28730e23d8ec4"),
    ("check", "seek_right_lifted.qtm", 3): (
        2, "5733c54d3693c61a51c9eecacc26f5e1caa811ade1c6589e05adae51c4db7b2c"),
    ("lift", "collide.tm", None): (
        2, "09270a605e10be310eb629ac96f760cacbcd2af32ee453255e9df5a4540f803a"),
    ("lift", "collide.tm", 3): (
        2, "8abea617e98351e034ee03d73e0398f40ef98104a7ae6be688be7692b21d3192"),
    ("lift", "flip_bits.tm", None): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "flip_bits.tm", 3): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "parity_mark.tm", None): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "parity_mark.tm", 3): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "seek_right.tm", None): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "seek_right.tm", 3): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "unary_inc.tm", None): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
    ("lift", "unary_inc.tm", 3): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
}


# Every command that evolves a state, on every corpus .qtm machine, with a
# superposed input whose branches halt at different steps; sha256 of stdout
# and the exit status, recorded before the commands shared one stepping loop.
STEPPING_INPUT = "1/sqrt(2):01 + 1/sqrt(2):1100"
# --prune 0.5 drops the coin-flip images of the 3/5 branch (modulus 0.42)
# and keeps those of the 4/5 branch on the three Hadamard machines; on
# delayed_hadamard the coin comes at step 2, the second --schedule every
# segment, so pruning must carry over into a resumed evolution
PRUNE_INPUT = "3/5:01 + 4/5:1100"
PRUNED_MACHINES = (
    "delayed_hadamard.qtm", "hadamard_halt.qtm", "hadamard_halt_naive.qtm")
STEPPING_COMMANDS = {
    **{
        f"run-{schedule}": (
            "run", "--input", STEPPING_INPUT, "--steps", "9", "--schedule", schedule)
        for schedule in ("every", "end", "end:3", "at:1,3,5")
    },
    "run-prune": (
        "run", "--input", PRUNE_INPUT, "--steps", "9", "--schedule", "every",
        "--prune", "0.5"),
    "trace-prune": ("trace", "--input", PRUNE_INPUT, "--steps", "12", "--prune", "0.5"),
    "sample": (
        "sample", "--input", STEPPING_INPUT, "--steps", "9", "--seed", "3",
        "--samples", "50"),
    # several measurement records: on seek_right_lifted the branches halt
    # at steps 3 and 5, so a sampled chain index crosses a record; recorded
    # while samples were still counted by outcome value
    "sample-every": (
        "sample", "--input", STEPPING_INPUT, "--steps", "9", "--seed", "3",
        "--samples", "50", "--schedule", "every"),
    "compare": (
        "compare", "--input", STEPPING_INPUT, "--steps", "9",
        "--schedules", "every,end"),
    "trace": ("trace", "--input", STEPPING_INPUT, "--steps", "12"),
    "myers": ("myers", "--input-a", "01", "--input-b", "1100", "--steps", "7"),
    "subspace": ("subspace", "--input", STEPPING_INPUT, "--steps", "8"),
}
STEPPING_OUTPUT_SHA256 = {
    ("run-every", "delayed_hadamard.qtm"): (
        0, "441f3376bd2239bfb5657940456b97234691849ef5a7961644b433fe74c18d24"),
    ("run-every", "hadamard_halt.qtm"): (
        0, "b9a9382f6acfb1f27b3fb7a0eb0ece5d2aac3af19815734be8e0c4ef619a19f2"),
    ("run-every", "hadamard_halt_naive.qtm"): (
        0, "239aca3363bf5e2bf24d34f9901f0768444eb7eb95ac939b7e4842fbec825716"),
    ("run-every", "right_shift.qtm"): (
        0, "e3e06e186fd77ec8ded220a711f4687e405612a408476c406e3b76ebe36cd5ed"),
    ("run-every", "seek_right_lifted.qtm"): (
        0, "4e02e894541d6bb48a7240b7e0913b43810ff97018a1f7f6782f7ae205e2addc"),
    ("run-end", "delayed_hadamard.qtm"): (
        0, "a2f6a85aa05e20c554fbc72fc35e12d83dfb37b53421011d40e631548a637ea8"),
    ("run-end", "hadamard_halt.qtm"): (
        0, "5f85ba29eff22d3087d7ac79e3d6c27b6fe9aa9400fcee2598d8f609a7625c57"),
    ("run-end", "hadamard_halt_naive.qtm"): (
        0, "3bf847c859727a5b50d39e85acfd1910a47f8b3b4b7ba548b0a0e4b0f5528f74"),
    ("run-end", "right_shift.qtm"): (
        0, "4ad85aca74f5b88ff2f7f4aaf223815a53679c9b6fea9dedf63d13595d634fd8"),
    ("run-end", "seek_right_lifted.qtm"): (
        0, "695223b23e020646ab0e6144262a56bf218efffd7f3876fc3e5f18bdd9e5d56a"),
    ("run-end:3", "delayed_hadamard.qtm"): (
        0, "80db65807cf2e383273a45b3a699b1a13babc3c9316ad2a51b66b6547eab33b5"),
    ("run-end:3", "hadamard_halt.qtm"): (
        0, "c37edaad8f7547b7e9d6cb138a99e16e35c791d3537b69b6f12e631387c7cd38"),
    ("run-end:3", "hadamard_halt_naive.qtm"): (
        0, "480724908c0e8940acb5840d19bc3b96c51f274143c766dc5320377b8abc9845"),
    ("run-end:3", "right_shift.qtm"): (
        0, "2f990c009baa89ba5997de475d3cb9bfa1d6f31a5a71bfcb115e66d3c70394f3"),
    ("run-end:3", "seek_right_lifted.qtm"): (
        0, "8bc4d973f744c3c03f488e66fa9bba374e335dc8319881bb215e848daa0c3a0c"),
    ("run-at:1,3,5", "delayed_hadamard.qtm"): (
        0, "dda2d347199c28c93f91c80c987ea2223b9acbe7df92e1e850811610ba206a26"),
    ("run-at:1,3,5", "hadamard_halt.qtm"): (
        0, "d687d509d7168a4c9fe584df610e7e0172c7db345436cfd397bbfb8eb8b952da"),
    ("run-at:1,3,5", "hadamard_halt_naive.qtm"): (
        0, "d3112801bac561c45a01bb5006b1c20578866ebbfaa32d2eb483ff73885974cd"),
    ("run-at:1,3,5", "right_shift.qtm"): (
        0, "4c89719c752fd1c3643064c4819752c04a2a84ed7c2e6710c71c0d1a326e0054"),
    ("run-at:1,3,5", "seek_right_lifted.qtm"): (
        0, "3cc75307d71de22bded2a475aa90fa4c970acc649658ccd21e0d9019e2c1247e"),
    ("run-prune", "delayed_hadamard.qtm"): (
        0, "3278516fe6bb7cd28e426067d0f34461ee2918dc40ffe33a26c1cd3c0480963f"),
    ("run-prune", "hadamard_halt.qtm"): (
        0, "1f8410f6c364037049f0ce317af07a3bbc306c9b47e245c6d63e30b83ce618c4"),
    ("run-prune", "hadamard_halt_naive.qtm"): (
        0, "dc22b9a1bb058e53c767007fc47f7563d17dff10bc042912e89e280bd9e470d8"),
    ("run-prune", "right_shift.qtm"): (
        0, "eaff902df459d58564cb298fa79849eb1682d47d5ce834e38f521a34f9b122d8"),
    ("run-prune", "seek_right_lifted.qtm"): (
        0, "0c70fcd210b658d83a4f8778c9aecb245d7a62f2e4f6dd3e41cd3671c3d7daf7"),
    ("trace-prune", "delayed_hadamard.qtm"): (
        0, "5bb1b311449c60c8a0f04a176a3337f474cbb320e327407b3c8532108030ff55"),
    ("trace-prune", "hadamard_halt.qtm"): (
        0, "47b66f7241ce0ea6669e91d976024aac0227e1a3b6777b6a6a536a0470862c3e"),
    ("trace-prune", "hadamard_halt_naive.qtm"): (
        0, "18e3f65ec16d19b5be257ac1ec430203e754a7fd5a40bceec3cbe291e0ea472c"),
    ("trace-prune", "right_shift.qtm"): (
        0, "1764498c1c9f1c6760b570afdc62a59c3816e4a7ff8880b7463485e588080b47"),
    ("trace-prune", "seek_right_lifted.qtm"): (
        0, "8628c95485166342094f86dc1402309e3739c3fc127e26a09bee9e4ad5253427"),
    ("sample", "delayed_hadamard.qtm"): (
        0, "3aeb4fa27230360b0b6ebd9dae89ce4bfb739848e8d35db6d1626267c28b8c6c"),
    ("sample", "hadamard_halt.qtm"): (
        0, "8a35321867931dcb0312bad540b4e5c46ca148718eaabf1d467b306ab46720d2"),
    ("sample", "hadamard_halt_naive.qtm"): (
        0, "a7b89316d3d643f0df077200f3a3397e97eac07472a4e2564eb7071e6dc230ac"),
    ("sample", "right_shift.qtm"): (
        0, "fe274184b48dd67e3702b7ae9c0bf62574647becbacdc6b00294083367f385bd"),
    ("sample", "seek_right_lifted.qtm"): (
        0, "7b17b60a8d1492c1c0c462babfc57008efe13feb51dd09fbb6b22fff56db53fb"),
    ("sample-every", "delayed_hadamard.qtm"): (
        0, "81f18449cd9d4a4fa13b73defd8470f933df1f96b9abbb965ff24a083ef50a5a"),
    ("sample-every", "hadamard_halt.qtm"): (
        0, "de212e553b97ad1c6942e7d3e8cb572149c8970a9568206f8a43d8eab6466857"),
    ("sample-every", "hadamard_halt_naive.qtm"): (
        0, "c3ef04be564d5787fcaeef37622f6c04cdbc21d0f21676ee70ae416668bde50f"),
    ("sample-every", "right_shift.qtm"): (
        0, "f871cf361955d50191baf2aa6e0edfa5b90a95cbc87e9d1b9a4ee6fb440a0421"),
    ("sample-every", "seek_right_lifted.qtm"): (
        0, "a3e5fbc3622f67bb39ce49fad649b80e63bfa0a49893ac8754c25b94073a42e7"),
    ("compare", "delayed_hadamard.qtm"): (
        0, "02eba52d15ccdb4fec370685db656c6c2e4494d8b42908a1a6ce317631966ef5"),
    ("compare", "hadamard_halt.qtm"): (
        0, "94b2afe1440d945e20d792f4edec66c746cacc8efe6b2c53b34910f8ec349954"),
    ("compare", "hadamard_halt_naive.qtm"): (
        0, "0cf15efe1c5e99e5f77ba91b4f3f9fbd180b33a27ccea991ed872676045a0899"),
    ("compare", "right_shift.qtm"): (
        0, "bad7b26f02b470ce22486b8f7ac7c201200b7352346217bdc0ea93c630368573"),
    ("compare", "seek_right_lifted.qtm"): (
        0, "d8ab307e45e16aa5fc955eb6d24333db4f2bed87f0a40cc907a9cd6fb7702299"),
    ("trace", "delayed_hadamard.qtm"): (
        0, "53718eef4b5fe39ea45bcb808a8b10d4067358cca03ae09e7e05784ab1b93ca2"),
    ("trace", "hadamard_halt.qtm"): (
        0, "0bf169e46043d32961557735a8515d52315c559b12e92094a2a3e95b81e628c7"),
    ("trace", "hadamard_halt_naive.qtm"): (
        0, "5e8f7496ae4797ea9fe740ab560ca761a19175f8a5bfe7ed4ace0ac92d97bef6"),
    ("trace", "right_shift.qtm"): (
        0, "0fb9bc04795a51c49cb10482688b13b5eccc23046cbaa3c9bff3c0c62c01c449"),
    ("trace", "seek_right_lifted.qtm"): (
        0, "6c012b567ced9d11112c911007417bb3128cdb596ff606a817997f4fe6b3be74"),
    ("myers", "delayed_hadamard.qtm"): (
        0, "a3dee5d41ef621ff097bf6b8a42a157e32936eeb2287ea05e87cb0c6dae19ac2"),
    ("myers", "hadamard_halt.qtm"): (
        0, "c0d51b9fd41c1fc5e4961c9607b954f1f2738c7819f3d811f035690b7ad92bd0"),
    ("myers", "hadamard_halt_naive.qtm"): (
        0, "e62e99a79479f4ddcd3227670682c825e65ec98b609b92150a74c26385843ee8"),
    ("myers", "right_shift.qtm"): (
        0, "7daee8de467dd34759a7522986d55b5dbb70bc4fd6daf8b6c84bae686d0b278f"),
    ("myers", "seek_right_lifted.qtm"): (
        0, "016206b5289e950bf2facf9132132b35158f9dc48de2f45f4a01313d050962c1"),
    ("subspace", "delayed_hadamard.qtm"): (
        2, "e7fe47207a45749c365639f915b4193f5bbcd39aa6724edd15c6e9114e935912"),
    ("subspace", "hadamard_halt.qtm"): (
        2, "93eb6a212888fde654c8f3ee5de4aca533b0c5b73be18629d65ca591b1e7862d"),
    ("subspace", "hadamard_halt_naive.qtm"): (
        2, "59d651bb499321ac03138483c43e3a7f63cc5f29da35aa3db8c459559f0f671d"),
    ("subspace", "right_shift.qtm"): (
        0, "096e75fea5579957f3dd9fa17b95724cc7254662b58eca160440645d18b34137"),
    ("subspace", "seek_right_lifted.qtm"): (
        2, "5c22a3bb828e208e72eb1ec9467b42d373821f55fcb997a4784f49adba4178ac"),
}
# subspace over 32 branches that halt at steps 2..33 and then drift: 752
# halted configurations, recorded while the analysis still built their
# Gram matrix
LONG_SUBSPACE_ARGV = (
    "subspace", "machines/seek_right_lifted.qtm",
    "--input", " + ".join(f"1/sqrt(32):0{'1' * k}" for k in range(32)),
    "--steps", "40",
)
LONG_SUBSPACE_SHA256 = (
    2, "e3ac47e72d1c1f6f2c93531dee2fd1cfef7e153f6fe08608edaa9fb76eaa8c90")


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
            (classical, "_image", "lift", "collide.tm", "witnesses"),
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
