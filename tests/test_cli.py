"""End-to-end command line tests; goldens are byte-exact stdout captures."""

import hashlib
import json
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


def qtmlab(*args):
    return subprocess.run(
        [sys.executable, "-m", "qtmlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
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
        "args",
        [
            ("run",),
            ("compare", "--schedules", "every,end"),
            ("sample", "--samples", "5", "--seed", "1"),
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


class TestCorpusOutputsFrozen:
    def test_every_corpus_machine_is_pinned(self):
        files = {p.name for p in MACHINES.glob("*.*tm")}
        assert {name for _, name in CORPUS_OUTPUT_SHA256} == files
        for cap in (None, 3):
            pinned = {name for _, name, c in TRUNCATED_OUTPUT_SHA256 if c == cap}
            assert pinned == files

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
