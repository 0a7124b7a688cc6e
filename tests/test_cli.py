"""End-to-end tests of the command-line surface.

main() is called in-process with argv lists; stdout is captured through
capsys.  Exit-code contract: 0 pass, 1 check failure with witness, 2 bad
arguments or an output path that cannot be written.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ivhecke.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ----------------------------------------------------------------------
# table

def test_table_a1_iota_csv(capsys):
    code, out = run(capsys, "table", "--system", "A1", "--basis", "iota",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["x,w,poly", "e,e,1", "e,0,v^-1", "0,0,1"]


def test_table_json_shape(capsys):
    code, out = run(capsys, "table", "--system", "A2", "--basis", "pi",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "pi"
    assert data["system"] == "A2"
    assert data["theta"] == [0, 1]
    assert data["entries"]


def test_table_deterministic(capsys):
    args = ("table", "--system", "B2", "--basis", "iota", "--format", "json")
    _code, first = run(capsys, *args)
    _code, second = run(capsys, *args)
    assert first == second


def test_table_writes_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out = run(capsys, "table", "--system", "A1", "--basis", "h",
                    "--format", "csv", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "x,w,poly"


def test_table_nontrivial_theta(capsys):
    code, out = run(capsys, "table", "--system", "A3", "--theta", "2,1,0",
                    "--basis", "pi", "--format", "csv")
    assert code == 0
    assert out.startswith("x,w,poly")


# ----------------------------------------------------------------------
# verify

def test_verify_a2(capsys):
    code, out = run(capsys, "verify", "--system", "A2", "--theta", "id",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(v == [] for v in report["checks"].values())


def test_verify_text_format(capsys):
    code, out = run(capsys, "verify", "--system", "I2(4)")
    assert code == 0
    assert "ok: True" in out


# ----------------------------------------------------------------------
# classify

def test_classify_hw_with_expectations(capsys):
    code, out = run(capsys, "classify", "--mode", "hw",
                    "--systems", "I2(3),A2",
                    "--expect-survivors", "4", "--expect-classes", "1",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["survivor_count"] == 4
    assert len(report["classes"]) == 1


def test_classify_expectation_failure(capsys):
    code, out = run(capsys, "classify", "--mode", "hw",
                    "--systems", "I2(3)",
                    "--expect-survivors", "7")
    assert code == 1
    assert "survivor count" in out


@pytest.mark.parametrize("fmt,witness", [
    ("json", '{\n  "ok": false,\n  "witness": {\n    "actual": 1,\n'
             '    "check": "class count",\n    "expected": 2\n  }\n}\n'),
    ("text", "FAIL\ncheck: class count\nexpected: 2\nactual: 1\n"),
])
def test_classify_class_count_failure(capsys, fmt, witness):
    # the survivor count matches, so the class count is the failing check
    code, out = run(capsys, "classify", "--mode", "hw", "--systems", "I2(3)",
                    "--expect-survivors", "4", "--expect-classes", "2", "--format", fmt)
    assert code == 1
    assert out.endswith(witness)
    assert "survivor count" not in out


def test_classify_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _out = run(capsys, "classify", "--mode", "hw",
                     "--systems", "I2(3)", "--report", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["mode"] == "hw"
    assert data["survivor_count"] == 4


# ----------------------------------------------------------------------
# invert

def test_invert_a2(capsys):
    code, out = run(capsys, "invert", "--system", "A2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert set(report["bases"]) == {"pi", "pi_prime", "iota"}


# ----------------------------------------------------------------------
# pkernel

def test_pkernel_h_a2(capsys):
    code, out = run(capsys, "pkernel", "--system", "A2", "--basis", "h",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["in_image"] and report["roundtrip_identity"]
    assert report["is_involution"]
    # all KL polynomials of A2 are 1
    assert set(report["kls"].values()) == {"1"}


def test_pkernel_iota_fails_with_witness(capsys):
    for grading in ("length", "rho"):
        code, out = run(capsys, "pkernel", "--system", "I2(4)",
                        "--basis", "iota", "--grading", grading,
                        "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["witness"]["check"] == "kernel_from_bar"
        assert payload["witness"]["grading"] == grading


# ----------------------------------------------------------------------
# errors and config

def test_bad_system_exits_2(capsys):
    assert main(["table", "--system", "Q9"]) == 2


def test_bad_theta_exits_2(capsys):
    assert main(["verify", "--system", "A2", "--theta", "1,2"]) == 2


@pytest.mark.parametrize("command", [["table", "--basis", "h"], ["table", "--basis", "pi"], ["pkernel", "--basis", "h"], ["verify"]])
def test_non_involutive_theta_exits_2(command, capsys):
    # D4's triality is a diagram automorphism of order 3
    assert main(command + ["--system", "D4", "--theta", "2,1,3,0"]) == 2
    assert capsys.readouterr().err == "error: theta = (2, 1, 3, 0) is not involutive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--system", "A2", "--basis", "h", "--format", "csv", "--out", "{missing}/t.csv"],
        ["pkernel", "--system", "A2", "--basis", "h", "--out", "{missing}/p.txt"],
        ["classify", "--mode", "hw", "--systems", "I2(3)", "--report", "{missing}/r.json"],
    ],
)
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(missing) in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--system", "A2", "--basis", "zeta"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["verify"], ["invert"], ["pkernel", "--basis", "iota"]])
def test_csv_is_a_table_format_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--system", "A2", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_max_elements_refusal(capsys):
    assert main(["table", "--system", "B3", "--basis", "h",
                 "--max-elements", "10"]) == 2


@pytest.mark.parametrize("basis", ["iota", "pi"])
@pytest.mark.parametrize("system,cap", [("B3", "10"), ("F4", "500"), ("E6", "500")])
def test_max_elements_refusal_twisted(system, cap, basis, capsys):
    start = time.perf_counter()
    assert main(["table", "--system", system, "--basis", basis, "--max-elements", cap]) == 2
    assert time.perf_counter() - start < 30
    assert f"more than {cap} elements" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["invert"], ["pkernel", "--basis", "iota"]])
def test_max_elements_refusal_other_commands(command, capsys):
    assert main(command + ["--system", "E6", "--max-elements", "500"]) == 2
    assert "more than 500 elements" in capsys.readouterr().err


def test_infinite_system_refusal(capsys):
    assert main(["table", "--system", "I2(0)", "--basis", "h"]) == 2
    assert "the group is infinite" in capsys.readouterr().err
    assert main(["table", "--system", "I2(0)", "--basis", "iota"]) == 2
    assert "the group is infinite" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3", "x"])
def test_max_elements_must_be_positive(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--system", "A1", "--max-elements", cap])
    assert exc.value.code == 2
    assert "--max-elements" in capsys.readouterr().err


def test_parser_covers_all_commands():
    parser = build_parser()
    # parses every advertised command without error
    for argv in (
        ["table", "--system", "A1"],
        ["verify", "--system", "A1"],
        ["classify"],
        ["invert", "--system", "A1"],
        ["pkernel", "--system", "A1"],
    ):
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_python_m_ivhecke_runs_the_cli(capsys):
    """``python -m ivhecke`` from a source checkout prints what ``main`` prints."""
    argv = ["table", "--system", "A3", "--basis", "h", "--format", "csv"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ivhecke", *argv], capture_output=True, text=True, env=env)
    code, out = run(capsys, *argv)
    assert done.returncode == code == 0
    assert done.stdout == out and out.startswith("x,w,poly\n")
