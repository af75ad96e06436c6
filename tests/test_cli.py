"""Command line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvesat import cli
from curvesat.cli import main

EX1_D4 = "y^4 + x*z^3"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_analyze_poly_text(capsys):
    rc, out, err = run(capsys, ["analyze", "--poly", EX1_D4])
    assert rc == 0
    assert "NEARLY_FREE" in out
    assert err == ""


def test_analyze_json_fields(capsys):
    rc, out, _ = run(capsys, ["analyze", "--poly", "x*y",
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schemaVersion"] == 1
    assert data["input"] == {"kind": "poly", "poly": "x*y", "forms": None}
    assert data["classification"]["kind"] == "CONCURRENT_LINES"
    assert data["invariants"]["tau"] == 1
    assert data["betti"]["saturated"] == {"a": [1, 1], "b": [2]}
    assert data["betti"]["jacobian"] is None
    assert data["timing"] is None


def test_analyze_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["analyze", "--poly", EX1_D4,
                               "--format", "json"])
    _, second, _ = run(capsys, ["analyze", "--poly", EX1_D4,
                                "--format", "json"])
    assert first == second


def test_analyze_rejects_kmax(capsys):
    # the truncation bound is 3d-3 and not an option
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--poly", "x*y", "--kmax", "5"])
    assert exc.value.code == 2
    assert "--kmax" in capsys.readouterr().err


def test_analyze_catalog_entry(capsys):
    rc, out, _ = run(capsys, ["analyze", "--catalog", "triangle",
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["name"] == "triangle"
    assert data["input"]["kind"] == "arrangement"
    assert data["classification"]["kind"] == "FREE"
    assert data["combinatorics"]["tau"] == 3


def test_analyze_arrangement_file(tmp_path, capsys):
    path = tmp_path / "lines.txt"
    path.write_text("# three concurrent lines\nx\ny\nx + y\n")
    rc, out, _ = run(capsys, ["analyze", "--arrangement", str(path),
                              "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["input"]["forms"] == ["x", "y", "x + y"]
    assert data["classification"]["kind"] == "CONCURRENT_LINES"


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, ["analyze", "--poly", "x + y^2"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ["3", "x^0", "0"])
def test_a_constant_is_rejected_input(capsys, expr):
    # a nonzero constant defines no curve, as the zero polynomial does not
    rc, _, err = run(capsys, ["analyze", "--poly", expr])
    assert rc == 2
    assert "error:" in err


def test_non_reduced_exit_code(capsys):
    rc, _, err = run(capsys, ["analyze", "--poly", "x^2*y"])
    assert rc == 3
    assert "error:" in err


def test_the_largest_non_reduced_power_exits_3(capsys):
    # x^64 is the largest power the parser accepts; its first slice of
    # J_f already leaves the bound of a reduced curve
    rc, _, err = run(capsys, ["analyze", "--poly", "x^64"])
    assert rc == 3
    assert "degree 63" in err


def test_unknown_catalog_exit_code(capsys):
    rc, _, err = run(capsys, ["analyze", "--catalog", "no-such-entry"])
    assert rc == 4
    assert "error:" in err


def test_missing_arrangement_file_exit_code(tmp_path, capsys):
    rc, _, err = run(capsys, ["analyze",
                              "--arrangement", str(tmp_path / "nope.txt")])
    assert rc == 4
    assert "error:" in err


def test_arrangement_file_not_utf8_is_rejected_input(tmp_path, capsys):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, ["analyze", "--arrangement", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err


def test_catalog_list(capsys):
    rc, out, _ = run(capsys, ["catalog", "list"])
    assert rc == 0
    names = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert "ziegler-A" in names
    assert "triangle" in names
    assert "nf-d4-k1" in names


def test_suite_single_property(capsys):
    # one full-catalog pass; JSON and filtering details are covered on
    # the library object in test_suite.py
    rc, out, _ = run(capsys, ["suite", "--random", "0",
                              "--only", "arrangement-tau"])
    assert rc == 0
    assert "property arrangement-tau:" in out
    assert "suite: PASS" in out


@pytest.mark.parametrize("name", ["duality", "syzygy-bound"])
def test_suite_rejects_a_removed_property(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--random", "0", "--only", name])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _analyze_in_subprocess(*args):
    # a subprocess with a timeout: expanding or analyzing these inputs
    # would spin for minutes
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "curvesat.cli", "analyze", *args],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    return proc.stderr


@pytest.mark.parametrize("expr", ["x^99999999", "(x+y+z)^999999"])
def test_huge_power_is_rejected_before_expansion(expr):
    assert "exceeds the cap 64" in _analyze_in_subprocess("--poly", expr)


@pytest.mark.parametrize("expr", [
    "(x+y+z+1)^32*(x+y+z+1)^32 - (x+y+z+1)^64 + x",
    "(x+y+z+1)^40 - (x+y+z+1)^40 + x^40",
])
def test_huge_product_is_rejected_before_expansion(expr):
    # every degree stays within the cap, but the term counts do not
    assert "term pairs" in _analyze_in_subprocess("--poly", expr)


def test_arrangement_above_the_degree_cap_is_rejected(tmp_path):
    # 65 distinct lines: the product of degree 65 is never formed
    path = tmp_path / "lines.txt"
    path.write_text("".join(f"x + {i}*y + {i * i}*z\n" for i in range(65)))
    err = _analyze_in_subprocess("--arrangement", str(path))
    assert "line 65: more than 64 forms" in err


@pytest.mark.parametrize("expr", [
    "1" * 5000 + "*x",                                # a 5000-digit literal
    "(((10^60)^64)^2 + 1)*x*y + x^2",                 # crashed the printer
    "(((((2^64)^64)^64)^64)^64)*x",                   # 11 s to parse
    "((((3^64)^64)^64)^64 + 1)*x*y*z + x^3 + y^3",    # never finished
    "1/" + "1" * 600 + "*x^2 + 1/" + "1" * 599 + "*y^2 + z^2",
], ids=["literal", "printer", "slow-parse", "hang", "cleared-denominators"])
def test_oversized_coefficients_are_rejected_input(expr):
    err = _analyze_in_subprocess("--poly", expr)
    assert "exceeds the cap of" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, message", [
    ("0", "expression expands to the zero polynomial"),
    ("x^\u0663", "unexpected character"),
])
def test_zero_and_non_ascii_digits_are_rejected_input(capsys, expr, message):
    rc, out, err = run(capsys, ["analyze", "--poly", expr])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv", [
    ["--poly", "(" * 1000 + "x*y" + ")" * 1000],
    ["--poly=" + "-" * 3000 + "x*y"],
    ["--arrangement", "nested.txt"],
])
def test_deep_nesting_is_rejected_input(tmp_path, monkeypatch, capsys, argv):
    # a fixed nesting cap, not the interpreter's recursion limit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nested.txt").write_text("x\n" + "(" * 1000 + "y"
                                         + ")" * 1000 + "\n")
    rc, out, err = run(capsys, ["analyze", *argv])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "nesting exceeds the cap 100" in err
    assert "Traceback" not in err


def test_suite_rejects_a_negative_random_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--random", "-1"])
    assert exc.value.code == 2
    assert "--random" in capsys.readouterr().err


def test_running_out_of_memory_is_an_internal_failure(capsys, monkeypatch):
    # a run that exhausts memory ends with an error line and exit 4,
    # not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze", exhausted)
    rc, out, err = run(capsys, ["analyze", "--poly", EX1_D4])
    assert rc == 4
    assert out == ""
    assert err == "error: out of memory\n"
