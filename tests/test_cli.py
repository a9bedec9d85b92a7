"""End-to-end tests for the command-line interface.

Every command is exercised in-process through main() so exit codes and
exact stdout/stderr bytes are pinned without spawning subprocesses.
"""

from __future__ import annotations

import json
import random

from omfactor import cli, montes
from omfactor.arith import format_poly, parse_poly
from omfactor.cli import main
from omfactor.montes import factorize
from omfactor.serialize import (
    canonical_json,
    cert_from_json,
    chain_to_json,
    type_from_json,
    type_to_json,
)
from omfactor.typecalc import equivalent, optimize

from genchains import fixture_chain3, fixture_poly, fixture_t4, unshifted_top_pair

QUARTIC = "x^4 + 30*x^2 + 6786"

TRACE_TEXT = """\
R0(f) = y^4
branch psi = y, omega = 4
N1(x): points (0, 2), (2, 1), (4, 0)
  vertices (0, 2), (4, 0); principal length 4
side slope -1/2: R1(f) = y^2 + y + 1 (s = 0, u = 2)
N2(x^2 - 3): points (0, 4), (1, 3), (2, 2)
  vertices (0, 4), (2, 2); principal length 2
side slope -1: R2(f) = y^2 + y + 1 (s = 0, u = 8)
N3(x^2 - 12): points (0, 6), (1, 5), (2, 4)
  vertices (0, 6), (2, 4); principal length 2
side slope -1: R3(f) = y^2 - y + 1 (s = 0, u = 12)
N4(x^2 + 15): points (0, 8), (2, 6)
  vertices (0, 8), (2, 6); principal length 2
side slope -1: R4(f) = y^2 + 1 (s = 0, u = 16)
close:
  degree 4, e = 2, f = 2
  okutsu depth 2, frame [x, x^2 + 15]
  slopes [1/2, 1, 1, 1]
  approximation x^4 + 30*x^2 + 6786
  type (y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))
certificate 1:
  degree 4, e = 2, f = 2
  okutsu depth 2, frame [x, x^2 + 15]
  slopes [1/2, 1, 1, 1]
  approximation x^4 + 30*x^2 + 6786
  type (y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))
precision floor 9
certified ok
"""


def run_cli(capsys, argv: list[str]):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(canonical_json(chain_to_json(fixture_chain3())))
    return str(path)


def write_type(tmp_path, t, name="type.json"):
    path = tmp_path / name
    path.write_text(canonical_json(type_to_json(t)))
    return str(path)


def test_factor_trace_text_pinned(capsys) -> None:
    code, out, err = run_cli(
        capsys, ["factor", "--prime", "3", "--poly", QUARTIC, "--trace"]
    )
    assert code == 0
    assert err == ""
    assert out == TRACE_TEXT


def test_factor_json_document(capsys) -> None:
    code, out, err = run_cli(
        capsys, ["factor", "--prime", "3", "--poly", QUARTIC, "--json", "--trace"]
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["certificates", "p", "poly", "precision_floor", "trace"]
    assert doc["p"] == 3
    assert doc["precision_floor"] == 9
    assert len(doc["certificates"]) == 1
    cert = cert_from_json(doc["certificates"][0])
    assert cert.degree == 4 and cert.e == 2 and cert.f == 2
    assert doc["trace"][0] == "R0(f) = y^4"
    assert doc["trace"] == TRACE_TEXT.split("\n")[: len(doc["trace"])]


def test_factor_output_deterministic(capsys) -> None:
    argv = ["factor", "--prime", "5", "--poly", format_poly(fixture_poly(5)), "--json"]
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_factor_file_inputs_match_inline(capsys, tmp_path) -> None:
    _, inline_out, _ = run_cli(capsys, ["factor", "--prime", "3", "--poly", QUARTIC])
    expr = tmp_path / "poly.txt"
    expr.write_text(QUARTIC + "\n")
    code, out, _ = run_cli(capsys, ["factor", "--prime", "3", "--file", str(expr)])
    assert code == 0 and out == inline_out
    coeffs = tmp_path / "poly.json"
    coeffs.write_text('["6786", "0", "30", "0", "1"]')
    code, out, _ = run_cli(capsys, ["factor", "--prime", "3", "--file", str(coeffs)])
    assert code == 0 and out == inline_out


def test_certify_failure_reported_and_floor_override(capsys) -> None:
    code, out, _ = run_cli(capsys, ["factor", "--prime", "3", "--poly", "x^3 - 9*x"])
    assert code == 0
    assert "precision floor 5" in out
    assert "certify FAILED approximation-product: v0(f - prod) = 2 >= 5" in out
    assert "certified ok" not in out
    code, out, _ = run_cli(
        capsys,
        ["factor", "--prime", "3", "--poly", "x^3 - 9*x", "--precision-floor", "2"],
    )
    assert code == 0
    assert "precision floor 2" in out
    assert "certified ok" in out


def test_factor_walks_the_tree_once(capsys, monkeypatch) -> None:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    walk = montes._run
    monkeypatch.setattr(montes, "_run", counted)
    monkeypatch.setattr(cli, "_run", counted)
    for extra in ([], ["--precision-floor", "2"], ["--json"]):
        calls.clear()
        code, _, _ = run_cli(capsys, ["factor", "--prime", "3", "--poly", "x^3 - 9*x"] + extra)
        assert code == 0
        assert len(calls) == 1, extra
    calls.clear()
    code, _, err = run_cli(
        capsys, ["factor", "--prime", "3", "--poly", "x^3 - 9*x", "--precision-floor", "0"]
    )
    assert code == 2
    assert err == "error: --precision-floor must be at least 1\n"
    assert calls == []


def test_order0_type_renders_psi0(capsys, tmp_path) -> None:
    code, out, err = run_cli(capsys, ["factor", "--prime", "3", "--poly", "x^2+1"])
    assert (code, err) == (0, "")
    assert out == (
        "certificate 1:\n"
        "  degree 2, e = 1, f = 2\n"
        "  okutsu depth 0, frame []\n"
        "  slopes []\n"
        "  approximation x^2 + 1\n"
        "  type (y^2 + 1)\n"
        "precision floor 1\n"
        "certified ok\n"
    )
    [cert] = factorize(parse_poly("x^2+1"), 3)
    path = write_type(tmp_path, cert.final_type)
    code, out, _ = run_cli(capsys, ["optimize", "--file", path])
    assert (code, out) == (0, "(y^2 + 1)\n")
    code, out, _ = run_cli(capsys, ["equiv", path, path])
    assert code == 0
    assert out == "equivalent\noptimized A: (y^2 + 1)\noptimized B: (y^2 + 1)\n"


def test_exit_code_two_on_parse_and_config_errors(capsys, tmp_path) -> None:
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    cases = [
        ["factor", "--prime", "4", "--poly", "x"],
        ["factor", "--prime", "3", "--poly", "x +"],
        ["factor", "--prime", "3"],
        ["factor", "--prime", "3", "--poly", "x", "--file", "unused"],
        ["factor", "--prime", "3", "--poly", "x", "--precision-floor", "0"],
        ["factor", "--prime", "3", "--poly", "x^\u00b2+1"],
        ["factor", "--prime", "3317044064679887385961981", "--poly", "x^2+1"],
        ["factor", "--prime", "3317044064679887385961981", "--poly", "x^2+x+1"],
        ["factor", "--prime", "318665857834031151167461", "--poly", "x^2+1"],
        ["factor", "--prime", "3", "--poly", "x^99999999999"],
        ["factor", "--prime", "3", "--poly", "2^99999999999"],
        ["factor", "--prime", "3", "--poly", "((2^1000)^1000)^1000"],
        ["factor", "--prime", "3", "--poly", "x^600*x^600"],
        ["eval", "--poly", "x"],
        ["eval", "--file", str(bad_json), "--poly", "x"],
        ["optimize"],
        ["representative"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1
    bad_array = tmp_path / "bad_array.txt"
    bad_array.write_text("[1, 0,")
    worded = [
        (["factor", "--prime", "3", "--file", str(tmp_path / "missing.txt")], "cannot read"),
        (["factor", "--prime", "3", "--file", str(bad_array)], "invalid JSON"),
        (["eval", "--file", write_chain(tmp_path)], "eval requires --poly"),
    ]
    for argv, words in worded:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and words in err, argv


def test_exit_code_three_on_precondition_failures(capsys) -> None:
    for poly in ["x^2", "2*x^2 + 1", "5"]:
        code, _, err = run_cli(capsys, ["factor", "--prime", "3", "--poly", poly])
        assert code == 3, poly
        assert err.startswith("error: ")


def test_exit_code_four_on_internal_errors(capsys, monkeypatch) -> None:
    monkeypatch.setattr(montes, "_MAX_NODES", 0)
    code, out, err = run_cli(capsys, ["factor", "--prime", "3", "--poly", QUARTIC])
    assert code == 4
    assert out == ""
    assert err == "error: branch tree exceeded the node budget\n"


def test_eval_levels_text(capsys, tmp_path) -> None:
    chain_path = write_chain(tmp_path)
    code, out, _ = run_cli(capsys, ["eval", "--file", chain_path, "--poly", QUARTIC])
    assert code == 0
    assert out == (
        "level 0: mu = 0, v = 0\n"
        "level 1: mu = 2, v = 4\n"
        "level 2: mu = 4, v = 8\n"
        "level 3: mu = 6, v = 12\n"
        "level 4: mu = 8, v = 16\n"
    )
    code, out, _ = run_cli(
        capsys,
        ["eval", "--file", chain_path, "--poly", QUARTIC, "--level", "2", "--residual"],
    )
    assert code == 0
    assert out == "level 2: mu = 4, v = 8\n  residual (0, 8, y^2 + y + 1)\n"
    code, out, _ = run_cli(
        capsys,
        ["eval", "--file", chain_path, "--poly", "9", "--level", "0", "--level", "1"],
    )
    assert code == 0
    assert out == "level 0: mu = 2, v = 2\nlevel 1: mu = 2, v = 4\n"
    code, out, _ = run_cli(
        capsys,
        ["eval", "--file", chain_path, "--poly", "0", "--level", "0", "--level", "3"],
    )
    assert code == 0
    assert out == "level 0: mu = INF, v = INF\nlevel 3: mu = INF, v = INF\n"
    code, out, err = run_cli(
        capsys,
        ["eval", "--file", chain_path, "--poly", "0", "--level", "3", "--residual"],
    )
    assert (code, out) == (3, "")
    assert err == "error: residual of the zero polynomial\n"


def test_eval_rejects_chain_with_reducible_key(capsys, tmp_path) -> None:
    path = tmp_path / "chain.json"
    doc = chain_to_json(fixture_chain3())
    doc["levels"][0]["phi"] = ["-1", "0", "1"]
    path.write_text(canonical_json(doc))
    code, out, err = run_cli(capsys, ["eval", "--file", str(path), "--poly", "x"])
    assert (code, out) == (2, "")
    assert err == (
        "error: serialized chain is not a valid chain: "
        "key check failed: reduction modulo p is not irreducible\n"
    )


def test_eval_json(capsys, tmp_path) -> None:
    chain_path = write_chain(tmp_path)
    code, out, _ = run_cli(
        capsys, ["eval", "--file", chain_path, "--poly", "x", "--level", "4", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [{"level": 4, "mu": {"num": 1, "den": 2}, "v": 1}]
    code, out, _ = run_cli(
        capsys, ["eval", "--file", chain_path, "--poly", "0", "--level", "2", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [{"level": 2, "mu": "INF", "v": "INF"}]


def test_equiv_same_type_file(capsys, tmp_path) -> None:
    path = write_type(tmp_path, fixture_t4())
    code, out, _ = run_cli(capsys, ["equiv", path, path])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "equivalent"
    assert lines[1] == "eta witnesses [0, 0]"
    assert lines[2] == lines[3].replace("optimized B", "optimized A")
    code, out, _ = run_cli(capsys, ["equiv", path, path, "--json"])
    doc = json.loads(out)
    assert doc["equivalent"] is True and doc["failed"] is None
    assert doc["optimized_a"] == doc["optimized_b"]


def test_equiv_split_pair_fails_at_top_psi(capsys, tmp_path) -> None:
    certs = factorize(fixture_poly(5), 5)
    assert len(certs) == 2
    pa = write_type(tmp_path, certs[0].final_type, "a.json")
    pb = write_type(tmp_path, certs[1].final_type, "b.json")
    code, out, _ = run_cli(capsys, ["equiv", pa, pb])
    assert code == 0
    assert out.startswith("not equivalent: failed at psi_top\n")
    assert "optimized A: (y; (x, 1/2, y - 1); (x^2 + 95, 3, y - 2))" in out
    assert "optimized B: (y; (x, 1/2, y - 1); (x^2 + 95, 3, y + 2))" in out
    code, out, _ = run_cli(capsys, ["equiv", pa, pb, "--json"])
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["failed"] == "psi_top"
    assert doc["degenerate"] is False


def test_equiv_degenerate_failure(capsys, tmp_path) -> None:
    ta, tb = unshifted_top_pair(random.Random(5))
    pa = write_type(tmp_path, ta, "a.json")
    pb = write_type(tmp_path, tb, "b.json")
    code, out, _ = run_cli(capsys, ["equiv", pa, pb])
    assert code == 0
    assert out.startswith("not equivalent: failed at psi_top (degenerate)\n")
    code, out, _ = run_cli(capsys, ["equiv", pa, pb, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["equivalent"], doc["failed"], doc["degenerate"]) == (False, "psi_top", True)


def test_equiv_mixed_primes_rejected(capsys, tmp_path) -> None:
    pa = write_type(tmp_path, fixture_t4(), "a.json")
    certs = factorize(fixture_poly(5), 5)
    pb = write_type(tmp_path, certs[0].final_type, "b.json")
    code, _, err = run_cli(capsys, ["equiv", pa, pb])
    assert code == 2
    assert "different primes" in err


def test_optimize_command(capsys, tmp_path) -> None:
    path = write_type(tmp_path, fixture_t4())
    code, out, _ = run_cli(capsys, ["optimize", "--file", path])
    assert code == 0
    assert out == "(y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))\n"
    code, out, _ = run_cli(capsys, ["optimize", "--file", path, "--json"])
    assert code == 0
    parsed = type_from_json(json.loads(out))
    assert equivalent(parsed, optimize(fixture_t4())).equivalent


def test_representative_command(capsys, tmp_path) -> None:
    path = write_type(tmp_path, fixture_t4())
    code, out, _ = run_cli(capsys, ["representative", "--file", path])
    assert code == 0
    assert out == "x^4 + 30*x^2 + 6786\n"
    code, out, _ = run_cli(capsys, ["representative", "--file", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"poly": ["6786", "0", "30", "0", "1"]}
