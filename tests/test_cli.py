"""End-to-end tests for the command-line interface.

Every command is exercised in-process through main() so exit codes and
exact stdout/stderr bytes are pinned without spawning subprocesses.
"""

from __future__ import annotations

import decimal
import json
import random
import sys
from collections import Counter
from fractions import Fraction

from omfactor import cli, finitefield, montes
from omfactor.arith import QQ, Poly, format_poly, parse_poly
from omfactor.cli import main
from omfactor.errors import ConfigError, InternalError, OmError, ParseError, PreconditionError
from omfactor.montes import factorize
from omfactor.serialize import (
    canonical_json,
    cert_from_json,
    chain_to_json,
    type_from_json,
    type_to_json,
)
from omfactor.typecalc import Type, equivalent, optimize
from omfactor.valuation import build_chain

from genchains import fixture_chain3, fixture_poly, fixture_t4, unshifted_top_pair
from test_golden_output import CASES, P5_TYPE

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
N2(x^2 - 12): points (0, 6), (1, 5), (2, 4)
  vertices (0, 6), (2, 4); principal length 2
side slope -1: R2(f) = y^2 - y + 1 (s = 0, u = 12)
N2(x^2 + 15): points (0, 8), (2, 6)
  vertices (0, 8), (2, 6); principal length 2
side slope -1: R2(f) = y^2 + 1 (s = 0, u = 16)
close:
  degree 4, e = 2, f = 2
  okutsu depth 2, frame [x, x^2 + 15]
  slopes [1/2, 3]
  approximation x^4 + 30*x^2 + 6786
  type (y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))
certificate 1:
  degree 4, e = 2, f = 2
  okutsu depth 2, frame [x, x^2 + 15]
  slopes [1/2, 3]
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


def one_level_p2_type(tmp_path, nu: Fraction, name: str) -> str:
    """The p = 2 type (x, nu, y + 1), written as a type document."""
    chain = build_chain(2, [(parse_poly("x"), nu)])
    field = chain.fields[1]
    return write_type(tmp_path, Type(chain, Poly(field, [field.one, field.one])), name)


def exact_int(text: str) -> int:
    """A decimal string read back with no digit limit, through decimal."""
    return int(decimal.Decimal(text))


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


def test_poly_starting_with_minus_after_an_equals_sign(capsys, tmp_path) -> None:
    """--poly=EXPR takes an expression that starts with -, which argparse
    would read as an option if given as a separate argument."""
    _, want, _ = run_cli(capsys, ["factor", "--prime", "3", "--poly", "x^2 - 2"])
    assert run_cli(capsys, ["factor", "--prime", "3", "--poly=-2+x^2"]) == (0, want, "")
    assert run_cli(capsys, ["eval", "--file", write_chain(tmp_path), "--poly=-x"])[0] == 0


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


def test_command_paths_run_no_poly_arithmetic_over_fq(capsys, monkeypatch) -> None:
    """F_q[y] arithmetic runs on finitefield's list kernel; on the command
    paths Poly over a residue field is only a container. Poly.evaluate,
    which returns an element, is not counted."""
    counts: Counter = Counter()

    def counting(name):
        real = getattr(Poly, name)

        def counted(self, *args):
            if self.ring is not QQ:
                counts[name] += 1
            return real(self, *args)

        return counted

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__divmod__", "__pow__",
                 "scale", "monic", "derivative"):
        monkeypatch.setattr(Poly, name, counting(name))
    monkeypatch.setattr(finitefield, "_factor_cache", {})  # no answer from earlier tests
    monkeypatch.setattr(cli, "_doc_cache", {})
    golden = ["deep_p2_factor_trace.txt", "tower_p5_factor_trace.txt",
              "tower_f64_p2_factor_trace.txt", "x100_plus_1_p3_factor.txt",
              "t4_type_optimize.txt", "top_shift_equiv.txt", "degenerate_equiv.txt",
              "p5_type_eval_residual.txt"]
    for argv in [CASES[name] for name in golden] + [["representative", "--file", P5_TYPE]]:
        code, _, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
    assert counts == Counter()


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
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100000 + "]" * 100000)
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff\xfe")
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
        ["factor", "--prime", "3", "--poly", "(" * 400 + "x" + ")" * 400],
        ["factor", "--prime", "3", "--file", str(deep_json)],
        ["optimize", "--file", str(deep_json)],
        ["factor", "--prime", "3", "--file", str(not_utf8)],
        ["optimize", "--file", str(not_utf8)],
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
    # A JSON array gets the text parser's limits and message.
    over_array = tmp_path / "over.json"
    over_array.write_text(json.dumps(["1"] * 1502))
    over_text = " + ".join(f"x^{k}" for k in range(1501, 0, -1)) + " + 1"
    over_limit = "polynomial degree 1501 exceeds the limit 1000"
    worded = [
        (["factor", "--prime", "3", "--file", str(tmp_path / "missing.txt")], "cannot read"),
        (["factor", "--prime", "3", "--file", str(bad_array)], "invalid JSON"),
        (["eval", "--file", write_chain(tmp_path)], "eval requires --poly"),
        (["factor", "--prime", "3", "--file", str(over_array)], over_limit),
        (["factor", "--prime", "3", "--poly", over_text], over_limit),
    ]
    # Type documents get the same limits: on psi_top, and on the representative.
    long_psi = tmp_path / "long_psi.json"
    long_psi.write_text(json.dumps({"p": 5, "levels": [], "psi_top": ["1"] * 1502}))
    worded.append((["optimize", "--file", str(long_psi)], over_limit))
    for nu, words in ((Fraction(10**6), "coefficient size bound"),
                      (Fraction(1, 10**6), "polynomial degree 1000000")):
        path = one_level_p2_type(tmp_path, nu, f"slope_{nu.denominator}.json")
        worded += [(["representative", "--file", path], words),
                   (["equiv", path, path], words)]
    # A bare JSON integer past the interpreter's digit limit is invalid JSON.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        big = "7" * (limit + 1)
        long_array = tmp_path / "long.json"
        long_array.write_text(f"[{big}, 1]")
        long_type = tmp_path / "long_type.json"
        long_type.write_text(f'{{"p": 5, "levels": [], "psi_top": [{big}, 1]}}')
        worded += [
            (["factor", "--prime", "3", "--file", str(long_array)], "invalid JSON"),
            (["optimize", "--file", str(long_type)], "invalid JSON"),
        ]
    for argv, words in worded:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and words in err and err.count("\n") == 1, argv


def test_non_prime_reported_by_the_prime_check(capsys) -> None:
    for prime in ("4", "1"):
        code, out, err = run_cli(capsys, ["factor", "--prime", prime, "--poly", "x^2 + 1"])
        assert (code, out, err) == (2, "", f"error: {prime} is not prime\n")


def test_type_document_with_reducible_psi_top_exits_two(capsys, tmp_path) -> None:
    path = tmp_path / "type.json"
    path.write_text(json.dumps({"p": 5, "levels": [], "psi_top": ["1", "0", "1"]}))
    code, out, err = run_cli(capsys, ["optimize", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: serialized type is not a valid type: "
        "modulus is reducible: ((-2,), (1,)) * ((2,), (1,))\n"
    )


def test_exit_code_three_on_precondition_failures(capsys) -> None:
    for poly in ["x^2", "2*x^2 + 1", "5"]:
        code, _, err = run_cli(capsys, ["factor", "--prime", "3", "--poly", poly])
        assert code == 3, poly
        assert err.startswith("error: ")


def test_exit_codes_live_on_the_error_classes() -> None:
    codes = [E.exit_code for E in (ConfigError, ParseError, PreconditionError, InternalError, OmError)]
    assert codes == [2, 2, 3, 4, 4]


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


def test_parser_built_once_without_leaks(capsys, tmp_path, monkeypatch) -> None:
    builds = []

    def counting():
        builds.append(1)
        return build()

    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    chain_path = write_chain(tmp_path)
    code, out, _ = run_cli(
        capsys, ["eval", "--file", chain_path, "--poly", "9", "--level", "0", "--level", "1"]
    )
    assert (code, out) == (0, "level 0: mu = 2, v = 2\nlevel 1: mu = 2, v = 4\n")
    code, out, _ = run_cli(capsys, ["eval", "--file", chain_path, "--poly", "9", "--level", "2"])
    assert (code, out) == (0, "level 2: mu = 2, v = 4\n")
    code, out, _ = run_cli(capsys, ["eval", "--file", chain_path, "--poly", "9", "--residual"])
    assert code == 0 and out.count("residual") == 5
    assert run_cli(capsys, ["factor", "--prime", "3", "--poly", "x - 1"])[0] == 0
    assert builds == [1]


def _outcome(capsys, argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of main(argv), argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_command_dispatch_matches_the_full_parse(capsys, tmp_path, monkeypatch) -> None:
    """main hands an argv that starts with a command word to that command's
    subparser alone. On help, errors, abbreviations and valid argvs it gives
    the exit code, stdout and stderr that the top-level parse_args gives,
    and on a valid argv the same namespace."""
    chain_path, type_path = write_chain(tmp_path), write_type(tmp_path, fixture_t4())
    argvs = [
        [],
        ["-h"],
        ["frobnicate"],
        ["fac", "--prime", "3", "--poly", "x"],
        ["factor", "-h"],
        ["factor", "--poly", "x - 1"],
        ["factor", "--prime", "three", "--poly", "x - 1"],
        ["factor", "--prime", "3", "--poly", "x - 1", "--bogus"],
        ["factor", "--prime", "3", "--poly", "x - 1", "stray"],
        ["factor", "--pri", "3", "--poly", "x - 1"],
        ["factor", "--prime", "3", "--poly", "-x"],
        ["factor", "--prime", "3", "--poly=-x"],
        ["eval", "--file", chain_path, "--poly=-x"],
        ["eval", "--file", chain_path, "--poly", "x", "--level", "x"],
        ["equiv", type_path],
        ["equiv", type_path, type_path],
        ["equiv", type_path, type_path, type_path],
        ["optimize", "--file", type_path, "--json"],
        ["representative", "-h"],
    ]
    got = [_outcome(capsys, argv) for argv in argvs]
    parse = cli._parse
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser.parse_args(argv))
    want = [_outcome(capsys, argv) for argv in argvs]
    assert got == want
    valid = [argv for argv, (code, _, _) in zip(argvs, got) if code != 2 and "-h" not in argv]
    assert len(valid) == 5
    assert [parse(argv) for argv in valid] == [cli._parser.parse_args(argv) for argv in valid]
    assert [code for code, _, _ in got] == [2, 0, 2, 2, 0, 2, 2, 2, 2, 0, 2, 3, 0, 2, 2, 0, 2, 0, 0]
    assert got[3][2].startswith("usage: omfactor [-h]")
    assert got[7][2].startswith("usage: omfactor [-h]")
    assert got[7][2].endswith("error: unrecognized arguments: --bogus\n")
    assert got[8][2].endswith("error: unrecognized arguments: stray\n")
    assert got[16][2].endswith(f"error: unrecognized arguments: {type_path}\n")
    assert got[6][2].startswith("usage: omfactor factor [-h]")


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


def _count_reads(monkeypatch) -> Counter:
    """Start from an empty document memo and count the CLI's reader calls."""
    counts: Counter = Counter()

    def counting(name):
        real = getattr(cli, name)

        def counted(doc):
            counts[name] += 1
            return real(doc)

        return counted

    for name in ("type_from_json", "chain_from_json"):
        monkeypatch.setattr(cli, name, counting(name))
    monkeypatch.setattr(cli, "_doc_cache", {})
    return counts


def test_doc_memo_validates_a_repeated_document_once(capsys, tmp_path, monkeypatch) -> None:
    """equiv T T reads T's text twice and validates it once; a later command
    on the same text validates nothing, and reading it as a chain is an
    entry of its own."""
    counts = _count_reads(monkeypatch)
    path = write_type(tmp_path, fixture_t4())
    code, out, _ = run_cli(capsys, ["equiv", path, path])
    assert (code, out.split("\n")[0]) == (0, "equivalent")
    assert counts == Counter(type_from_json=1)
    assert run_cli(capsys, ["representative", "--file", path]) == (0, QUARTIC + "\n", "")
    assert counts == Counter(type_from_json=1)
    for _ in range(2):
        assert run_cli(capsys, ["eval", "--file", path, "--poly", "x", "--level", "0"])[0] == 0
    assert counts == Counter(type_from_json=1, chain_from_json=1)
    assert len(cli._doc_cache) == 2


def test_doc_memo_rereads_an_edited_file(capsys, tmp_path, monkeypatch) -> None:
    counts = _count_reads(monkeypatch)
    path = write_type(tmp_path, fixture_t4())
    code, out, _ = run_cli(capsys, ["optimize", "--file", path])
    assert (code, out) == (0, "(y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))\n")
    one_level_p2_type(tmp_path, Fraction(1, 2), "type.json")
    code, out, _ = run_cli(capsys, ["optimize", "--file", path])
    assert (code, out) == (0, "(y; (x, 1/2, y + 1))\n")
    assert counts == Counter(type_from_json=2)


def test_doc_memo_stores_no_failing_document(capsys, tmp_path, monkeypatch) -> None:
    counts = _count_reads(monkeypatch)
    doc = type_to_json(fixture_t4())
    doc["levels"][1]["psi"] = [["1"], ["1"]]
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    for _ in range(2):
        code, out, err = run_cli(capsys, ["optimize", "--file", str(path)])
        assert (code, out, err) == (2, "", "error: level 2 psi does not match the chain\n")
    assert counts == Counter(type_from_json=2)
    assert cli._doc_cache == {}


def test_doc_memo_evicts_the_oldest_first(capsys, tmp_path, monkeypatch) -> None:
    counts = _count_reads(monkeypatch)
    monkeypatch.setattr(cli, "_DOC_CACHE_MAX", 2)
    paths = [one_level_p2_type(tmp_path, Fraction(k, 2), f"t{k}.json") for k in (1, 3, 5)]
    texts = [(tmp_path / f"t{k}.json").read_text() for k in (1, 3, 5)]
    for path in paths + [paths[0]]:
        assert run_cli(capsys, ["representative", "--file", path])[0] == 0
    assert counts == Counter(type_from_json=4)
    assert [text for _, text in cli._doc_cache] == [texts[2], texts[0]]


def test_integers_past_the_str_digit_limit_print_exactly(capsys, tmp_path) -> None:
    """A 20000-bit coefficient is inside the parser's limits, and its
    6021 decimal digits print in full in both modes."""
    big = 2**20000
    text = "x^2 + 2^20000"
    approx = factorize(parse_poly(text), 2)[0].approximation
    want = [int(c) for c in approx.coeffs]
    code, out, _ = run_cli(capsys, ["factor", "--prime", "2", "--poly", text])
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("  approximation "))
    head, b1, b0 = line.removeprefix("  approximation ").split(" + ")
    assert (head, b1[-2:]) == ("x^2", "*x")
    assert [exact_int(b0), exact_int(b1[:-2]), 1] == want
    code, out, _ = run_cli(capsys, ["factor", "--prime", "2", "--poly", text, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert [exact_int(c) for c in doc["poly"]] == [big, 0, 1]
    assert [exact_int(c) for c in doc["certificates"][0]["approximation"]] == want
    path = one_level_p2_type(tmp_path, Fraction(20000), "big.json")
    code, out, _ = run_cli(capsys, ["representative", "--file", path])
    assert code == 0
    assert out.startswith("x + ") and exact_int(out[4:]) == big
    code, out, _ = run_cli(capsys, ["representative", "--file", path, "--json"])
    assert code == 0
    assert [exact_int(c) for c in json.loads(out)["poly"]] == [big, 1]
