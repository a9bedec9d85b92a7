"""Command-line interface.

Commands: factor, equiv, eval, optimize, representative. Output is
deterministic: identical inputs produce byte-identical text or JSON.
Exit codes: 0 success, 2 parse or configuration error, 3 precondition
failure reported by the library, 4 internal error (a failed consistency
check or the exhausted node budget). Each type or chain document text is
decoded and validated once per process (_load_doc), and an argv that
starts with a command word goes straight to that command's parser (_parse).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import INF, Poly, format_poly, parse_poly
from .errors import ConfigError, OmError, ParseError
from .montes import _run, certify
from .residual import ri
from .serialize import (
    canonical_json,
    cert_to_json,
    chain_from_json,
    fq_elt_to_json,
    format_cert,
    format_fq_elt,
    format_residual,
    format_trace,
    format_type,
    fraction_to_json,
    qpoly_from_json,
    qpoly_to_json,
    residual_to_json,
    type_from_json,
    type_to_json,
)
from .typecalc import equivalent, optimize, representative
from .valuation import v_norm


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_json(text: str, path: str):
    """json.loads with every decoding failure a ParseError: malformed JSON
    and an integer longer than the interpreter converts (both ValueError),
    and nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


# Memo of validated documents, keyed by (reader, text); past the cap the
# oldest is evicted.
_DOC_CACHE_MAX = 4096
_doc_cache: dict[tuple, object] = {}


def _load_doc(path: str, reader):
    """reader (type_from_json or chain_from_json) applied to the JSON document
    at path. The file is read on every call; a text this process already
    validated with the same reader is served from the memo, with no decoding
    and no check, and the value returned may be shared with that call. A
    document that fails raises on every call and stores nothing."""
    text = _read_text(path)
    key = (reader, text)
    value = _doc_cache.get(key)
    if value is None:
        value = reader(_parse_json(text, path))
        if len(_doc_cache) >= _DOC_CACHE_MAX:
            del _doc_cache[next(iter(_doc_cache))]
        _doc_cache[key] = value
    return value


def _load_input_poly(args: argparse.Namespace) -> Poly:
    """Inline expression or file; a file may hold an expression or a JSON
    coefficient array (constant first)."""
    if (args.poly is None) == (args.file is None):
        raise ConfigError("provide exactly one of --poly and --file")
    if args.poly is not None:
        return parse_poly(args.poly)
    text = _read_text(args.file).strip()
    if text.startswith("["):
        return qpoly_from_json(_parse_json(text, args.file))
    return parse_poly(text)


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def cmd_factor(args: argparse.Namespace) -> int:
    f = _load_input_poly(args)
    if args.precision_floor is not None and args.precision_floor < 1:
        raise ConfigError("--precision-floor must be at least 1")
    result = _run(f, args.prime)
    certs = result.certificates
    floor = result.floor if args.precision_floor is None else args.precision_floor
    if args.json:
        doc = {
            "p": args.prime,
            "poly": qpoly_to_json(f),
            "certificates": [cert_to_json(c) for c in certs],
            "precision_floor": floor,
        }
        if args.trace:
            doc["trace"] = format_trace(result.events).split("\n")
        _print(canonical_json(doc))
        return 0
    if args.trace:
        _print(format_trace(result.events))
    for k, cert in enumerate(certs, start=1):
        _print(f"certificate {k}:")
        _print(format_cert(cert, "  "))
    _print(f"precision floor {floor}")
    report = certify(f, args.prime, certs, floor)
    if report.ok:
        _print("certified ok")
    else:
        for chk in report.checks:
            if not chk.ok:
                _print(f"certify FAILED {chk.name}: {chk.detail}")
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    ta = _load_doc(args.type_a, type_from_json)
    tb = _load_doc(args.type_b, type_from_json)
    if ta.chain.p != tb.chain.p:
        raise ConfigError("types are defined over different primes")
    opt_a, opt_b = optimize(ta), optimize(tb)
    witness = equivalent(opt_a, opt_b)
    if args.json:
        doc = {
            "equivalent": witness.equivalent,
            "failed": witness.failed,
            "degenerate": witness.degenerate,
            "etas": [fq_elt_to_json(e) for e in witness.etas],
            "optimized_a": type_to_json(opt_a),
            "optimized_b": type_to_json(opt_b),
        }
        _print(canonical_json(doc))
        return 0
    if witness.equivalent:
        _print("equivalent")
    else:
        extra = " (degenerate)" if witness.degenerate else ""
        _print(f"not equivalent: failed at {witness.failed}{extra}")
    if witness.etas:
        etas = ", ".join(format_fq_elt(e) for e in witness.etas)
        _print(f"eta witnesses [{etas}]")
    _print(f"optimized A: {format_type(opt_a)}")
    _print(f"optimized B: {format_type(opt_b)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.file is None:
        raise ConfigError("eval requires --file with a chain document")
    if args.poly is None:
        raise ConfigError("eval requires --poly")
    chain = _load_doc(args.file, chain_from_json)
    g = parse_poly(args.poly)
    levels = args.level if args.level else list(range(chain.r + 1))
    rows = []
    lines = []
    for i in levels:
        # One walk gives value and residual; v_norm reports a bad level.
        res = ri(chain, i, g) if args.residual and 0 <= i <= chain.r else None
        v = v_norm(chain, i, g) if res is None else chain.residual_value(i, res)
        zero = v == INF
        mu = "INF" if zero else Fraction(v, chain.e_cum[i])
        row: dict = {
            "level": i,
            "mu": "INF" if zero else fraction_to_json(mu),
            "v": "INF" if zero else v,
        }
        lines.append(f"level {i}: mu = {mu}, v = {row['v']}")
        if res is not None:
            row["residual"] = residual_to_json(res)
            lines.append(f"  residual {format_residual(res)}")
        rows.append(row)
    if args.json:
        _print(canonical_json({"p": chain.p, "poly": qpoly_to_json(g), "levels": rows}))
    else:
        _print("\n".join(lines))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.file is None:
        raise ConfigError("optimize requires --file with a type document")
    t = optimize(_load_doc(args.file, type_from_json))
    if args.json:
        _print(canonical_json(type_to_json(t)))
    else:
        _print(format_type(t))
    return 0


def cmd_representative(args: argparse.Namespace) -> int:
    if args.file is None:
        raise ConfigError("representative requires --file with a type document")
    rep = representative(_load_doc(args.file, type_from_json))
    if args.json:
        _print(canonical_json({"poly": qpoly_to_json(rep)}))
    else:
        _print(format_poly(rep))
    return 0


# argparse reads a separate argument that starts with "-" and has no space
# as an option, so "--poly -x" fails; "--poly=-x" does not.
_POLY_HELP = "inline polynomial expression in x; write --poly=EXPR if EXPR starts with -"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command word's subparser."""
    top = argparse.ArgumentParser(
        prog="omfactor",
        description="Exact p-adic polynomial factorization via inductive valuations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a monic squarefree polynomial")
    p_factor.add_argument("--prime", type=int, required=True)
    p_factor.add_argument("--poly", help=_POLY_HELP)
    p_factor.add_argument("--file", help="file with an expression or JSON coefficients")
    p_factor.add_argument("--json", action="store_true")
    p_factor.add_argument("--trace", action="store_true")
    p_factor.add_argument("--precision-floor", type=int, default=None)
    p_factor.set_defaults(fn=cmd_factor)

    p_equiv = sub.add_parser("equiv", help="decide equivalence of two type files")
    p_equiv.add_argument("type_a")
    p_equiv.add_argument("type_b")
    p_equiv.add_argument("--json", action="store_true")
    p_equiv.set_defaults(fn=cmd_equiv)

    p_eval = sub.add_parser("eval", help="evaluate a chain on a polynomial")
    p_eval.add_argument("--file", help="chain JSON document")
    p_eval.add_argument("--poly", help=_POLY_HELP)
    p_eval.add_argument("--level", type=int, action="append")
    p_eval.add_argument("--residual", action="store_true")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_opt = sub.add_parser("optimize", help="optimize a type file")
    p_opt.add_argument("--file", help="type JSON document")
    p_opt.add_argument("--json", action="store_true")
    p_opt.set_defaults(fn=cmd_optimize)

    p_rep = sub.add_parser("representative", help="representative of a type file")
    p_rep.add_argument("--file", help="type JSON document")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(fn=cmd_representative)

    commands = {"factor": p_factor, "equiv": p_equiv, "eval": p_eval,
                "optimize": p_opt, "representative": p_rep}
    return top, commands


# Built on the first main call and reused: parse_args fills a fresh
# namespace on every call, so no value carries over between calls.
_parser: argparse.ArgumentParser | None = None
_commands: dict[str, argparse.ArgumentParser] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top-level parse_args. A command word's argv goes to that command's
    parser alone, as the top level would hand it, and gives the namespace
    the full parse gives; any other argv, and one with arguments left over,
    takes the full parse, so help and every error message are the ones the
    full parse gives."""
    sub = _commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    global _parser, _commands
    if _parser is None:
        _parser, _commands = _build_parser()
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except OmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
