"""Writes the type_docs documents, before any timing, in a process of its own.

Usage: python3 typedocs.py SRC_DIR SEED OUT_DIR

Factors the seed's source inputs with the library and keeps every distinct
deep certificate type and a fixed number of sweep certificate types per
order (SWEEP_TYPES_PER_ORDER). For every kept type T it writes:
  - T itself (it doubles as the chain document for `eval`),
  - optimize(T), the form `equiv` must find T equivalent to,
  - V: T with a stationary level injected on top, and optimize(V),
  - S: siblings of T whose top key is shifted by a graded lift of value
    equal to (near) or above (far) the key value.
Prints the op list as JSON on stdout. Variants that the library rejects are
left out; the documents depend only on the seed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

# Distinct sweep types kept per order (2 stands for >= 2).
SWEEP_TYPES_PER_ORDER = {0: 40, 1: 80, 2: 8}


def main(argv: list[str]) -> int:
    src, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from omfactor import (
        OmError, Poly, Type, augment, build_chain, factorize, format_poly,
        fq_factor, optimize, parse_poly, representative, ri,
    )
    from omfactor.residual import graded_lift
    from omfactor.serialize import canonical_json, type_to_json

    from workloads import type_doc_sources

    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    def write(t: Type) -> str:
        text = canonical_json(type_to_json(t))
        if text not in written:
            path = out_dir / f"t{len(written):03d}.json"
            path.write_text(text + "\n")
            written[text] = path.as_posix()
        return written[text]

    def top_y_plus_1(chain) -> Type:
        field = chain.fields[chain.r]
        return Type(chain, Poly(field, [field.one, field.one]))

    def inject(t: Type) -> Type:
        # Two e = 1 levels keyed by successive representatives; the lower
        # one has f = 1, so it is stationary and optimize collapses it.
        nu = Fraction(1, t.chain.e_cum[t.chain.r])
        t1 = top_y_plus_1(augment(t.chain, representative(t), nu))
        return top_y_plus_1(augment(t1.chain, representative(t1), nu))

    def shifted(t: Type, extra: int) -> Type:
        chain, r = t.chain, t.chain.r
        lev = chain.level(r)
        kv = chain.key_value(r)
        w = kv + extra * lev.e if kv % lev.e == 0 else (kv // lev.e + extra + 1) * lev.e
        delta = graded_lift(chain, r, w, chain.fields[r].one)
        steps = chain.steps()
        steps[-1] = (lev.phi + delta, lev.nu)
        new_chain = build_chain(chain.p, steps)
        res = ri(new_chain, r, representative(t))
        psis = [g for g, m in fq_factor(res.poly) if m == 1 and g.degree == t.psi_top.degree]
        if not psis:
            raise ValueError("no matching residual factor")
        return Type(new_chain, psis[0])

    # Every distinct deep type, then sweep types up to a fixed count per
    # order, so each seed gets the same mix of orders.
    types: dict = {}
    deep, sweep = type_doc_sources(seed)
    for p, text in deep:
        for cert in factorize(parse_poly(text), p):
            types.setdefault(canonical_json(type_to_json(cert.final_type)), cert)
    left = dict(SWEEP_TYPES_PER_ORDER)
    for p, text in sweep:
        if not any(left.values()):
            break
        for cert in factorize(parse_poly(text), p):
            key = canonical_json(type_to_json(cert.final_type))
            order = min(cert.final_type.chain.r, 2)
            if key not in types and left[order]:
                types[key] = cert
                left[order] -= 1

    ops: list[dict] = []

    def add(argv: list[str], kind: str = "plain") -> None:
        ops.append({"argv": argv, "kind": kind})

    for cert in types.values():
        t = cert.final_type
        doc, opt = write(t), write(optimize(t))
        add(["optimize", "--file", doc])
        add(["representative", "--file", doc])
        add(["equiv", doc, opt], "equiv_self")
        add(["eval", "--file", doc, "--poly", format_poly(cert.approximation), "--residual"])
        try:
            v = inject(t)
        except (OmError, ValueError):
            v = None
        if v is not None:
            vdoc = write(v)
            add(["optimize", "--file", vdoc])
            add(["equiv", vdoc, write(optimize(v))], "equiv_self")
            add(["representative", "--file", vdoc])
        if t.chain.r == 0:
            continue
        for extra in (0, 1):
            try:
                add(["equiv", doc, write(shifted(t, extra))])
            except (OmError, ValueError):
                pass
    json.dump(ops, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
