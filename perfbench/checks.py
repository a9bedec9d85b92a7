"""Independent output checks, run in the parent after the timed worker ends.

sympy is the only oracle; nothing here imports omfactor. Each op gets a set
of failure classes (empty when it passed):
  raised          an exception escaped `cli.main`
  nonzero_exit    exit code other than 0 on a valid input
  certify_failed  a factor op did not print `certified ok`
  oracle_mismatch an independent check below disagrees with the output
A factor op with exit code 0 is checked whatever its certify verdict:
certificate degrees sum to deg f, e*f = degree for each certificate, the
product of the printed approximations is congruent to f mod p, and, when f
is squarefree mod p, the certificate degrees are the degrees of sympy's
factors of f over GF(p). An `equiv_self` op must print `equivalent`.
"""

from __future__ import annotations

import re
from fractions import Fraction

import sympy

from workloads import X, coeffs_of

CERT_RE = re.compile(r"^  degree (\d+), e = (\d+), f = (\d+)$")
APPROX_RE = re.compile(r"^  approximation (.+)$")
POWER_RE = re.compile(r"^x(?:\^(\d+))?$")


def parse_printed_poly(text: str) -> list[Fraction]:
    """Coefficients (constant first) of a polynomial as the CLI prints it:
    terms such as `x^4`, `-3/2*x`, `7`, joined by ` + ` and ` - `."""
    out: dict[int, Fraction] = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if "*" in tok:
            coeff, power = tok.split("*")
        elif tok.startswith("x"):
            coeff, power = "1", tok
        else:
            coeff, power = tok, ""
        k = 0
        if power:
            m = POWER_RE.match(power)
            if m is None:
                raise ValueError(f"unparsable term {tok!r}")
            k = int(m.group(1) or 1)
        out[k] = out.get(k, Fraction(0)) + sign * Fraction(coeff)
        sign = 1
    return [out.get(k, Fraction(0)) for k in range(max(out) + 1)]


def _divisible_by_p(c, p: int) -> bool:
    q = sympy.Rational(c)
    return q == 0 or (q.p % p == 0 and q.q % p != 0)


class FactorOracle:
    def __init__(self) -> None:
        self._coeffs: dict[str, list[int]] = {}

    def mismatches(self, p: int, poly: str, out: str) -> list[str]:
        f = self._coeffs.get(poly)
        if f is None:
            f = self._coeffs[poly] = coeffs_of(poly)
        certs, approx = [], []
        for line in out.split("\n"):
            m = CERT_RE.match(line)
            if m:
                certs.append(tuple(int(g) for g in m.groups()))
            m = APPROX_RE.match(line)
            if m:
                try:
                    approx.append(parse_printed_poly(m.group(1)))
                except ValueError:
                    return ["approximation not parsable"]
        problems = []
        if not certs or len(certs) != len(approx):
            return ["certificates not parsable"]
        n = len(f) - 1
        if sum(d for d, _, _ in certs) != n:
            problems.append("degree sum")
        if any(d != e * ff for d, e, ff in certs):
            problems.append("e*f")
        prod = sympy.Poly(1, X, domain=sympy.QQ)
        for a in approx:
            prod *= sympy.Poly(list(reversed(a)), X, domain=sympy.QQ)
        diff = sympy.Poly(list(reversed(f)), X, domain=sympy.QQ) - prod
        if not all(_divisible_by_p(c, p) for c in diff.all_coeffs()):
            problems.append("product mod p")
        fp = sympy.Poly(list(reversed(f)), X, modulus=p)
        if fp.gcd(fp.diff(X)).degree() == 0:
            want = sorted(g.degree() for g, m in fp.factor_list()[1] for _ in range(m))
            if sorted(d for d, _, _ in certs) != want:
                problems.append("degrees vs GF(p) factors")
        return problems


def failure_classes(op, rec: dict, oracle: FactorOracle) -> set[str]:
    if rec["raised"] is not None:
        return {"raised"}
    if rec["rc"] != 0:
        return {"nonzero_exit"}
    classes: set[str] = set()
    out = rec["out"]
    if op.kind == "factor":
        if "certified ok" not in out.split("\n"):
            classes.add("certify_failed")
        if oracle.mismatches(op.p, op.poly, out):
            classes.add("oracle_mismatch")
    elif op.kind == "equiv_self" and out.split("\n")[0] != "equivalent":
        classes.add("oracle_mismatch")
    return classes
