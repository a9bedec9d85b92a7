"""Seeded inputs for the benchmark workloads.

An op is the argv of one `omfactor` CLI call plus what the parent needs to
check its output. The ops of a run depend only on the workload name, the
seed and the run's seconds: a fixed `prefix`, whose output digest is
comparable between runs and commits, then a window of WINDOW_OPS_PER_S ops
per second. The number of ops never follows the machine's speed, so two runs
with the same arguments attempt, and fail, the same ops.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import sympy

X = sympy.Symbol("x")

# The degree-16, p = 2, Okutsu depth 4 input of the project's baseline.
ROADMAP_DEEP = (2, "(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41")

# Nested towers of degree 12-16 with maximal Okutsu depth >= 3. `{a}`..`{e}`
# take seeded p-adic units; units congruent to 1 mod p^2 keep the tower
# shape, so every seed costs about the same.
DEEP_TEMPLATES = [
    (2, "((x^3+2{a})^2 + 2^3{b}*x)^2 + 2^10{c}*x + 2^11{d}"),
    (3, "((x^2+3{a})^3 + 3^4{b}*x)^2 + 3^12{c}*x + 3^13{d}"),
    (5, "((x^2+5{a})^3 + 5^4{b}*x)^2 + 5^12{c}*x + 5^13{d}"),
    (3, "(((x^2+3{a})^2 + 3^3{b}*x)^2 + 3^7{c}*x)^2 + 3^20{d}*x + 3^21{e}"),
    (2, "(((x^2+2{a})^2 + 2^3{b}*x)^2 + 2^7{c})^2 + 2^20{d}*x + 2^21{e}"),
]

SWEEP_PRIMES = (2, 3, 5, 7)
BASELINE_SWEEP_TRIALS = 300

# Ops after the prefix per second of a run: about what the workload completes
# in that much op time at reference speed (see run.py).
WINDOW_OPS_PER_S = {"deep_tower": 2, "wide_shallow": 6, "random_sweep": 110,
                    "type_docs": 300}


@dataclass
class Op:
    argv: list[str]
    # "factor": check certificates against f; "equiv_self": the type must be
    # equivalent to its own optimized form; "plain": exit code only.
    kind: str
    p: int = 0
    poly: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    prefix: int
    notes: dict = field(default_factory=dict)


def poly_text(coeffs: list[int]) -> str:
    """Expanded text of an integer polynomial, constant first, highest power
    printed first."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "x" if k == 1 else f"x^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def coeffs_of(text: str) -> list[int]:
    """Integer coefficients (constant first) of a polynomial text, via sympy."""
    g = sympy.Poly(sympy.sympify(text.replace("^", "**")), X)
    return [int(c) for c in reversed(g.all_coeffs())]


def squarefree(coeffs: list[int]) -> bool:
    g = sympy.Poly(list(reversed(coeffs)), X, domain=sympy.ZZ)
    return g.gcd(g.diff(X)).degree() == 0


def factor_op(p: int, text: str) -> Op:
    return Op(["factor", "--prime", str(p), "--poly", text], "factor", p, text)


def _unit(rng: random.Random, p: int) -> str:
    u = 1 + p * p * rng.randrange(4)
    return "" if u == 1 else f"*{u}"


def deep_tower(seed: int, window: int = 0) -> Workload:
    """The degree-16 input and one cycle of templates, then `window` ops of
    further cycles."""
    rng = random.Random(seed)
    prefix = 1 + len(DEEP_TEMPLATES)
    ops = [factor_op(*ROADMAP_DEEP)]
    while len(ops) < prefix + window:
        for p, tpl in DEEP_TEMPLATES:
            units = {k: _unit(rng, p) for k in "abcde"}
            ops.append(factor_op(p, tpl.format(**units)))
    return Workload("deep_tower", ops[:prefix + window], prefix)


def _eisenstein(rng: random.Random, p: int, n: int) -> Op:
    c0 = p * rng.choice([c for c in range(1, 2 * p) if c % p])
    coeffs = [c0] + [p * rng.randint(-p, p) for _ in range(n - 1)] + [1]
    return factor_op(p, poly_text(coeffs))


def _linear_product(rng: random.Random, p: int, k: int) -> Op:
    coeffs = [1]
    for r in rng.sample(range(p), k):
        a = r + p * rng.randint(-2, 2)
        # multiply by (x - a)
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= a * coeffs[i + 1]
    return factor_op(p, poly_text(coeffs))


# (p, degree) of successive Eisenstein inputs. Larger primes get smaller
# degrees, so the costs bunch together and the tail percentile does not sit
# on a steep step between a few very slow ops and the rest.
EISENSTEIN_SCHEDULE = [(2, 48), (3, 44), (5, 40), (7, 36), (2, 40), (3, 34), (5, 30), (7, 24)]


def wide_shallow(seed: int, window: int = 0) -> Workload:
    # Primes and degrees follow a fixed schedule and the seed draws the
    # coefficients, so every seed gets the same mix of op costs. Two
    # Eisenstein inputs per linear product keep the median op inside the
    # Eisenstein cost range instead of between the two clusters.
    rng = random.Random(seed)
    prefix = 12
    ops: list[Op] = []
    i = 0
    while len(ops) < prefix + window:
        for j in (2 * i, 2 * i + 1):
            ops.append(_eisenstein(rng, *EISENSTEIN_SCHEDULE[j % len(EISENSTEIN_SCHEDULE)]))
        p = (11, 13, 17, 19, 23, 29, 31)[i % 7]
        ops.append(_linear_product(rng, p, min(p, (10, 16, 22, 13, 19, 24)[i % 6])))
        i += 1
    return Workload("wide_shallow", ops[:prefix + window], prefix)


def sweep_stream(seed: int):
    """The baseline sweep: p in {2,3,5,7}, degree 2-10, monic, low
    coefficients randint(-3,3) * p**randint(0,6). Yields (trial, p,
    coefficients) for the squarefree inputs, without end."""
    rng = random.Random(seed)
    for trial in itertools.count():
        p = rng.choice(SWEEP_PRIMES)
        d = rng.randint(2, 10)
        coeffs = [rng.randint(-3, 3) * p ** rng.randint(0, 6) for _ in range(d)] + [1]
        if squarefree(coeffs):
            yield trial, p, coeffs


def sweep_inputs(seed: int, trials: int) -> list[tuple[int, int, list[int]]]:
    """The squarefree inputs of the first `trials` trials of the sweep."""
    return list(itertools.takewhile(lambda t: t[0] < trials, sweep_stream(seed)))


def random_sweep(seed: int, window: int = 0) -> Workload:
    """The valid inputs of the first 300 trials, then the next `window`
    valid inputs."""
    prefix = len(sweep_inputs(seed, BASELINE_SWEEP_TRIALS))
    inputs = list(itertools.islice(sweep_stream(seed), prefix + window))
    ops = [factor_op(p, poly_text(c)) for _, p, c in inputs]
    trials = inputs[-1][0] + 1
    notes = {"trials": trials, "not_squarefree": trials - len(inputs)}
    return Workload("random_sweep", ops, prefix, notes)


def type_doc_sources(seed: int) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Factor inputs whose certificate types become type_docs documents: the
    seed's first deep_tower cycle and its baseline-sweep inputs. The
    degree-16 inputs are left out, because each takes seconds to factor
    before timing starts."""
    deep = deep_tower(seed).ops
    return ([(deep[i].p, deep[i].poly) for i in (1, 2, 3, 5)],
            [(p, poly_text(c)) for _, p, c in sweep_inputs(seed, 400)])


GENERATORS = {
    "deep_tower": deep_tower,
    "wide_shallow": wide_shallow,
    "random_sweep": random_sweep,
}
