"""Byte-identity of the command line on tower-heavy inputs.

Each case runs cli.main in-process and compares stdout with a file under
tests/data/golden/. The files were written by the code that predates the
flat residue-field representation, so a change in how tower elements are
stored, multiplied or rendered shows here as a diff. The cases cover the
degree-16 p = 2 input (seventeen nodes, thirteen of which replace a
stationary top level), a p = 5 input whose tower has a degree-2 level
above degree-1 levels (its trace and type render z generators and nested
coordinate arrays), and the README quartic. The factor cases whose walk
replaces a stationary top were rewritten by the code that first did so,
since their certificate slopes and trace levels changed. Two more cases, written by the code that predates the single
residual walk (one expansion of f per node key), pin the exact-divisor
path: x^3 - 9x at p = 3 has the exact divisor x at level 1, on a polygon
with two sides, and x^3 - 6x^2 - 32x + 32 at p = 2 has the exact divisor
x + 4 at level 2, where the perturbed key comes from a graded lift; the
latter's file was rewritten by the code that builds each certificate once,
where its branch closes, so its close block shows the divisor x + 4 as the
approximation, not the lifted representative x + 132. The
last two cases, written by the code that stored every rational coefficient
as a Fraction, pin the wide integer paths: a degree-48 Eisenstein input at
p = 2 and a product of ten linear factors at p = 11. The optimize cases,
written by the code that carried psi_top into the collapsed chain through a
hand-built tower map, pin the optimization path: the four-level p = 3 type
has stationary levels 2 and 3 and collapses to two levels. The equiv
cases, written by the code that transported the whole residual tower
through the key shifts, pin the decision: an equivalent pair over p = 3
whose top keys differ by a shift with nonzero residue, and a p = 2 pair
that keeps psi_top = y + eta across such a shift and fails degenerately.
The x^100 + 1 cases at p = 3, written by the code that factored over F_q
on generic Poly arithmetic, pin fq_factor on a large residual polynomial:
ten irreducible factors of degree 2 to 20. The F_64 cases at p = 2, written
by the code that reduced tower products with a loop of their own, pin a
tower product over a base that is not a prime field: the level-2 field is
F_64 = F_4[y]/(y^3 + z0). Each case starts from an empty chain memo, and
each case that reads type documents (optimize, equiv, eval) runs twice,
so that its second run reads its chains from build_chain's memo.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from omfactor import valuation
from omfactor.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEEP_P2 = "(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41"
TOWER_P5 = "((x^2+5)^3 + 5^4*x)^2 + 5^12*x + 5^13"
TOWER_F64_P2 = "((x^2+x+1)^3 + 8*x)^2 + 2^7*x"
P5_TYPE = str(GOLDEN / "p5_type.json")
T4_TYPE = str(GOLDEN / "t4_type.json")
TOP_SHIFT = [str(GOLDEN / "top_shift_a.json"), str(GOLDEN / "top_shift_b.json")]
DEGENERATE = [str(GOLDEN / "degenerate_a.json"), str(GOLDEN / "degenerate_b.json")]
# The first Eisenstein input and the first linear product of the
# wide_shallow benchmark workload, seed 1.
EISENSTEIN48_P2 = (
    "x^48 - 2*x^47 - 4*x^46 + 4*x^45 + 2*x^44 - 4*x^43 + 2*x^41 - 2*x^40 - "
    "2*x^39 - 2*x^37 + 4*x^36 + 2*x^35 + 2*x^34 - 2*x^33 + 4*x^32 - 4*x^31 "
    "+ 2*x^30 - 2*x^29 + 2*x^28 - 4*x^27 + 4*x^26 - 4*x^25 - 4*x^24 - "
    "4*x^23 - 4*x^21 + 4*x^20 - 2*x^19 + 2*x^17 - 4*x^16 + 4*x^15 + 2*x^14 "
    "+ 2*x^13 - 4*x^12 + 2*x^11 - 4*x^10 - 2*x^9 + 2*x^8 + 2*x^7 + 2*x^6 + "
    "2*x^5 - 4*x^4 - 4*x^2 + 4*x + 2"
)
LINEAR10_P11 = (
    "x^10 - 51*x^9 - 149*x^8 + 30809*x^7 + 38569*x^6 - 7309609*x^5 - "
    "40252791*x^4 + 488763731*x^3 + 5499359490*x^2 + 18772858800*x + "
    "21544380000"
)

CASES = {
    "deep_p2_factor_trace.txt": ["factor", "--prime", "2", "--poly", DEEP_P2, "--trace"],
    "tower_p5_factor_trace.txt": ["factor", "--prime", "5", "--poly", TOWER_P5, "--trace"],
    "tower_p5_factor_json_trace.json": [
        "factor", "--prime", "5", "--poly", TOWER_P5, "--json", "--trace",
    ],
    "tower_f64_p2_factor_trace.txt": ["factor", "--prime", "2", "--poly", TOWER_F64_P2, "--trace"],
    "tower_f64_p2_factor_json_trace.json": [
        "factor", "--prime", "2", "--poly", TOWER_F64_P2, "--json", "--trace",
    ],
    "quartic_p3_factor.txt": ["factor", "--prime", "3", "--poly", "x^4 + 30*x^2 + 6786"],
    "p5_type_eval_residual.txt": ["eval", "--file", P5_TYPE, "--poly", TOWER_P5, "--residual"],
    "p5_type_equiv.json": ["equiv", P5_TYPE, P5_TYPE, "--json"],
    "exact_p3_factor_trace.txt": ["factor", "--prime", "3", "--poly", "x^3 - 9*x", "--trace"],
    "exact_level2_p2_factor_trace.txt": [
        "factor", "--prime", "2", "--poly", "x^3 - 6*x^2 - 32*x + 32", "--trace",
    ],
    "eisenstein48_p2_factor_trace.txt": [
        "factor", "--prime", "2", "--poly", EISENSTEIN48_P2, "--trace",
    ],
    "linear10_p11_factor_json_trace.json": [
        "factor", "--prime", "11", "--poly", LINEAR10_P11, "--json", "--trace",
    ],
    "t4_type_optimize.txt": ["optimize", "--file", T4_TYPE],
    "t4_type_optimize.json": ["optimize", "--file", T4_TYPE, "--json"],
    "t4_type_equiv.json": ["equiv", T4_TYPE, T4_TYPE, "--json"],
    "top_shift_equiv.txt": ["equiv", *TOP_SHIFT],
    "top_shift_equiv.json": ["equiv", *TOP_SHIFT, "--json"],
    "degenerate_equiv.txt": ["equiv", *DEGENERATE],
    "degenerate_equiv.json": ["equiv", *DEGENERATE, "--json"],
    "x100_plus_1_p3_factor.txt": ["factor", "--prime", "3", "--poly", "x^100 + 1"],
    "x100_plus_1_p3_factor.json": ["factor", "--prime", "3", "--poly", "x^100 + 1", "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, monkeypatch, name: str) -> None:
    monkeypatch.setattr(valuation, "_chain_cache", {})
    reads_types = CASES[name][0] in ("optimize", "equiv", "eval")
    for _ in range(2 if reads_types else 1):
        code = main(CASES[name])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()
    assert bool(valuation._chain_cache) == reads_types
