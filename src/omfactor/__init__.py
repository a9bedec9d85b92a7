"""Exact arithmetic for inductive valuations on rational polynomials:
MacLane chains, higher-order Newton polygons, residual polynomial operators,
a type calculus with an equivalence decision, and a factorization driver
that certifies the p-adic prime factors of monic squarefree integer
polynomials.
"""

from __future__ import annotations

from .arith import INF, Poly, QQ, format_poly, parse_poly, qpoly, vp
from .errors import (
    ConfigError,
    InternalError,
    OmError,
    ParseError,
    PreconditionError,
)
from .finitefield import Fq, FqElt, fq_factor, is_irreducible
from .montes import FactorCertificate, RunResult, certify, factorize, run
from .polygon import Component, NewtonPolygon, apply_affinity, component_of, lower_hull
from .residual import ResidualResult, graded_lift, r0, ri
from .typecalc import (
    EquivWitness,
    Type,
    equivalent,
    okutsu_data,
    optimize,
    ord_type,
    representative,
    transport_residual,
)
from .valuation import (
    MacLaneChain,
    augment,
    build_chain,
    collapse_step,
    empty_chain,
    key_check,
    mu_eval,
    v_norm,
)

__all__ = [
    "INF",
    "Poly",
    "QQ",
    "format_poly",
    "parse_poly",
    "qpoly",
    "vp",
    "ConfigError",
    "InternalError",
    "OmError",
    "ParseError",
    "PreconditionError",
    "Fq",
    "FqElt",
    "fq_factor",
    "is_irreducible",
    "FactorCertificate",
    "RunResult",
    "certify",
    "factorize",
    "run",
    "Component",
    "NewtonPolygon",
    "apply_affinity",
    "component_of",
    "lower_hull",
    "ResidualResult",
    "graded_lift",
    "r0",
    "ri",
    "EquivWitness",
    "Type",
    "equivalent",
    "okutsu_data",
    "optimize",
    "ord_type",
    "representative",
    "transport_residual",
    "MacLaneChain",
    "augment",
    "build_chain",
    "collapse_step",
    "empty_chain",
    "key_check",
    "mu_eval",
    "v_norm",
]

__version__ = "0.1.0"
