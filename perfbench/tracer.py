"""Per-layer tracer for omfactor, installed from outside the package.

`Tracer.install()` wraps the functions named in TARGETS and rebinds every
`omfactor.*` module global and class attribute that holds an original, so
calls made through names imported with `from .x import f` are traced too.

Each traced name keeps two aggregated counters: calls, and self time, which
is the wrapper's elapsed time minus the elapsed time of traced calls nested
inside it. Hot primitives keep counters only; the op itself and the SPANS
boundaries also record a span (op index, name, start, end, parent span).
`Poly` operators are attributed by coefficient ring: over the rationals to
`arith.*`, over an `Fq` ring to `finitefield.poly_*`.
"""

from __future__ import annotations

import sys
import time

perf = time.perf_counter

# metric name -> "module:attribute" targets; Class.attr patches the class.
TARGETS = {
    "arith.phi_expansion": ["arith:phi_expansion"],
    "arith.vp": ["arith:vp"],
    "arith.parse_poly": ["arith:parse_poly"],
    "arith.format_poly": ["arith:format_poly"],
    "finitefield.elt_mul": ["finitefield:FqElt.__mul__"],
    "finitefield.elt_add_sub": ["finitefield:FqElt.__add__", "finitefield:FqElt.__sub__"],
    "finitefield.elt_inverse": ["finitefield:FqElt.inverse"],
    "finitefield.gen": ["finitefield:Fq.gen"],
    "finitefield.fq_factor": ["finitefield:fq_factor"],
    "valuation.vi": ["valuation:_vi"],
    "valuation.augment": ["valuation:augment"],
    "valuation.key_check": ["valuation:key_check"],
    "valuation.collapse_step": ["valuation:collapse_step"],
    "valuation.expansion_points": ["valuation:expansion_points"],
    "residual.ri": ["residual:ri"],
    "residual.r0": ["residual:r0"],
    "residual.graded_lift": ["residual:graded_lift"],
    "polygon.lower_hull": ["polygon:lower_hull"],
    "typecalc.optimize": ["typecalc:optimize"],
    "typecalc.representative": ["typecalc:representative"],
    "typecalc.ord_type": ["typecalc:ord_type"],
    "typecalc.equivalent": ["typecalc:equivalent"],
    "montes.run": ["montes:_run"],
    "montes.branch": ["montes:_branch"],
    "montes.close": ["montes:_close"],
    "montes.certify": ["montes:certify"],
}

# Poly operator -> (metric over QQ, metric over an Fq ring)
RING_SPLIT = {
    "__mul__": ("arith.mul", "finitefield.poly_mul"),
    "__divmod__": ("arith.divmod", "finitefield.poly_divmod"),
    "__add__": ("arith.add_sub", "finitefield.poly_add_sub"),
    "__sub__": ("arith.add_sub", "finitefield.poly_add_sub"),
}

# The serialize boundary: public writers and readers. Only the outermost
# call of a group counts, so a writer calling another writer is one call.
GROUPS = {
    "serialize.write": [
        "canonical_json", "fraction_to_json", "qpoly_to_json", "fq_elt_to_json",
        "fq_poly_to_json", "points_to_json", "chain_to_json", "type_to_json",
        "residual_to_json", "cert_to_json", "format_fraction", "format_fq_elt",
        "format_fq_poly", "format_chain", "format_type", "format_residual",
        "format_points", "format_cert", "format_trace_event", "format_trace",
    ],
    "serialize.read": [
        "fraction_from_json", "qpoly_from_json", "fq_elt_from_json",
        "fq_poly_from_json", "chain_from_json", "type_from_json",
        "residual_from_json", "cert_from_json",
    ],
}

SPANS = {"montes.run", "montes.branch", "montes.close", "montes.certify",
         "serialize.write", "serialize.read"}


def metric_names() -> list[str]:
    names = list(TARGETS) + list(GROUPS)
    for pair in RING_SPLIT.values():
        names += [n for n in pair if n not in names]
    return names


def _omfactor_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "omfactor" or name.startswith("omfactor."))]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {n: [0, 0.0] for n in metric_names()}
        self.stats["cli"] = [0, 0.0]
        self._child = [0.0]  # traced time nested in the frame being timed
        self.spans: list[list] = []  # [op, name, start, end, parent]
        self._stack: list[int] = []
        self._op = [-1]
        self.originals: dict[int, object] = {}  # id -> original, kept alive
        self.missing: list[str] = []
        self._seen_factor_args: set = set()
        self.factor_repeats = 0

    # -- wrappers -----------------------------------------------------------

    def _counted(self, fn, stat):
        child = self._child

        def traced(*args, **kwargs):
            saved = child[0]
            child[0] = 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat[0] += 1
                stat[1] += dt - child[0]
                child[0] = saved + dt

        return traced

    def _ring_split(self, fn, qq_stat, fq_stat, qq_ring):
        child = self._child

        def traced(a, b):
            stat = qq_stat if a.ring is qq_ring else fq_stat
            saved = child[0]
            child[0] = 0.0
            t0 = perf()
            try:
                return fn(a, b)
            finally:
                dt = perf() - t0
                stat[0] += 1
                stat[1] += dt - child[0]
                child[0] = saved + dt

        return traced

    def _spanned(self, fn, name, stat, group_depth=None):
        child, spans, stack, op = self._child, self.spans, self._stack, self._op

        def traced(*args, **kwargs):
            if group_depth is not None:
                if group_depth[0]:
                    return fn(*args, **kwargs)
                group_depth[0] += 1
            idx = len(spans)
            spans.append([op[0], name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            saved = child[0]
            child[0] = 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - child[0]
                child[0] = saved + dt
                spans[idx][2], spans[idx][3] = t0, t1
                stack.pop()
                if group_depth is not None:
                    group_depth[0] -= 1

        return traced

    def _factor_counter(self, fn, stat):
        counted = self._counted(fn, stat)
        tracer = self

        def traced(g):
            out = counted(g)
            # The monic form is computed with traced arithmetic; keep that
            # bookkeeping out of every counter.
            snapshot = [(s, s[0], s[1]) for s in tracer.stats.values()]
            child = tracer._child[0]
            key = g.monic()
            for s, calls, self_s in snapshot:
                s[0], s[1] = calls, self_s
            tracer._child[0] = child
            if key in tracer._seen_factor_args:
                tracer.factor_repeats += 1
            else:
                tracer._seen_factor_args.add(key)
            return out

        return traced

    def wrap_op(self, cli_main):
        """The op span: its self time is op time outside every traced call."""
        op = self._op
        inner = self._spanned(cli_main, "cli", self.stats["cli"])

        def traced(argv):
            op[0] += 1
            return inner(argv)

        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        self.originals[id(orig)] = orig
        for mod in _omfactor_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import omfactor.cli  # noqa: F401  (loads every module to be patched)
        from omfactor import arith

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _omfactor_modules()}

        def resolve(target):
            modname, attr = target.split(":")
            owner = mods.get(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(target)
                return None, attr, None
            return owner, attr, vars(owner)[attr]

        for name, targets in TARGETS.items():
            for target in targets:
                owner, attr, orig = resolve(target)
                if orig is None:
                    continue
                if name == "finitefield.fq_factor":
                    wrapper = self._factor_counter(orig, self.stats[name])
                elif name in SPANS:
                    wrapper = self._spanned(orig, name, self.stats[name])
                else:
                    wrapper = self._counted(orig, self.stats[name])
                if isinstance(owner, type):
                    self.originals[id(orig)] = orig
                    setattr(owner, attr, wrapper)
                else:
                    self._rebind(orig, wrapper)
        for attr, (qq_name, fq_name) in RING_SPLIT.items():
            owner, attr, orig = resolve(f"arith:Poly.{attr}")
            if orig is not None:
                self.originals[id(orig)] = orig
                setattr(owner, attr, self._ring_split(
                    orig, self.stats[qq_name], self.stats[fq_name], arith.QQ))
        for name, funcs in GROUPS.items():
            depth = [0]
            for func in funcs:
                _, _, orig = resolve(f"serialize:{func}")
                if orig is not None:
                    self._rebind(orig, self._spanned(orig, name, self.stats[name], depth))

    def leftover_originals(self) -> list[str]:
        """Places in omfactor still holding an unwrapped traced function."""
        found = []
        for mod in _omfactor_modules():
            spaces = [(mod.__name__, vars(mod))]
            spaces += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
            for where, space in spaces:
                for key, val in space.items():
                    if id(val) in self.originals and self.originals[id(val)] is val:
                        found.append(f"{where}.{key}")
        return found

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.stats.items()},
            "fq_factor_repeats": self.factor_repeats,
            "spans": self.spans,
            "missing": self.missing,
        }
