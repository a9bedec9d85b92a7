"""The benchmark's tracer wraps library functions by name; a rename would
silently zero its per-layer counters. The tracer module is only read here,
never installed."""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from omfactor import cli, montes, valuation

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defines(target: str) -> bool:
    """Whether "module:name" or "module:Class.name" is defined where the
    tracer looks for it: in the namespace of that module or class."""
    modname, attr = target.split(":")
    owner = importlib.import_module(f"omfactor.{modname}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner).get(cls_name)
    return owner is not None and attr in vars(owner)


def test_tracer_targets_resolve() -> None:
    tracer = _load_tracer()
    targets = [t for group in tracer.TARGETS.values() for t in group]
    targets += [f"serialize:{name}" for names in tracer.GROUPS.values() for name in names]
    targets += [f"arith:Poly.{attr}" for attr in tracer.RING_SPLIT]
    targets.append("arith:QQ")
    assert [t for t in targets if not _defines(t)] == []


def test_traced_names_are_on_the_command_path(monkeypatch, capsys) -> None:
    """The key check, collapse and node expansion that the tracer counts
    under their public names are the ones the commands run."""
    counts: dict[str, int] = {}

    def count(fn):
        counts[fn.__name__] = 0

        def counted(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        return counted

    targets = [valuation.key_check, valuation.collapse_step, valuation.expansion_points,
               valuation.augment, montes._branch]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "omfactor"]
    for fn in targets:
        wrapper = count(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(valuation, "_chain_cache", {})  # optimize validates its chain
    deep = "(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41"
    golden = Path(__file__).resolve().parent / "data" / "golden" / "t4_type.json"
    assert cli.main(["factor", "--prime", "2", "--poly", deep]) == 0
    assert cli.main(["optimize", "--file", str(golden)]) == 0
    capsys.readouterr()
    assert counts["key_check"] == counts["augment"] > 0
    assert counts["collapse_step"] > 0
    assert counts["expansion_points"] >= counts["_branch"] > 0


def test_type_docs_workload_builds_on_the_library(tmp_path) -> None:
    """The type_docs workload writes its documents with the library itself
    (chains, levels, key values, representatives, graded lifts), so a
    reshaped library surface would leave that benchmark without ops."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "typedocs.py"),
                          str(ROOT / "src"), "1", str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    kinds = Counter(op["argv"][0] for op in json.loads(out.stdout))
    assert all(kinds[cmd] > 0 for cmd in ("optimize", "representative", "equiv", "eval")), kinds
