"""The benchmark's tracer wraps library functions by name; a rename would
silently zero its per-layer counters. The tracer module is only read here,
never installed."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
