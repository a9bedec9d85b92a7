"""Records: immutable values built by their constructors, field elements
that nothing in the package reassigns, an import of the command line
that loads none of dataclasses, inspect and pathlib, and the package's
caches, exactly the ones README lists."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import omfactor
from genchains import fixture_poly
from omfactor import certify, equivalent, lower_hull, parse_poly, run
from omfactor.montes import CertCheck, RootResidual, RunResult
from omfactor.record import Record
from omfactor.residual import ri


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Every record but the mutable RunResult, so a new record is tested here too.
RECORDS = sorted(set(_subclasses(Record)) - {RunResult}, key=lambda cls: cls.__name__)


@functools.cache
def _samples() -> dict[type, list]:
    """Instances of each record class, from the walks that build them."""
    found: dict[type, list] = {}
    for f, p in [(fixture_poly(3), 3), (fixture_poly(5), 5), (parse_poly("x^3 - 9*x"), 3)]:
        result = run(f, p)
        report = certify(f, p, result.certificates, result.floor)
        hull = lower_hull([(0, 2 * p), (1, p), (3, 1), (4, 1)])
        objs = [*result.events, *result.certificates, report, *report.checks, hull, *hull.sides()]
        for cert in result.certificates:
            t = cert.final_type
            objs += [t, t.chain, *t.chain.levels, equivalent(t, t), ri(t.chain, t.chain.r, f),
                     cert.approximation, t.psi_top]
        for obj in objs:
            found.setdefault(type(obj), []).append(obj)
    return found


def _args(obj) -> dict:
    """The constructor's arguments: the slots under the base constructor,
    the parameters under a record's own."""
    cls = type(obj)
    names = cls.__slots__ if cls.__init__ is Record.__init__ else inspect.signature(cls).parameters
    return {name: getattr(obj, name) for name in names}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls) -> None:
    """Positional and keyword constructors build equal records with equal
    hashes; records are equal exactly when their fields are; setting or
    deleting a field raises."""
    objs = _samples()[cls]
    for obj in objs:
        args = _args(obj)
        by_position, by_keyword = cls(*args.values()), cls(**args)
        assert by_position == by_keyword == obj
        assert hash(by_position) == hash(by_keyword) == hash(obj)
        assert repr(obj).startswith(f"{cls.__name__}({next(iter(args))}=")
        for name, value in args.items():
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    for a in objs:
        for b in objs:
            assert (a == b) == (_args(a) == _args(b))
    assert objs[0] != object()


def test_base_constructor_rejects_bad_arguments() -> None:
    """Too many positional arguments, a missing field, an unknown keyword and
    a field given both by position and by keyword each raise TypeError."""
    assert CertCheck("degree-sum", True, detail="ok") == CertCheck("degree-sum", True, "ok")
    for args, kwargs in [(("degree-sum", True, "ok", "extra"), {}),
                         (("degree-sum", True), {}),
                         (("degree-sum", True, "ok"), {"level": 1}),
                         (("degree-sum", True, "ok"), {"name": "degree-sum"})]:
        with pytest.raises(TypeError):
            CertCheck(*args, **kwargs)


def test_run_result_is_mutable() -> None:
    a, b = RunResult(), RunResult()
    a.tick()
    a.events.append(RootResidual(fixture_poly(3)))
    assert (b.certificates, b.events, b.nodes, b.floor) == ([], [], 0, 1)
    want = RunResult()
    want.nodes = 1
    want.events.append(RootResidual(fixture_poly(3)))
    assert a == want != b
    with pytest.raises(TypeError):
        hash(a)


def test_no_source_assigns_a_field_element_slot() -> None:
    """FqElt has no run-time guard, so the source is checked instead: outside
    FqElt.__init__, nothing in src/omfactor assigns or deletes an attribute
    named rep or field, or names one in setattr, object.__setattr__ or _set."""
    slots, setters = {"rep", "field"}, {"setattr", "__setattr__", "_set"}
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "omfactor").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "FqElt":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        allowed = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = node.attr in slots
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                hit = name in setters and any(
                    isinstance(arg, ast.Constant) and arg.value in slots for arg in node.args)
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_source_imports_an_unused_name() -> None:
    """Every name a module of src/omfactor imports is read somewhere in it,
    as a name or the base of an attribute, annotations included. The package
    __init__ only re-exports, so it is left out."""
    unused = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "omfactor").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_cli_import_loads_no_dataclasses() -> None:
    """A fresh interpreter, since pytest itself loads these modules; -S keeps
    site hooks, which may load them, out of the count."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, omfactor.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout == "[]\n"


def test_the_caches_are_the_ones_readme_lists() -> None:
    """Every module-level or class-level dict, and every slot, named *_cache
    in the package, and every functools cache: the fq_factor memo and the
    CLI's document memo, each with a bound test, and Fq's interning tables.
    A new memo needs a README entry and a bound test, then a name here."""
    found = set()
    for info in pkgutil.iter_modules(omfactor.__path__):
        module = importlib.import_module(f"omfactor.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or name.endswith("_cache") and isinstance(value, dict):
                found.add(f"{info.name}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.update(f"{info.name}.{name}.{attr}" for attr in vars(value)
                             if attr.endswith("_cache") or hasattr(getattr(value, attr), "cache_info"))
    assert found == {"finitefield._factor_cache", "cli._doc_cache",
                     "finitefield.Fq._prime_cache", "finitefield.Fq._ext_cache"}
