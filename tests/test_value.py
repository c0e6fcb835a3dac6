"""The immutable value classes, and checks over the package's source:
no `assert` statements, and annotations that resolve.  What importing the
CLI and running each command loads is a table in `tests/test_contract.py`,
where each runs in a fresh interpreter.  Two checks stay here: the bare
import loads none of the heavy modules the value classes avoid, and one
interpreter loads `verify` only once it runs a verify suite."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import operator
import pickle
import pkgutil
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import rotknot
from rotknot.diagram import TorusDiagram
from rotknot.exactnum import Cyc, Turn, cyc_root
from rotknot.geom import point_xy, polygon_vertices
from rotknot.quandle import RotElem
from rotknot.trochoid import (
    ClassificationResult,
    LatticeSpec,
    MoveSeq,
    TrochoidSpec,
)
from rotknot.value import Frozen
from rotknot.verify import DihedralQuandle

from conftest import run

_P = point_xy(1, 2)
_T = Turn(1, 4)

# each class with its fields and one value for each, in constructor order
CASES = [
    (TorusDiagram, dict(p=3, q=2)),
    (Turn, dict(fraction=Fraction(1, 3))),
    (RotElem, dict(center=_P, angle=_T)),
    (
        TrochoidSpec,
        dict(
            p=3, q=2, k=1, l=1, anchor=_P, direction=_T, side=Fraction(1, 2),
            chirality=-1,
        ),
    ),
    (MoveSeq, dict(moves=("shift", "switch"))),
    (LatticeSpec, dict(alpha=3, base_point=_P, base_direction=_T, side=Fraction(1))),
    (
        ClassificationResult,
        dict(verdict="Equivalent", witness=MoveSeq(("shift",)), reason=None, note=""),
    ),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
class TestValueClasses:
    def test_immutable(self, cls, kwargs):
        obj = cls(**kwargs)
        for name, value in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_equality_and_hash(self, cls, kwargs):
        fields = tuple(kwargs.values())
        a, b = cls(*fields), cls(**kwargs)
        assert tuple(getattr(a, name) for name in kwargs) == fields
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)
        assert a != fields and not a == fields
        for clone in (copy.copy, copy.deepcopy, round_trip):
            assert clone(a) == a


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize(
    "obj",
    [cls(**kwargs) for cls, kwargs in CASES] + [cyc_root(12, 5) * Fraction(2, 3)],
    ids=IDS + ["Cyc"],
)
def test_one_frozen_base(obj):
    """Every value class stores its slots one way, and `_raw` of exactly
    the slot values rebuilds an equal value."""
    cls = type(obj)
    assert issubclass(cls, Frozen)
    assert cls._raw(*(getattr(obj, name) for name in cls.__slots__)) == obj


@pytest.mark.parametrize(
    "obj",
    [
        Turn(1, 3), MoveSeq(("switch",)), TorusDiagram(3, 2),
        Cyc.zero(), _P, cyc_root(12, 5) * Fraction(2, 3),
    ],
    ids=repr,
)
def test_pickle_round_trip(obj):
    for clone in (copy.copy, copy.deepcopy, round_trip):
        out = clone(obj)
        assert out == obj and hash(out) == hash(obj)


def test_cyc_immutable():
    x = cyc_root(12, 5)
    for name in ("level", "num", "den"):
        with pytest.raises(AttributeError, match="Cyc is immutable"):
            setattr(x, name, 1)
        with pytest.raises(AttributeError, match="Cyc is immutable"):
            delattr(x, name)
    assert x == cyc_root(12, 5)


def test_other_class_with_equal_fields_differs():
    # RotElem stores its fields unchecked, so both hold the tuple (3, 2)
    assert RotElem(3, 2) != TorusDiagram(3, 2)
    assert not RotElem(3, 2) == TorusDiagram(3, 2)


def test_turn_ordering():
    # turns compare only for equality; nothing sorts them
    a = Turn(1, 4)
    assert a == Turn(5, 4) and a != Turn(1, 2)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, Turn(1, 2))
        with pytest.raises(TypeError):
            op(a, Fraction(1, 2))


def test_reprs():
    assert repr(RotElem(point_xy(1), Turn(1, 2))) == (
        "RotElem(center=Cyc(1), angle=Turn(fraction=Fraction(1, 2)))"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: polygon_vertices(1, 1, _P, _T, 1), "polygon needs m >= 2"),
        (lambda: polygon_vertices(3, 3, _P, _T, 1), "step k=3 outside [1, 2]"),
        (lambda: polygon_vertices(3, 1, _P, _T, 0), "side must be positive"),
        (lambda: TrochoidSpec(3, 2, 3, 1), "k=3 outside [1, 2]"),
        (lambda: TrochoidSpec(3, 2, 1, 2), "l=2 outside [1, 1]"),
        (lambda: TrochoidSpec(3, 2, 1, 1, side=-1), "side must be positive"),
        (lambda: TrochoidSpec(3, 2, 1, 1, chirality=0), "chirality must be +1 or -1"),
        (lambda: DihedralQuandle(2), "dihedral quandle needs n >= 3"),
        (lambda: MoveSeq(("shift", "twist")), "unknown move 'twist'"),
        (lambda: TorusDiagram(1, 3), "need |p|, |q| >= 2"),
        (lambda: TorusDiagram(3, 6), "(3, 6) is not coprime"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_normalized_fields():
    assert DihedralQuandle(5).op(1, 0) == 4
    assert TrochoidSpec(3, 2, 1, 1, side=2).side == Fraction(2)
    assert Turn(5, 4) == Turn(1, 4)


def test_diagram_lists_cached_outside_equality():
    """The constructor builds the tables; equality, hash and repr read
    (p, q) alone."""
    d = TorusDiagram(4, 3)
    assert (d.abs_p, d.abs_q, d.sign) == (4, 3, 1)
    assert len(d.rep_arcs) == len(d.crossings) == len(d.shift_sources) == 9
    assert d == TorusDiagram(4, 3) and hash(d) == hash((4, 3))
    assert d != TorusDiagram(4, -3)
    assert repr(d) == "TorusDiagram(p=4, q=3)"


def test_package_has_no_assert_statements():
    """Checks of proved statements raise ContradictionError, which
    `python -O` keeps; it strips `assert` statements."""
    paths = sorted(Path(rotknot.__file__).parent.glob("*.py"))
    assert "cli.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_value_module_sets_slots():
    """No module but `value` calls `object.__setattr__` or defines a
    `__setattr__`: a value class stores its slots through `Frozen`."""
    found = []
    for path in sorted(Path(rotknot.__file__).parent.glob("*.py")):
        if path.name == "value.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                found.append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_loads_no_heavy_modules():
    """`python -S` keeps site hooks from preloading modules, so what is
    left loaded comes from the package itself."""
    heavy = ("dataclasses", "inspect", "typing", "ast", "copy")
    code = (
        "import sys, rotknot.cli; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = run([sys.executable, "-S", "-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == b""


def test_only_verify_loads_the_suites():
    """Importing the CLI loads neither `verify` nor `render`, and in one
    interpreter a classify run does not load `verify` while a verify run
    after it does."""
    code = (
        "import sys, rotknot.cli; "
        "print([m for m in ('rotknot.verify', 'rotknot.render') if m in sys.modules])"
    )
    out = run([sys.executable, "-S", "-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().strip() == "[]"
    code = (
        "import os, sys\n"
        "from rotknot.cli import main\n"
        "argv = ['--p', '3', '--q', '2', '--b-anchor', '1,0', '--b-direction', '1/2']\n"
        "code = main(['classify', *argv, '--out', os.devnull])\n"
        "print(code, 'rotknot.verify' in sys.modules)\n"
        "code = main(['verify', 'orbit', '--out', os.devnull])\n"
        "print(code, 'rotknot.verify' in sys.modules)\n"
    )
    out = run([sys.executable, "-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().strip().split("\n") == ["0 False", "0 True"]


def _annotated(module):
    """The functions and methods defined in module, with the functions
    under properties and static and class methods."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for attr in vars(value).values():
                if isinstance(attr, property):
                    yield from (f for f in (attr.fget, attr.fset) if f is not None)
                elif isinstance(attr, (staticmethod, classmethod)):
                    yield attr.__func__
                elif callable(attr):
                    yield attr
        elif callable(value):
            yield value


@pytest.mark.parametrize(
    "name",
    sorted(
        info.name
        for info in pkgutil.iter_modules(rotknot.__path__)
        if not info.name.startswith("_")
    ),
)
def test_annotations_resolve(name):
    """Every annotation in the package names something its module can
    see, so `typing.get_type_hints` resolves it.  (`__main__`, the
    program entry, is left out with the private names.)"""
    module = importlib.import_module(f"rotknot.{name}")
    failed = []
    for func in _annotated(module):
        try:
            typing.get_type_hints(inspect.unwrap(func))
        except NameError as exc:
            failed.append(f"{func.__qualname__}: {exc}")
    assert failed == []
