"""The immutable value classes, and what importing the CLI loads."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import operator
import os
import pickle
import pkgutil
import subprocess
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
from rotknot.verify import DihedralElem

SRC = Path(__file__).resolve().parent.parent / "src"

_P = point_xy(1, 2)
_T = Turn(1, 4)

# each class with its fields and one value for each, in constructor order
CASES = [
    (TorusDiagram, dict(p=3, q=2)),
    (Turn, dict(fraction=Fraction(1, 3))),
    (DihedralElem, dict(n=5, value=2)),
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
    [
        Turn(1, 3), DihedralElem(5, 2), MoveSeq(("switch",)), TorusDiagram(3, 2),
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
    assert DihedralElem(3, 2) != TorusDiagram(3, 2)
    assert not DihedralElem(3, 2) == TorusDiagram(3, 2)


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
    assert repr(DihedralElem(3, 1)) == "DihedralElem(n=3, value=1)"
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
        (lambda: DihedralElem(2, 1), "dihedral quandle needs n >= 3"),
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
    assert DihedralElem(5, -3).value == 2
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


def test_cli_import_loads_no_heavy_modules():
    """`python -S` keeps site hooks from preloading modules, so what is
    left loaded comes from the package itself."""
    heavy = ("dataclasses", "inspect", "typing", "ast", "copy")
    code = (
        "import sys, rotknot.cli; "
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def _loaded(code: str, *args: str) -> str:
    """stdout of `python <args> -c code` with the package on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, *args, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_only_verify_loads_the_suites():
    """Importing the CLI loads neither `verify` nor `render`, a classify
    run does not load `verify`, and a verify run does."""
    code = (
        "import sys, rotknot.cli; "
        "print([m for m in ('rotknot.verify', 'rotknot.render') if m in sys.modules])"
    )
    assert _loaded(code, "-S") == "[]"
    code = (
        "import os, sys\n"
        "from rotknot.cli import main\n"
        "argv = ['--p', '3', '--q', '2', '--b-anchor', '1,0', '--b-direction', '1/2']\n"
        "code = main(['classify', *argv, '--out', os.devnull])\n"
        "print(code, 'rotknot.verify' in sys.modules)\n"
        "code = main(['verify', 'orbit', '--out', os.devnull])\n"
        "print(code, 'rotknot.verify' in sys.modules)\n"
    )
    assert _loaded(code).split("\n") == ["0 False", "0 True"]


MOVE_MODULES = ("rotknot.diagram", "rotknot.trochoid")


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("", []),
        ("verify axioms", []),
        ("verify cocycle", []),
        ("verify appendix", []),
        ("enumerate --p -7 --q 5", ["rotknot.diagram"]),
        ("classify --p 3 --q 2 --b-anchor 1,0", list(MOVE_MODULES)),
        ("render --p 3 --q 2", list(MOVE_MODULES)),
        ("verify orbit", list(MOVE_MODULES)),
        ("verify weights", list(MOVE_MODULES)),
    ],
)
def test_each_command_loads_the_move_modules_it_runs(command, loaded):
    """Importing the CLI and the `verify` suites that touch no diagram
    compile neither `diagram` nor `trochoid`; `enumerate` needs only
    `diagram`; the commands that build trochoids or move colorings load
    both."""
    code = (
        "import os, sys\n"
        "from rotknot.cli import main\n"
        f"argv = {command.split()!r}\n"
        "code = main([*argv, '--out', os.devnull]) if argv else 0\n"
        f"print(code, [m for m in {MOVE_MODULES!r} if m in sys.modules])\n"
    )
    assert _loaded(code, "-S") == f"0 {loaded!r}"


def test_package_has_no_assert_statements():
    """Checks of proved statements raise ContradictionError, which
    `python -O` keeps; it strips `assert` statements."""
    paths = sorted((SRC / "rotknot").glob("*.py"))
    assert "cli.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    see, so `typing.get_type_hints` resolves it.  (`__main__` runs the
    CLI on import and defines nothing.)"""
    module = importlib.import_module(f"rotknot.{name}")
    failed = []
    for func in _annotated(module):
        try:
            typing.get_type_hints(inspect.unwrap(func))
        except NameError as exc:
            failed.append(f"{func.__qualname__}: {exc}")
    assert failed == []
