"""One error family: every bad input raises ValueError.

Every ``raise`` in ``src/tecpol`` raises ValueError or one of the two solver
failures that subclass it, ``spline.NoConvergence`` and ``spline.NotMonotone``,
and the package defines no other exception class.  So a caller needs one
``except ValueError`` for any bad input.
"""

import ast
import builtins
from pathlib import Path

from tecpol import spline

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tecpol").glob("*.py"))
RAISED = {"ValueError", "NoConvergence", "NotMonotone"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE}


def _name(node):
    """The name an expression ends in: ``X``, ``m.X`` and ``X(...)`` give X."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _exception_classes() -> set[str]:
    """Names of the classes defined in the package that subclass an exception."""
    bases = {
        node.name: {_name(base) for base in node.bases}
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    while new := {name for name, b in bases.items() if b & found} - found:
        found |= new
    return found & bases.keys()


def test_every_raise_raises_value_error():
    # a bare re-raise names no type, so it counts as a violation too
    bad = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and _name(node.exc) not in RAISED
    ]
    assert bad == []


def test_the_only_exception_classes_are_the_solver_failures():
    assert _exception_classes() == {"NoConvergence", "NotMonotone"}
    assert issubclass(spline.NoConvergence, ValueError)
    assert issubclass(spline.NotMonotone, ValueError)
