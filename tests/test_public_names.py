"""No public helper exists only for its own unit test.

Every module-level public function, class or constant in ``src/tecpol`` must
be read somewhere in the package or in the benchmark's non-test modules.  A
read is a ``Name`` in load context, an attribute name, or an imported name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tecpol").glob("*.py"))
READERS = PACKAGE + sorted(
    p for p in (ROOT / "tecbench").glob("*.py") if not p.name.startswith("test_")
)


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _read(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unread_public_names() -> list[str]:
    read = set()
    for path in READERS:
        read.update(_read(ast.parse(path.read_text(), str(path))))
    return sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in _defined(ast.parse(path.read_text(), str(path)))
        if not name.startswith("_") and name not in read
    )


def test_every_public_name_is_read_outside_tests():
    assert unread_public_names() == []
