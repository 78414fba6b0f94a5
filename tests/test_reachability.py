"""Every function, method and class in ``src/qasnets`` is used.

A library definition stays if the CLI reaches it or if an acceptance
experiment uses it to check a statement of the paper.  This is a
name-based scan with ``ast``: each non-dunder name that a ``def`` or
``class`` statement in the package binds must occur as a name or an
attribute somewhere in the package or in ``test_acceptance.py``, outside
its own ``def``/``class`` line.  ``__init__.py`` re-exports names for
users and does not count as a use, and neither does a type that an
``isinstance`` call tests for: no value of a class that nothing builds
reaches the test.  Code that only unit tests reach then
fails here instead of growing back unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unreached(package: Path, acceptance: Path) -> list[str]:
    """``file:line name`` of each definition in ``package`` whose name
    nothing in the package or in ``acceptance`` uses."""
    definitions, uses = [], {}
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    for path in sources + [acceptance]:
        type_tests = set()  # ids of the nodes in isinstance's second argument
        # ast.walk yields a node before its children
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if id(node) in type_tests:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                type_tests.update(map(id, ast.walk(node.args[1])))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if path != acceptance and not dunder:
                    definitions.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add((path.name, node.end_lineno))
    return [f"{file}:{line} {name}" for file, line, name in definitions
            if not uses.get(name, set()) - {(file, line)}]


def test_every_definition_is_used():
    assert unreached(ROOT / "src" / "qasnets", ROOT / "tests" / "test_acceptance.py") == []
