"""No new unnamed tolerance in ``src/qasnets``.

A float literal with 0 < |x| < 1e-5 is a tolerance, a floor or a gap rule,
and it belongs in a named module-level or class-level constant with its
reason written beside it.  This ``ast`` scan finds every such literal
outside those assignments.  The literals that are still unnamed are listed
in ``ALLOWED`` by (file, value) with their count, not by line, so moving
code keeps them and a new one fails.  The list only shrinks: a literal that
is named or deleted must leave it too.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qasnets"

ALLOWED = Counter({
    ("dynamics.py", 1e-9): 1,  # the envelope targets' floor
    ("dynamics.py", 1e-12): 1,  # the envelope's C0 floor
    ("spaces.py", 1e-12): 2,  # the ExponentialFamily cube check, both sides
    ("transformer.py", 1e-9): 1,  # the assignment network's halfspace scale
    ("transformer.py", 1e-12): 3,  # that scale, the depth bracket, the anchor count
})


def unnamed_small_floats(path: Path) -> Counter:
    """(file, value) counts of the float literals 0 < |x| < 1e-5 in
    ``path`` outside module-level and class-level assignments."""
    tree = ast.parse(path.read_text(), str(path))
    named = set()
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                named.update(map(id, ast.walk(stmt)))
    return Counter(
        (path.name, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-5 and id(node) not in named
    )


def test_scan_finds_unnamed_literals_only(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("TOL = 1e-9\n"
                    "class A:\n    EPS = 2e-9\n"
                    "def f(x, tol=3e-9):\n    y = x + 4e-9\n    return y - 1e-3 + 0.0\n")
    assert unnamed_small_floats(path) == Counter({("probe.py", 3e-9): 1, ("probe.py", 4e-9): 1})


def test_no_new_unnamed_tolerance():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += unnamed_small_floats(path)
    assert found == ALLOWED, (
        "name each new tolerance as a module- or class-level constant with its reason; "
        "remove a named or deleted literal from ALLOWED")
