"""Only realroots narrows or reads a root's isolating window.

An AlgebraicReal keeps its window as the integers _a, _b and _k, and one
step narrows it: AlgebraicReal._bisect halves it through realroots._halve
and keeps the half through _adopt.  Every other module asks realroots for
what it needs of a window (a comparison, a sign, its text), so no module
but realroots can halve a window in a way of its own or print one it did
not leave.  The check walks the syntax trees of every module of the
package but realroots.py and imports nothing it reads.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kopelcas"
OWNED = {"_a", "_b", "_k", "_adopt", "_halve"}


def trespasses(paths) -> list:
    """(file name, line, name) of every access of an owned name in the modules at paths, sorted.

    An access is an attribute (root._a, root._adopt(...), realroots._halve)
    or an import (from .realroots import _halve).
    """
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in OWNED:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name.rpartition(".")[2] in OWNED]
    return sorted(found)


def test_no_module_but_realroots_touches_a_window():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "realroots.py"]
    assert len(modules) > 1
    assert trespasses(modules) == []


def test_the_walk_finds_every_kind_of_access(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from .realroots import _halve, _image\n"
        "import realroots._halve\n"
        "def narrow(root):\n"
        "    a, k = root._a, root._k\n"
        "    root._adopt(*realroots._halve(root._coeffs, 1, a, root._b, k))\n"
        "    return root._bisect(), root.lo, _image\n",
        encoding="utf-8")
    assert trespasses([planted]) == [
        ("planted.py", 1, "_halve"), ("planted.py", 2, "realroots._halve"),
        ("planted.py", 4, "_a"), ("planted.py", 4, "_k"), ("planted.py", 5, "_adopt"),
        ("planted.py", 5, "_b"), ("planted.py", 5, "_halve"),
    ]
