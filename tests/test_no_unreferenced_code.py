"""Every function and method defined in src/ has a reader in src/ or kbench/.

A name that only the tests read belongs in the tests (tests/oracles.py).
The check walks the syntax trees alone and imports nothing it reads.  A
method counts as read only through an attribute access of its name; a
function through a name, an import, or a module attribute such as
kc.sign_at.  A read inside the definition's own body, a recursion, does
not count.  Exempt are dunders, model._Lazy's _make_<name> methods (found
by name), the names the package exports, and AlgebraicReal.refine, kept
for the exact-box work on the ROADMAP.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"AlgebraicReal.refine"}


def _trees(root, *dirs) -> list:
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for d in dirs for path in sorted((root / d).rglob("*.py"))]


def _exported(tree) -> set:
    """The names in a package __init__'s literal __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _definitions(tree) -> list:
    """(qualified name, node, is a method) of every function and method in a module."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found.append((prefix + child.name, child, in_class))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _reads(tree) -> list:
    """(name, by attribute, ids of the enclosing function nodes) of every read in a module."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {id(node)}
        if isinstance(node, ast.Attribute):
            found.append((node.attr, True, inside))
        elif isinstance(node, ast.Name):
            found.append((node.id, False, inside))
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, False, inside) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def unreferenced(root=ROOT, src_dir="src", reader_dirs=("src", "kbench")) -> list:
    """Qualified names of the functions and methods under root / src_dir that nothing reads."""
    # each module is parsed once, so a read's enclosing nodes are its definitions' own
    trees = {d: _trees(root, d) for d in {src_dir, *reader_dirs}}
    by_name = {}
    for tree in (t for d in reader_dirs for t in trees[d]):
        for name, by_attribute, inside in _reads(tree):
            by_name.setdefault(name, []).append((by_attribute, inside))
    exported = set().union(*map(_exported, trees[src_dir]))
    missing = []
    for tree in trees[src_dir]:
        for qualified, node, is_method in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name.startswith("_make_")
                    or name in exported and not is_method or qualified in EXEMPT):
                continue
            if not any((by_attribute or not is_method) and id(node) not in inside
                       for by_attribute, inside in by_name.get(name, ())):
                missing.append(qualified)
    return sorted(missing)


def test_every_function_in_src_has_a_reader_outside_the_tests():
    assert unreferenced() == []


def test_a_function_read_only_by_itself_is_found(tmp_path):
    # a planted package: a recursion, a method read by plain name, and a
    # function read through a module attribute; __all__ exempts a function
    package = tmp_path / "src"
    package.mkdir()
    (package / "__init__.py").write_text("__all__ = ['shown']\n", encoding="utf-8")
    (package / "planted.py").write_text(
        "import planted\n"
        "def shown():\n"
        "    return 0\n"
        "def loop(n):\n"
        "    return loop(n - 1) if n else 0\n"
        "def used():\n"
        "    return 1\n"
        "class K:\n"
        "    def method(self):\n"
        "        return method\n"
        "    def read(self):\n"
        "        return self.read_elsewhere\n"
        "    def read_elsewhere(self):\n"
        "        return planted.used()\n"
        "    def __repr__(self):\n"
        "        return ''\n",
        encoding="utf-8")
    assert unreferenced(tmp_path, "src", ("src",)) == ["K.method", "K.read", "loop"]
