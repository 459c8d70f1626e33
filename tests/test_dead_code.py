"""A standard-library guard against leftovers in src/mvgroups: an import
that its module never uses, and a private module-level name that nothing
in the package refers to.  __init__.py re-exports names, so its imports
are exempt."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvgroups"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _bound_by_imports(tree):
    """(line, name) of each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _private_names(statement):
    """The module-level _names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _reads(tree):
    """Every identifier a tree reads, as a bare name or an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def test_every_import_is_used():
    unused = [
        f"{module}:{line} {name}"
        for module, tree in MODULES.items()
        if module != "__init__.py"
        for line, name in _bound_by_imports(tree)
        if name not in _reads(tree)
    ]
    assert unused == []


def test_every_private_name_is_referenced():
    # A reference is a read or an import of the name by any other
    # top-level statement, so a function that only calls itself is dead.
    statements = []
    for module, tree in MODULES.items():
        for node in tree.body:
            refs = _reads(node)
            if isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
            statements.append((module, node, refs))
    dead = [
        f"{module}:{node.lineno} {name}"
        for module, node, _ in statements
        for name in _private_names(node)
        if not any(name in refs for _, other, refs in statements if other is not node)
    ]
    assert dead == []
