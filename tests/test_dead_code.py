"""No leftover code under ``src/predimlab``: every import is read in its
module, and every top-level def, class or constant is read somewhere in the
repository's Python (``src``, ``tests``, ``scripts``, ``perfbench``).

No linter is installed, so the modules are parsed with ``ast``.  A name is
read where it is loaded, named as an attribute or imported from another
module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "predimlab"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for folder in ("src", "tests", "scripts", "perfbench")
         for path in sorted((ROOT / folder).rglob("*.py"))}


def _loaded(tree):
    """Every name loaded in ``tree``."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read(tree):
    """Every name ``tree`` loads, names as an attribute or imports by name."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _top_level_names(tree):
    """The names a module's own top-level defs, classes and constants bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read_in_its_module(path):
    tree = TREES[path]
    loaded = _loaded(tree)
    unread = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in loaded]
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_every_top_level_name_is_read_somewhere():
    read = set().union(*map(_read, TREES.values()))
    unread = [f"{path.name}:{name}" for path in MODULES
              for name in _top_level_names(TREES[path]) if name not in read]
    assert not unread, f"defined under src/predimlab but never read: {unread}"
