"""Every module of the package, the tests and the scripts reads each name it
imports; a name listed in the module's `__all__` counts as read.  No module
of the package imports a private (`_`-prefixed) name from a sibling."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/twoatom_cbs", "tests", "scripts")
                 for path in (ROOT / folder).glob("*.py"))


def unread_imports(source):
    """The names `source` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    source = ("import os.path\nimport sys\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nprint(sys, d)\n")
    assert unread_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def private_sibling_imports(source):
    """The private names `source` imports from a sibling module (a relative
    import), in order of import: `_`-prefixed, but not dunder."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_private_sibling_imports_are_found():
    source = ("from .a import _b, c\nfrom . import _d\nfrom os import _exit\n"
              "from ..e import _f as f\nfrom . import __version__\n")
    assert private_sibling_imports(source) == ["_b", "_d", "_f"]


@pytest.mark.parametrize("path", sorted((ROOT / "src/twoatom_cbs").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_sibling_import(path):
    assert private_sibling_imports(path.read_text()) == []
