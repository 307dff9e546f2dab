"""Every module of the package, the tests and the scripts reads each name it
imports; a name listed in the module's `__all__` counts as read."""

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
