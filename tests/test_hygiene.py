"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nslattice"
# __init__.py imports names to export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, by the line that imports them."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        # a __future__ import switches a compiler feature on and binds no name the code reads
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .values import _new, _set\n_new(1)\n"
    assert unused_imports(source) == ["_set (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names that the sources define, as a function, method or class
    anywhere or by a module-level assignment, and that none of them reads, by
    file and line.  A name counts as read wherever it is loaded, as a name or as
    an attribute, so a helper read by another module or a method read through
    ``self`` counts."""
    defined, read = {}, set()
    for path, source in sources.items():
        tree = ast.parse(source)
        assigned = [
            target
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for target in assigned:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    defined.setdefault(node.id, f"{path}:{node.lineno}")
    private = {n: where for n, where in defined.items() if n.startswith("_") and not n.endswith("__")}
    return [f"{name} ({where})" for name, where in sorted(private.items()) if name not in read]


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_A, _B = 1, 2\n_C: int = 3\ndef _f(): return _A\nclass _K:\n    def _m(self): pass\n",
        "b.py": "from a import _f\n_f()\nobject()._m\ndef __getattr__(name): pass\n",
    }
    assert unread_private_names(sources) == ["_B (a.py:1)", "_C (a.py:2)", "_K (a.py:4)"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
