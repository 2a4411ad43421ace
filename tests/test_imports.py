"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoclass"


def _unused_imports(source: str) -> list:
    """Names bound by import statements that nothing in ``source`` reads.

    ``__all__`` entries count as reads: those of a literal, or the keys of the
    dict literal ``X`` when ``__all__`` is ``sorted(X)``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assigned = {t.id: node.value for node in ast.walk(tree) if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    names = assigned.get("__all__")
    if isinstance(names, ast.Call) and isinstance(names.func, ast.Name) and names.func.id == "sorted":
        names = assigned[names.args[0].id]
    if names is not None:
        # a dict adds its keys
        used.update(ast.literal_eval(names))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom a import b as c, d\n__all__ = ['d']\nos.sep\n"
    assert _unused_imports(source) == [(2, "numpy"), (3, "c")]
    # __all__ = sorted(X) reads the keys of the dict literal X
    source = "from a import b as c, d\n_X = {'d': ...}\n__all__ = sorted(_X)\n"
    assert _unused_imports(source) == [(1, "c")]
