"""Every module of domscan uses each name it imports. A line marked
``# noqa: F401`` keeps an import on purpose and is exempt; a package's
``__init__`` uses what its ``__all__`` lists."""

import ast
from pathlib import Path

import domscan

SOURCE = Path(domscan.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 5
    assert [bad for path in modules for bad in unused_imports(path)] == []


def test_the_check_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os, sys\nfrom itertools import chain  # noqa: F401\nfrom a import b as c\nprint(sys)\n")
    assert unused_imports(path) == ["m.py:1: os", "m.py:3: c"]
