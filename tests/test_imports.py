"""No module of the package imports a name it does not use.

Checked with the standard library's ``ast``.  An import counts as used
when the module reads the name, when the package's ``__all__`` lists it,
or when its line is marked ``# re-exported``.
"""

import ast
from pathlib import Path

import pytest

import tpcbed

SOURCES = sorted(Path(tpcbed.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(tpcbed.__all__) if path.name == "__init__.py" else set()
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = "# re-exported" in lines[alias.lineno - 1]
            if name not in read and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import sys  # re-exported\n"
        "from json import dumps, loads\n"
        "print(dumps)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["module.py:1: os", "module.py:3: loads"]
