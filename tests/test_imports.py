"""No module of the package imports a name it does not use, and every
private module-level name (``_name``) is read by some module of it.

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


def dead_private_names(paths: list[Path]) -> list[str]:
    """Private functions, classes and constants defined at the top level
    of one of ``paths`` that none of them reads, by name or attribute."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                is_assign = isinstance(node, ast.Assign)
                targets = node.targets if is_assign else [node.target]
                defined += [
                    (path.name, name.lineno, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{file}:{line}: {name}"
        for file, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    assert dead_private_names(SOURCES) == []


def test_a_dead_private_name_is_found(tmp_path):
    user, lib = tmp_path / "user.py", tmp_path / "lib.py"
    user.write_text("from lib import _used\nprint(_used, lib._ATTR)\n")
    lib.write_text(
        "_used = 1\n"
        "_ATTR: int = 2\n"
        "_READ, _dead = 3, 4\n"
        "def _unused(): return _READ\n"
        "class _Gone: pass\n"
        "__version__ = '1'\n"
    )
    assert dead_private_names([user, lib]) == [
        "lib.py:3: _dead",
        "lib.py:4: _unused",
        "lib.py:5: _Gone",
    ]
