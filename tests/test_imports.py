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


#: Modules of the model, which import nothing from the wire codec.
MODEL_MODULES = ("gen2", "tag", "world", "rfchannel", "wisent", "config")
#: The model half of ``reader.py``: these top-level names and every
#: ``check_*`` helper read nothing imported from the codec.
READER_MODEL = ("Reader", "TagObservation", "round_line", "access_line")


def codec_imports(tree: ast.Module) -> list[ast.stmt]:
    """The statements of ``tree`` that import ``llrp`` or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("llrp", "tpcbed.llrp") or (
                node.module in (None, "tpcbed") and "llrp" in names
            ):
                found.append(node)
        elif isinstance(node, ast.Import):
            if any(alias.name == "tpcbed.llrp" for alias in node.names):
                found.append(node)
    return found


def layering_breaches(path: Path, model_names=None) -> list[str]:
    """Where the module at ``path`` imports the codec; or, given
    ``model_names``, where those top-level definitions and the ``check_*``
    functions read a name the module imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = codec_imports(tree)
    if model_names is None:
        return [f"{path.name}:{node.lineno}: imports llrp" for node in imports]
    wire = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        for alias in node.names
    }
    breaches = []
    for node in tree.body:
        name = getattr(node, "name", "")
        if name in model_names or name.startswith("check_"):
            breaches += [
                f"{path.name}:{read.lineno}: {name} reads {read.id}"
                for read in ast.walk(node)
                if isinstance(read, ast.Name) and read.id in wire
            ]
    return breaches


@pytest.mark.parametrize("module", MODEL_MODULES)
def test_the_model_imports_nothing_from_the_codec(module):
    path = Path(tpcbed.__file__).parent / f"{module}.py"
    assert layering_breaches(path) == []


def test_the_reader_model_reads_nothing_from_the_codec():
    path = Path(tpcbed.__file__).parent / "reader.py"
    assert layering_breaches(path, READER_MODEL) == []


def test_a_layering_breach_is_found(tmp_path):
    model, reader = tmp_path / "model.py", tmp_path / "reader.py"
    model.write_text("import json\nfrom . import llrp\nfrom .llrp import encode\n")
    assert layering_breaches(model) == [
        "model.py:2: imports llrp",
        "model.py:3: imports llrp",
    ]
    reader.write_text(
        "from .llrp import EPC_LEN, encode\n"
        "class Reader:\n"
        "    size = EPC_LEN\n"
        "def check_epc(epc):\n"
        "    return len(epc) == EPC_LEN\n"
        "def serve(msg):\n"
        "    return encode(msg)\n"
    )
    assert layering_breaches(reader, READER_MODEL) == [
        "reader.py:3: Reader reads EPC_LEN",
        "reader.py:5: check_epc reads EPC_LEN",
    ]
