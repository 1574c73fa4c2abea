"""No per-op, per-attempt or per-round function calls the ``min`` or
``max`` builtin.

On CPython 3.11 one ``min(max(x, lo), hi)`` costs about ten times the
same clamp written as comparisons, and these functions run once per
slot, per harvest, per delivered write, per round or per reader call.  Checked with the standard
library's ``dis``, nested functions included.
"""

import dis

import pytest

from tpcbed.controller import ExperimentLog
from tpcbed.gen2 import _after_empty_slots, run_inventory_round
from tpcbed.reader import Reader
from tpcbed.tag import CrfidTag

HOT_PATHS = [
    run_inventory_round,
    _after_empty_slots,
    CrfidTag.on_write_words,
    CrfidTag.harvest_step,
    Reader.execute_access,
    Reader.run_inventory,
    ExperimentLog.write,
]


def builtin_loads(code, names=frozenset({"min", "max"})) -> list[tuple]:
    """Each global load of one of ``names`` in ``code`` and the code
    objects nested in it, as (function, line, name)."""
    found = [
        (code.co_name, instr.positions.lineno, instr.argval)
        for instr in dis.get_instructions(code)
        if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME") and instr.argval in names
    ]
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            found += builtin_loads(const, names)
    return found


@pytest.mark.parametrize("function", HOT_PATHS, ids=lambda f: f.__qualname__)
def test_no_min_or_max_on_a_hot_path(function):
    assert builtin_loads(function.__code__) == []


def test_a_min_in_a_nested_function_is_found():
    def clamp(x):
        def inner(y):
            return min(y, 1.0)

        return max(inner(x), 0.0)

    found = builtin_loads(clamp.__code__)
    assert [(function, name) for function, _, name in found] == [
        ("clamp", "max"),
        ("inner", "min"),
    ]
