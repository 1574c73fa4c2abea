"""The traced benchmark wraps named entry points of the package from
outside (``perfbench/layers.py``).  A refactor that renames or moves one
of them breaks only the traced run, so this checks every hook resolves,
that wrapped code still runs, and that ``restore`` puts every original
back."""

import collections
import functools
import json
import sys
from pathlib import Path

import pytest

from tpcbed.config import default_config
from tpcbed.controller import ExperimentLog, TestbedController as Controller

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class PassThroughTracer:
    """Stands in for ``spans.Tracer``: counts calls per span name and runs
    each hook's ``on_return`` the way the tracer does."""

    def __init__(self):
        self.calls = collections.Counter()
        self.counts = collections.Counter()

    def wrap(self, fn, name, on_return=None):
        self.calls[name] += 0

        @functools.wraps(fn)
        def passed_through(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if on_return is not None:
                on_return(self.counts, result, args)
            return result

        return passed_through


def package_namespace():
    """Every attribute of every tpcbed module and of every class in one."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name != "tpcbed" and not name.startswith("tpcbed."):
            continue
        for attr, value in vars(module).items():
            snapshot[name, attr] = value
            if isinstance(value, type):
                for member, member_value in vars(value).items():
                    snapshot[name, attr, member] = member_value
    return snapshot


def test_instrument_wraps_every_hook_and_restore_undoes_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import instrument

    before = package_namespace()
    tracer = PassThroughTracer()
    worlds = []
    restore = instrument(tracer, worlds)
    try:
        Controller(default_config()).run_inventory_experiment((2,), 1.0)
    finally:
        restore()
    assert package_namespace() == before
    assert tracer.calls["world.init"] == 1 and len(worlds) == 1
    assert tracer.calls["gen2.round"] > 0 and tracer.counts["gen2.slots"] > 0
    assert {"world.link", "wisent.choose_antennas", "tag.harvest_step"} <= set(
        tracer.calls
    )


def test_traced_rounds_match_the_logged_rounds(monkeypatch, tmp_path):
    """The per-layer ``gen2.*`` figures count what passes through the
    module-level ``run_inventory_round``.  A reader that ran rounds some
    other way would leave them at zero; here it fails instead."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import instrument

    tracer = PassThroughTracer()
    restore = instrument(tracer, [])
    try:
        with ExperimentLog(tmp_path / "run.jsonl") as log:
            Controller(default_config()).run_inventory_experiment(
                (1, 2, 3), 20.0, 5, log=log
            )
    finally:
        restore()
    lines = [json.loads(line) for line in log.path.read_text().splitlines()]
    rounds = [line for line in lines if line["event"] == "round"]
    assert len(rounds) > 100
    assert tracer.calls["gen2.round"] == len(rounds)
    assert tracer.counts["gen2.slots"] == sum(line["slots"] for line in rounds)


@pytest.mark.parametrize(
    "name", ["inventory-survey", "reprogram-local", "reprogram-remote", "control-mix"]
)
def test_each_workload_sets_up_runs_an_op_and_checks_it(name, monkeypatch, tmp_path):
    """The benchmark reaches the package through names the tier-1 suite
    does not otherwise pin; a renamed one makes set-up, an op or the
    reference check raise.  One op on one seed, as the timed run does it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    monkeypatch.setattr(workloads, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name]()
    workload.setup(None)
    try:
        outputs = workload.op(1, workloads.Run())
        assert outputs and all(outputs.values())
        expected = workload.reference(1)
        if expected is not None:
            assert workloads.digests(outputs) == workloads.digests(expected)
        assert workload.known_answer()
    finally:
        report = workload.close()
    assert report["peak_rss_mb"] > 0
