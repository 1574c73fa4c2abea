"""Which entry points of ``tpcbed`` the traced run wraps, and under what name.

Wrapping happens from outside: module functions are replaced in every
``tpcbed`` module that imported them, methods on their class.  The source
tree is never edited.  ``instrument`` returns a callable that puts every
original back.
"""

from __future__ import annotations

import sys


def _gen2_round(counts, result, args) -> None:
    slots = result.outcomes
    counts["gen2.slots"] += len(slots)
    for outcome in slots:
        kind = outcome.kind.value
        if kind == "singulated":
            counts["gen2.singulated"] += 1
        elif kind == "collision":
            counts["gen2.collisions"] += 1


def _execute_access(counts, result, args) -> None:
    for access in result:
        counts["reader.access.ops"] += 1
        counts["reader.access.attempts"] += access.attempts
        counts["reader.access.successes"] += access.success


def _reprogram(counts, result, args) -> None:
    counts["wisent.frames"] += result.messages_sent
    counts["wisent.retried"] += result.messages_retried


def _encode(counts, result, args) -> None:
    counts["llrp.encode.bytes"] += len(result)
    counts["llrp.ops"] += len(getattr(args[0], "ops", ()))


def instrument(tracer, worlds: list):
    """Wrap the layer entry points; every World built is appended to
    ``worlds`` so brownouts can be read off its tags afterwards."""
    import tpcbed.config
    import tpcbed.controller
    import tpcbed.gen2
    import tpcbed.llrp
    import tpcbed.reader
    import tpcbed.rfchannel
    import tpcbed.tag
    import tpcbed.wisent
    import tpcbed.world

    def _world_built(counts, result, args) -> None:
        worlds.append(args[0])

    functions = [
        (tpcbed.config, "load_config", "config.load_config", None),
        (tpcbed.rfchannel, "link_quality", "rfchannel.link_quality", None),
        (tpcbed.gen2, "run_inventory_round", "gen2.round", _gen2_round),
        (tpcbed.wisent, "parse_ti_txt", "wisent.parse_ti_txt", None),
        (tpcbed.wisent, "choose_antennas", "wisent.choose_antennas", None),
        (tpcbed.wisent, "reprogram", "wisent.reprogram", _reprogram),
        (tpcbed.llrp, "encode", "llrp.encode", _encode),
        (tpcbed.llrp, "decode", "llrp.decode", None),
    ]
    methods = [
        (tpcbed.tag.CrfidTag, "harvest_step", "tag.harvest_step", None),
        (tpcbed.tag.CrfidTag, "on_write_words", "tag.on_write_words", None),
        (tpcbed.world.World, "__init__", "world.init", _world_built),
        (tpcbed.world.World, "harvest_all", "world.harvest_all", None),
        (tpcbed.world.World, "reachable", "world.reachable", None),
        (tpcbed.world.World, "tag_by_epc", "world.tag_by_epc", None),
        (tpcbed.world.World, "link", "world.link", None),
        (tpcbed.llrp.FrameStream, "feed", "llrp.feed", None),
        (tpcbed.reader.Reader, "run_inventory", "reader.run_inventory", None),
        (
            tpcbed.reader.Reader,
            "execute_access",
            "reader.execute_access",
            _execute_access,
        ),
        (tpcbed.reader.ReaderClient, "request", "reader.client.request", None),
        (
            tpcbed.controller.TestbedController,
            "run_inventory_experiment",
            "controller.run_inventory_experiment",
            None,
        ),
        (
            tpcbed.controller.TestbedController,
            "run_reprogram_experiment",
            "controller.run_reprogram_experiment",
            None,
        ),
        (tpcbed.controller.ExperimentLog, "write", "controller.log.write", None),
    ] + [
        (tpcbed.controller.SessionManager, name, "controller.sessions", None)
        for name in ("acquire", "validate", "release", "holder")
    ]

    undo = []
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "tpcbed" or name.startswith("tpcbed.")
    ]
    for owner, attr, span, on_return in functions:
        original = getattr(owner, attr)
        traced = tracer.wrap(original, span, on_return)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                undo.append((module, attr, original))
    for cls, attr, span, on_return in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(original, span, on_return))
        undo.append((cls, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def summarize(tracer, worlds: list) -> dict:
    """The tracer's summary plus brownouts read off every World built."""
    summary = tracer.summary()
    summary["counts"]["tag.brownouts"] = sum(
        tag.brownout_count for world in worlds for tag in world.tags.values()
    )
    return summary
