"""Cross-version golden pin: the CSV, report and event-log bytes of a few
reference runs, fixed as sha256 digests.

Criterion 9 only shows that one code version repeats itself.  Each digest
was taken from the code before the hot-path work on the layers it covers,
so a change that speeds a layer up by moving one RNG draw or one float
fails here.
If a change is meant to alter model output, recompute the digests and
say so in the change notes.
"""

import dataclasses
import hashlib
from pathlib import Path

from tpcbed.config import TagProfile, default_config
from tpcbed.controller import (
    ExperimentLog,
    TestbedController as Controller,
    format_inventory_csv,
    format_reprogram_csv,
)
from tpcbed.llrp import BlockWriteOp, ChecksumOp, CommitOp, GotoBiosOp, ReadOp
from tpcbed.reader import Reader, ReaderClient, ReaderServer, observation_to_entry
from tpcbed.tag import default_epc
from tpcbed.wisent import load_firmware
from tpcbed.world import World

DEMO_IMAGE = Path(__file__).resolve().parent.parent / "firmware" / "demo_app.txt"

REPROGRAM_CSV_SHA256 = (
    "512b70941bbd444397859c946cea835303885544dbbfe6f7660d38b4554a2499"
)
REPROGRAM_LOG_SHA256 = (
    "49cf556a5cd2aa57cf53ca0356d33f604bea463bd807c4be5aa8baf7b126a736"
)
INVENTORY_CSV_SHA256 = (
    "d14dc48a5d4a66f2909458b10427b53408303db4a9f89329ab788968d110a051"
)
INVENTORY_LOG_SHA256 = (
    "bec70f74dfca084fbde5c8f722710398cc3613a3f22cf642f0e66fce27c8bc35"
)
PERIODIC_BATCHES_SHA256 = (
    "4d2e390340b778c2ee1da573bfd0a6058c00a09bcc31cc46fc9ced79266780bc"
)
PERIODIC_LOG_SHA256 = (
    "5276d741f825e18b5dc79573fbfe36db70f1782afb3aab70a180f547688e5e1b"
)
REMOTE_BATCHES_SHA256 = (
    "6856becb870c2e2e4b442497996f2051a3a57e4cc13953f30fcd95e1353ef64f"
)
REFUSALS_LOG_SHA256 = (
    "68763722da2d0a3f54b3669d6fc5af72bb85ebd2060f886f6f5f2a273d9e38bb"
)

# Two antennas take turns round by round, and a report interval that does
# not divide the run flushes mid-run: paths the controller's one-antenna
# surveys never take.
PERIODIC_ROSPEC = dict(
    antenna_ids=(2, 3),
    duration_ms=60_000,
    report_trigger="periodic",
    report_interval_ms=7_500,
)
PERIODIC_SEED = 11


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reprogram_tags_0_to_6_seed_7(tmp_path):
    controller = Controller(default_config())
    image = load_firmware(DEMO_IMAGE)
    log_path = tmp_path / "reprogram.jsonl"
    with ExperimentLog(log_path) as log:
        stats = controller.run_reprogram_experiment(
            tuple(range(7)), image, seed=7, log=log
        )
    assert stats[0].messages_sent == 11088  # the README example
    assert _sha256(format_reprogram_csv(stats).encode()) == REPROGRAM_CSV_SHA256
    assert _sha256(log_path.read_bytes()) == REPROGRAM_LOG_SHA256


def test_inventory_antennas_1_2_3_seed_42(tmp_path):
    controller = Controller(default_config())
    log_path = tmp_path / "inventory.jsonl"
    with ExperimentLog(log_path) as log:
        rows = controller.run_inventory_experiment((1, 2, 3), 120.0, seed=42, log=log)
    assert _sha256(format_inventory_csv(rows).encode()) == INVENTORY_CSV_SHA256
    assert _sha256(log_path.read_bytes()) == INVENTORY_LOG_SHA256


def _render(batches) -> bytes:
    """Every field of every report row, floats in full precision."""
    return repr(
        [[dataclasses.astuple(row) for row in batch] for batch in batches]
    ).encode()


def test_periodic_inventory_antennas_2_3_seed_11(tmp_path):
    log_path = tmp_path / "periodic.jsonl"
    spec = PERIODIC_ROSPEC
    with ExperimentLog(log_path) as log:
        world = World(default_config(), seed=PERIODIC_SEED)
        reader = Reader(world, event_sink=log.write)
        batches = reader.run_inventory(
            spec["antenna_ids"],
            float(spec["duration_ms"]),
            spec["report_trigger"],
            float(spec["report_interval_ms"]),
        )
    assert len(batches) == 8
    assert _sha256(_render(batches)) == PERIODIC_BATCHES_SHA256
    assert _sha256(log_path.read_bytes()) == PERIODIC_LOG_SHA256


def test_periodic_inventory_through_reader_server(tmp_path):
    local = Reader(World(default_config(), seed=PERIODIC_SEED))
    expected = local.run_inventory(
        PERIODIC_ROSPEC["antenna_ids"],
        float(PERIODIC_ROSPEC["duration_ms"]),
        PERIODIC_ROSPEC["report_trigger"],
        float(PERIODIC_ROSPEC["report_interval_ms"]),
    )
    log_path = tmp_path / "server.jsonl"
    with ExperimentLog(log_path) as log:
        served = Reader(World(default_config(), seed=PERIODIC_SEED), log.write)
        with ReaderServer(served) as server:
            with ReaderClient(server.host, server.port) as client:
                batches = client.run_inventory(**PERIODIC_ROSPEC)
    assert batches == [[observation_to_entry(o) for o in b] for b in expected]
    assert _sha256(_render(batches)) == REMOTE_BATCHES_SHA256
    assert _sha256(log_path.read_bytes()) == PERIODIC_LOG_SHA256


# Access calls the tag refuses or never answers, so the log holds every
# nack reason and "success": false; the transfers above log only
# "detail": null.  Tag 4 runs an application that ignores goto-bios.
REFUSALS_SEED = 13
REFUSALS = [
    ([BlockWriteOp(0x4400, (0x1234,))], default_epc(2), None, 16),  # wrong-mode
    ([GotoBiosOp(), BlockWriteOp(0xFC00, (0xFFFF,))], default_epc(2), None, 16),
    ([CommitOp(((0x4400, 2, 0xBEEF),))], default_epc(2), (2, 3), 16),
    ([ReadOp(0xFFFE, 4)], default_epc(1), (2, 3), 16),  # past the span
    ([ChecksumOp(0x4400, 16)], default_epc(3), (3,), 16),  # not in bios
    ([GotoBiosOp()], default_epc(4), (2, 3), 40),  # silence to the end
    ([GotoBiosOp()], bytes(12), (2,), 5),  # no such tag
]


def test_refused_and_unanswered_access_seed_13(tmp_path):
    config = default_config()
    config.tag_profiles[4] = TagProfile(obeys_goto_bios=False)
    log_path = tmp_path / "refusals.jsonl"
    with ExperimentLog(log_path) as log:
        reader = Reader(World(config, seed=REFUSALS_SEED), event_sink=log.write)
        details = [
            [r.detail for r in reader.execute_access(*call)] for call in REFUSALS
        ]
    assert details == [
        ["wrong-mode"],
        [None, "region-violation"],
        ["checksum-mismatch"],
        ["region-violation"],
        ["wrong-mode"],
        [None],
        [None],
    ]
    assert _sha256(log_path.read_bytes()) == REFUSALS_LOG_SHA256
