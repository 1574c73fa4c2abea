"""Cross-version golden pin: the CSV and event-log bytes of two reference
runs, fixed as sha256 digests.

Criterion 9 only shows that one code version repeats itself.  These
digests were taken from the code before any hot-path work, so a change
that speeds a layer up by moving one RNG draw or one float fails here.
If a change is meant to alter model output, recompute the digests and
say so in the change notes.
"""

import hashlib
from pathlib import Path

from tpcbed.config import default_config
from tpcbed.controller import (
    ExperimentLog,
    TestbedController as Controller,
    format_inventory_csv,
    format_reprogram_csv,
)
from tpcbed.wisent import load_firmware

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
