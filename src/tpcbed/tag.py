"""Battery-free tag model: harvesting, memory map, and bootloader protocol.

A tag runs entirely off harvested RF.  Above the harvest threshold its
capacitor charges linearly with incident power; below it the capacitor
drains, and hitting empty is a brownout that resets the volatile state
(protocol flags and the bios/application mode bit) while flash contents
survive.

Firmware is modeled behaviorally, not instruction by instruction: an
application is a pair of flags saying whether it yields to the
"go to bios" command and whether it answers inventory at all.  That is
enough to reproduce the two failure modes that matter on real hardware,
a hostile image that refuses to yield and an image that bricks the tag
by overwriting the resident bootloader.  The bootloader region is
therefore immutable through the wireless write path, full stop.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

WORD_BYTES = 2
EPC_LEN = 12  # bytes: a 96-bit EPC
MEMORY_SPAN = 0x10000
FLASH_FILL_BYTE = 0xFF

#: Default flash layout, MSP430-flavored: bootloader parked at the top
#: of the address space, application below it.
DEFAULT_BOOTLOADER_REGION = (0xFC00, 0xFFFF)
DEFAULT_APPLICATION_REGION = (0x4400, 0xFBFF)


class MemoryLayoutError(ValueError):
    """Regions overlap, run backwards, or fall outside the address span."""


class MemoryAccessError(ValueError):
    """Read or checksum range outside the address span."""


def ones_complement_sum16(data: bytes) -> int:
    """16-bit ones-complement sum of a byte string.

    Carries wrap around into the low bits (end-around carry).  The empty
    string and any run of zero bytes both sum to 0.
    """
    total = sum(data)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@dataclass(frozen=True)
class MemoryRegion:
    """Inclusive [start, end] byte range."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end < MEMORY_SPAN:
            raise MemoryLayoutError(
                f"region [{self.start:#06x}, {self.end:#06x}] out of the 16-bit span"
            )

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def contains(self, address: int) -> bool:
        return self.start <= address <= self.end

    def overlaps(self, start: int, end: int) -> bool:
        return start <= self.end and end >= self.start


@dataclass
class MemoryMap:
    """Tag flash: a bootloader region, an application region, contents."""

    bootloader: MemoryRegion = MemoryRegion(*DEFAULT_BOOTLOADER_REGION)
    application: MemoryRegion = MemoryRegion(*DEFAULT_APPLICATION_REGION)
    contents: bytearray = field(
        default_factory=lambda: bytearray([FLASH_FILL_BYTE]) * MEMORY_SPAN
    )

    def __post_init__(self) -> None:
        if self.bootloader.overlaps(self.application.start, self.application.end):
            raise MemoryLayoutError("bootloader and application regions overlap")
        if len(self.contents) != MEMORY_SPAN:
            raise MemoryLayoutError("contents must span the full 16-bit space")

    def read(self, start: int, length: int) -> bytes:
        if length < 0 or start < 0 or start + length > MEMORY_SPAN:
            raise MemoryAccessError(
                f"read [{start:#06x}, +{length}] outside the address span"
            )
        return bytes(self.contents[start : start + length])


class TagMode(enum.Enum):
    APPLICATION = "application"
    BIOS = "bios"


@dataclass(frozen=True)
class ApplicationBehavior:
    """Observable behavior of whatever firmware is currently committed."""

    obeys_goto_bios: bool = True
    responds_to_inventory: bool = True


@dataclass(frozen=True)
class EnergyParams:
    """Harvesting and consumption constants.

    Sized so a tag parked at the single-tag desk (about +19 dBm
    incident) charges within a couple of milliseconds and never browns
    out, while a tag reading the RSSI floor never accumulates anything.
    """

    capacity_uj: float = 100.0
    harvest_efficiency: float = 0.30
    harvest_threshold_dbm: float = -10.0
    idle_draw_mw: float = 0.01
    operate_min_uj: float = 1.0

    def validate(self) -> None:
        # With these signs a full tag above the threshold and an empty one
        # below it never change, which World.harvest_all relies on.
        if self.harvest_efficiency < 0.0:
            raise ValueError("harvest_efficiency must be >= 0")
        if self.idle_draw_mw < 0.0:
            raise ValueError("idle_draw_mw must be >= 0")


@dataclass(frozen=True)
class TagAck:
    """Reply to a delivered command; ``reason`` is set on a nack."""

    ok: bool
    reason: str | None = None
    data: tuple[int, ...] = ()


ACK = TagAck(True)
NACK_WRONG_MODE = TagAck(False, "wrong-mode")
NACK_REGION = TagAck(False, "region-violation")
NACK_CHECKSUM = TagAck(False, "checksum-mismatch")


class CrfidTag:
    """One transiently powered tag.

    Mutable simulation object; all methods are deterministic.  RF-level
    delivery (whether a command arrives at all) is the caller's problem;
    methods here model what the tag does with a command that arrived.
    """

    def __init__(
        self,
        tag_id: int,
        epc: bytes,
        energy: EnergyParams | None = None,
        memory: MemoryMap | None = None,
        behavior: ApplicationBehavior | None = None,
    ):
        if len(epc) != EPC_LEN:
            raise ValueError(f"EPC must be exactly {EPC_LEN} bytes (96 bits)")
        self.tag_id = tag_id
        self.epc = epc
        self.energy_params = energy or EnergyParams()
        self.memory = memory or MemoryMap()
        self.behavior = behavior or ApplicationBehavior()
        self.energy_uj = 0.0
        self.mode = TagMode.APPLICATION
        self.brownout_count = 0

    # -- power ---------------------------------------------------------

    @property
    def powered(self) -> bool:
        return self.energy_uj >= self.energy_params.operate_min_uj

    @property
    def responsive(self) -> bool:
        """Will this tag answer inventory right now?"""
        if not self.powered:
            return False
        if self.mode is TagMode.BIOS:
            return True
        return self.behavior.responds_to_inventory

    def harvest_step(self, incident_power_dbm: float, dt_ms: float) -> None:
        """Advance the capacitor by dt_ms under the given incident power.

        Charging is linear in incident milliwatts (so charge-from-empty
        time halves when the harvested power doubles); below the harvest
        threshold the idle draw discharges instead.  Draining through
        zero browns the tag out.
        """
        if dt_ms < 0.0:
            raise ValueError("dt_ms must be >= 0")
        params = self.energy_params
        if incident_power_dbm >= params.harvest_threshold_dbm:
            gained = (
                params.harvest_efficiency
                * (10.0 ** (incident_power_dbm / 10.0))
                * dt_ms
            )
            # min(capacity, charged) and max(0.0, drained) below, as the
            # comparisons those builtins make, at a fraction of their cost.
            charged = self.energy_uj + gained
            capacity = params.capacity_uj
            self.energy_uj = charged if charged < capacity else capacity
            return
        had_power = self.energy_uj > 0.0
        drained = self.energy_uj - params.idle_draw_mw * dt_ms
        self.energy_uj = drained if drained > 0.0 else 0.0
        if had_power and self.energy_uj == 0.0:
            self._brownout()

    def _brownout(self) -> None:
        # Flash survives; the mode bit and protocol flags are volatile.
        self.mode = TagMode.APPLICATION
        self.brownout_count += 1

    # -- bootloader protocol -------------------------------------------

    def on_goto_bios(self) -> TagAck | None:
        """Handle a delivered "go to bios" command.

        Returns None when the running application simply ignores the
        command: the host sees silence, indistinguishable from a lost
        frame.  Already being in bios acknowledges again (idempotent).
        """
        if self.mode is TagMode.BIOS:
            return ACK
        if self.behavior.obeys_goto_bios:
            self.mode = TagMode.BIOS
            return ACK
        return None

    def on_write_words(self, start_address: int, words: Sequence[int]) -> TagAck:
        """Write 16-bit words little-endian starting at start_address.

        Only legal in bios mode and only inside the application region;
        a rejected write changes nothing, there is no partial effect.
        """
        if self.mode is not TagMode.BIOS:
            return NACK_WRONG_MODE
        if not words:
            return ACK
        end = start_address + len(words) * WORD_BYTES - 1
        memory = self.memory
        application = memory.application
        bootloader = memory.bootloader
        # The application region lies inside the address span, so a range
        # inside it is inside the span too.
        if (
            start_address < application.start
            or end > application.end
            or (start_address <= bootloader.end and end >= bootloader.start)
        ):
            return NACK_REGION
        # Every word's range before any byte is written (no min/max call).
        for word in words:
            if word < 0 or word > 0xFFFF:
                return NACK_REGION
        contents = memory.contents
        for word in words:
            contents[start_address] = word & 0xFF
            contents[start_address + 1] = word >> 8
            start_address += WORD_BYTES
        return ACK

    def read_bytes(self, start: int, length: int) -> bytes:
        return self.memory.read(start, length)

    def compute_checksum(self, start: int, length: int) -> int:
        """Ones-complement sum over a byte range of flash."""
        return ones_complement_sum16(self.memory.read(start, length))

    def commit_firmware(
        self,
        segments: list[tuple[int, int, int]],
        behavior: ApplicationBehavior,
    ) -> TagAck:
        """Activate a staged image described by (start, length, checksum) rows.

        Only legal in bios mode.  Every segment checksum must match what
        is actually in flash; any mismatch refuses the commit and leaves
        the previously committed application active.  On success the tag
        jumps to the new application and clears its volatile state.
        """
        if self.mode is not TagMode.BIOS:
            return NACK_WRONG_MODE
        for start, length, checksum in segments:
            try:
                actual = self.compute_checksum(start, length)
            except MemoryAccessError:
                return NACK_CHECKSUM
            if actual != checksum:
                return NACK_CHECKSUM
        self.behavior = behavior
        self.mode = TagMode.APPLICATION
        return ACK


def default_epc(tag_id: int) -> bytes:
    """Stable 96-bit EPC for a simulated tag."""
    if not 0 <= tag_id <= 0xFF:
        raise ValueError("tag_id must fit one byte")
    return bytes([0xE2] + [0x00] * 10 + [tag_id])
