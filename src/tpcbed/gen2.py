"""Slotted-ALOHA inventory rounds and retried access delivery.

This is the frame-slotted anticollision loop UHF readers run: every
responsive tag draws one slot out of 2**Q, a slot with exactly one
decoded reply singulates that tag, and the floating-point Q estimate
drifts up on collisions and down on silence.  The access ops live here
too, each with what one delivered command does to a tag, and
AccessResult records one retried op; the retry loop itself is
``Reader.execute_access``.

Randomness comes exclusively from the ``random.Random`` instance the
caller passes in, which keeps every run replayable from its seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import ClassVar

from .tag import ApplicationBehavior, MemoryAccessError, TagAck, TagMode, WORD_BYTES

Q_MIN = 0
Q_MAX = 15


class MacConfigError(ValueError):
    """Inventory configuration outside the legal ranges."""


@dataclass(frozen=True)
class InventoryConfig:
    """Timing and Q-adaptation knobs for inventory and access rounds."""

    q_initial: int = 4
    q_fp_step: float = 0.5
    slot_duration_ms: float = 75.0

    def validate(self) -> None:
        if not Q_MIN <= self.q_initial <= Q_MAX:
            raise MacConfigError(f"q_initial must be in [{Q_MIN}, {Q_MAX}]")
        if self.q_fp_step < 0.0:
            raise MacConfigError("q_fp_step must be >= 0")
        if self.slot_duration_ms <= 0.0:
            raise MacConfigError("slot_duration_ms must be > 0")


class SlotKind(enum.Enum):
    EMPTY = "empty"
    SINGULATED = "singulated"
    COLLISION = "collision"


@dataclass(frozen=True)
class ReachableTag:
    """One tag as the MAC layer sees it: an id, an EPC, and a link."""

    tag_id: int
    epc: bytes
    rssi_dbm: float
    delivery_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delivery_probability <= 1.0:
            raise MacConfigError("delivery probability must be in [0, 1]")


@dataclass(frozen=True)
class SlotOutcome:
    """What one slot produced.

    ``tag_id``/``rssi_dbm`` are set for singulations, ``tag_ids`` holds
    the colliding ids (two or more) for collisions.
    """

    kind: SlotKind
    slot_index: int
    timestamp_ms: float
    tag_id: int | None = None
    rssi_dbm: float | None = None
    tag_ids: tuple[int, ...] = ()


@dataclass(slots=True)
class RoundResult:
    """One inventory frame, recorded by its replies rather than slot by slot.

    ``singulations`` holds ``(slot_index, tag)`` for every slot that
    decoded exactly one reply, ``collisions`` holds ``(slot_index,
    colliding tag ids)`` for every slot that decoded two or more, both in
    slot order.  The other slots of the ``slots`` in the frame were empty.
    Slot ``i`` starts at ``start_time_ms + i * slot_ms``.  ``outcomes``
    rebuilds the per-slot view on demand.
    """

    slots: int
    singulations: tuple[tuple[int, ReachableTag], ...]
    collisions: tuple[tuple[int, tuple[int, ...]], ...]
    q_fp_after: float
    start_time_ms: float
    slot_ms: float

    @property
    def duration_ms(self) -> float:
        return self.slots * self.slot_ms

    @property
    def outcomes(self) -> tuple[SlotOutcome, ...]:
        """One SlotOutcome per slot, empty slots included."""
        start, slot_ms = self.start_time_ms, self.slot_ms
        by_slot = {
            i: SlotOutcome(
                SlotKind.SINGULATED,
                i,
                start + i * slot_ms,
                tag_id=tag.tag_id,
                rssi_dbm=tag.rssi_dbm,
            )
            for i, tag in self.singulations
        }
        for i, tag_ids in self.collisions:
            by_slot[i] = SlotOutcome(
                SlotKind.COLLISION, i, start + i * slot_ms, tag_ids=tag_ids
            )
        return tuple(
            by_slot.get(i) or SlotOutcome(SlotKind.EMPTY, i, start + i * slot_ms)
            for i in range(self.slots)
        )


# -- access ops: each ``apply`` is what one delivered command does to the
# tag, its ack or None for silence.


@dataclass(frozen=True)
class ReadOp:
    kind: ClassVar[str] = "read"
    start_address: int
    word_count: int

    def apply(self, tag) -> TagAck:
        try:
            raw = tag.read_bytes(self.start_address, self.word_count * WORD_BYTES)
        except MemoryAccessError:
            return TagAck(False, "region-violation")
        words = zip(raw[::WORD_BYTES], raw[1::WORD_BYTES])  # little-endian
        return TagAck(True, data=tuple(low | high << 8 for low, high in words))


@dataclass(frozen=True, slots=True)
class BlockWriteOp:
    """Words to write from ``start_address`` on.

    Frozen because one is shared: an image builds its write ops once for
    every transfer (``FirmwareImage.write_ops``), and one connection's
    decoder once per distinct spec of block writes (``llrp.WriteRunMemo``).
    ``words`` must be a tuple for the same reason.
    """

    kind: ClassVar[str] = "block-write"
    start_address: int
    words: tuple[int, ...]

    def apply(self, tag) -> TagAck:
        return tag.on_write_words(self.start_address, self.words)


@dataclass(frozen=True)
class GotoBiosOp:
    kind: ClassVar[str] = "goto-bios"

    def apply(self, tag) -> TagAck | None:
        return tag.on_goto_bios()


@dataclass(frozen=True)
class ChecksumOp:
    kind: ClassVar[str] = "checksum"
    start_address: int
    byte_length: int

    def apply(self, tag) -> TagAck:
        if tag.mode is not TagMode.BIOS:
            return TagAck(False, "wrong-mode")
        try:
            value = tag.compute_checksum(self.start_address, self.byte_length)
        except MemoryAccessError:
            return TagAck(False, "region-violation")
        return TagAck(True, data=(value,))


@dataclass(frozen=True)
class CommitOp:
    """Activates a staged image: per-segment checksums plus behavior flags."""

    kind: ClassVar[str] = "commit"
    segments: tuple[tuple[int, int, int], ...]  # (start, byte_length, checksum)
    obeys_goto_bios: bool = True
    responds_to_inventory: bool = True

    def apply(self, tag) -> TagAck | None:
        behavior = ApplicationBehavior(self.obeys_goto_bios, self.responds_to_inventory)
        return tag.commit_firmware(list(self.segments), behavior)


AccessOp = ReadOp | BlockWriteOp | GotoBiosOp | ChecksumOp | CommitOp


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one retried access operation against one tag.

    Frozen because instances are shared: ``Reader.execute_access`` makes
    one per distinct outcome of a call, and the codec one per distinct
    bare result of a decoded report, so equal results of one call or one
    report may be the same object.
    """

    kind: str
    target_epc: bytes
    success: bool
    attempts: int
    detail: str | None = None
    data: tuple[int, ...] = ()


def rounded_q(q_fp: float) -> int:
    """Integer Q used for the next round.

    Half-up rounding: the floating estimate moves in half steps, and
    banker's rounding would make x.5 land on different sides depending
    on parity.
    """
    return int(q_fp + 0.5)


_Q_FLOOR = float(Q_MIN)
_Q_CEILING = float(Q_MAX)
# The per-round paths below clamp as min(max(q, floor), ceiling) does,
# NaN and -0.0 included, with the comparisons those builtins make: on
# CPython 3.11 the two calls cost about ten times as much.


def adjust_q(q_fp: float, outcome_kind: SlotKind, step: float = 0.5) -> float:
    """One Q-adaptation step: up on collision, down on empty, clamped."""
    if outcome_kind is SlotKind.COLLISION:
        q_fp += step
    elif outcome_kind is SlotKind.EMPTY:
        q_fp -= step
    return min(max(q_fp, _Q_FLOOR), _Q_CEILING)


def _after_empty_slots(q_fp: float, count: int, step: float) -> float:
    """Q after ``count`` empty slots in a row.

    Each empty slot lowers Q by one step, as ``adjust_q`` does; once a
    step no longer moves it (the floor), the remaining empty slots cannot
    either.
    """
    for _ in range(count):
        after = q_fp - step
        if after < _Q_FLOOR:
            after = _Q_FLOOR
        elif after > _Q_CEILING:
            after = _Q_CEILING
        if after == q_fp:
            break
        q_fp = after
    return q_fp


def run_inventory_round(
    reachable_tags: list[ReachableTag],
    config: InventoryConfig,
    rng: random.Random,
    q_fp: float | None = None,
    start_time_ms: float = 0.0,
) -> RoundResult:
    """One full inventory frame of 2**Q slots.

    Each tag draws one slot uniformly; in its slot it replies with its
    delivery probability.  Exactly one decoded reply singulates, two or
    more collide.  The slot count is fixed when the round starts; the
    returned q_fp feeds the next round.  Tags are processed in the list
    order given, so callers wanting reproducibility should pass a stable
    ordering.

    Only occupied slots are visited: the work grows with the replies,
    not with 2**Q.  The draws and the Q steps are the same, in the same
    order, as visiting every slot.
    """
    if q_fp is None:
        q_fp = float(config.q_initial)
    n_slots = 1 << rounded_q(q_fp)
    step = config.q_fp_step
    slot_ms = config.slot_duration_ms

    # rng.randrange(n_slots), spelled out: Random._randbelow draws
    # n.bit_length() bits and rejects values >= n.  Same draws, same RNG
    # state after (tests/test_gen2.py pins this against randrange).
    getrandbits = rng.getrandbits
    random = rng.random
    if n_slots == 1:
        # Most rounds once Q settles: every tag draws slot 0, that is
        # getrandbits(1) until a 0, then replies in list order.
        for tag in reachable_tags:
            while getrandbits(1):
                pass
        replying = [t for t in reachable_tags if random() < t.delivery_probability]
        singulations = collisions = ()
        if len(replying) == 1:
            singulations = ((0, replying[0]),)
        elif replying:
            collisions = ((0, tuple(t.tag_id for t in replying)),)
            q_fp += step
        else:
            q_fp -= step
        if q_fp < _Q_FLOOR:
            q_fp = _Q_FLOOR
        elif q_fp > _Q_CEILING:
            q_fp = _Q_CEILING
        return RoundResult(1, singulations, collisions, q_fp, start_time_ms, slot_ms)

    draws: dict[int, list[ReachableTag]] = {}
    bits = n_slots.bit_length()
    for tag in reachable_tags:
        slot_index = getrandbits(bits)
        while slot_index >= n_slots:
            slot_index = getrandbits(bits)
        draws.setdefault(slot_index, []).append(tag)

    singulations = []
    collisions = []
    next_slot = 0
    for slot_index in sorted(draws):
        if slot_index > next_slot:
            q_fp = _after_empty_slots(q_fp, slot_index - next_slot, step)
        next_slot = slot_index + 1
        replying = [
            tag for tag in draws[slot_index] if random() < tag.delivery_probability
        ]
        # adjust_q's step, inline: this runs for every occupied slot
        if len(replying) == 1:
            singulations.append((slot_index, replying[0]))
        elif replying:
            collisions.append((slot_index, tuple(t.tag_id for t in replying)))
            q_fp += step
        else:
            q_fp -= step
        if q_fp < _Q_FLOOR:
            q_fp = _Q_FLOOR
        elif q_fp > _Q_CEILING:
            q_fp = _Q_CEILING
    if n_slots > next_slot:
        q_fp = _after_empty_slots(q_fp, n_slots - next_slot, step)

    return RoundResult(
        n_slots, tuple(singulations), tuple(collisions), q_fp, start_time_ms, slot_ms
    )
