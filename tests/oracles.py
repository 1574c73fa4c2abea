"""Independent reference implementations the tests check against.

Everything here is written from first principles with a different
structure than the package code (linear-power Friis instead of dB
sums, whole-sum carry folding instead of incremental, brute-force
enumeration instead of sampling), so shared bugs are unlikely.
"""

import itertools
import math
import struct

SPEED_OF_LIGHT = 299_792_458.0


def checksum_oracle(data: bytes) -> int:
    """Ones'-complement byte sum: add everything, then fold carries."""
    total = 0
    for b in data:
        total += b
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def incident_oracle(
    distance_m: float,
    angle_deg: float,
    *,
    tx_dbm: float = 30.0,
    antenna_gain_dbi: float = 8.0,
    tag_gain_dbi: float = 2.0,
    frequency_hz: float = 915e6,
    polarization_db: float = 3.0,
    boundary_m: float = 0.15,
    near_penalty_db: float = 14.0,
    coupling_db_per_neighbor: float = 2.0,
    neighbors: int = 0,
    floor_dbm: float = -90.0,
) -> float:
    """Forward link power via linear-domain Friis."""
    wavelength = SPEED_OF_LIGHT / frequency_hz
    p_tx_mw = 10.0 ** (tx_dbm / 10.0)
    g_ant = 10.0 ** (antenna_gain_dbi / 10.0)
    g_tag = 10.0 ** (tag_gain_dbi / 10.0)
    spreading = (wavelength / (4.0 * math.pi * distance_m)) ** 2
    cos2 = math.cos(math.radians(angle_deg)) ** 2
    fixed_losses_db = polarization_db + coupling_db_per_neighbor * neighbors
    if distance_m < boundary_m:
        fixed_losses_db += near_penalty_db
    p_mw = p_tx_mw * g_ant * g_tag * spreading * cos2 * 10.0 ** (-fixed_losses_db / 10.0)
    if p_mw <= 0.0:
        return floor_dbm
    return max(10.0 * math.log10(p_mw), floor_dbm)


def rssi_oracle(
    distance_m: float,
    angle_deg: float,
    *,
    tx_dbm: float = 30.0,
    antenna_gain_dbi: float = 8.0,
    tag_gain_dbi: float = 2.0,
    frequency_hz: float = 915e6,
    polarization_db: float = 3.0,
    boundary_m: float = 0.15,
    near_penalty_db: float = 14.0,
    coupling_db_per_neighbor: float = 2.0,
    backscatter_loss_db: float = 30.0,
    ambient_db: float = 0.0,
    neighbors: int = 0,
    floor_dbm: float = -90.0,
) -> float:
    """Two-traversal RSSI via linear-domain Friis, from scratch.

    Forward: tx, both gains, spreading, cos^2, polarization, near-field,
    coupling.  Return: conversion loss, then spreading, cos^2,
    polarization and near-field again, antenna gain once more, ambient
    offset.  The coupling penalty rides only the forward traversal.
    """
    incident = incident_oracle(
        distance_m,
        angle_deg,
        tx_dbm=tx_dbm,
        antenna_gain_dbi=antenna_gain_dbi,
        tag_gain_dbi=tag_gain_dbi,
        frequency_hz=frequency_hz,
        polarization_db=polarization_db,
        boundary_m=boundary_m,
        near_penalty_db=near_penalty_db,
        coupling_db_per_neighbor=coupling_db_per_neighbor,
        neighbors=neighbors,
        floor_dbm=floor_dbm,
    )
    if incident <= floor_dbm:
        return floor_dbm
    wavelength = SPEED_OF_LIGHT / frequency_hz
    spreading = (wavelength / (4.0 * math.pi * distance_m)) ** 2
    cos2 = math.cos(math.radians(angle_deg)) ** 2
    if cos2 <= 0.0:
        return floor_dbm
    back_mw = (
        10.0 ** ((incident - backscatter_loss_db) / 10.0)
        * 10.0 ** (antenna_gain_dbi / 10.0)
        * spreading
        * cos2
        * 10.0 ** (-polarization_db / 10.0)
    )
    if distance_m < boundary_m:
        back_mw *= 10.0 ** (-near_penalty_db / 10.0)
    return max(10.0 * math.log10(back_mw) - ambient_db, floor_dbm)


def logistic_oracle(rssi_dbm: float, midpoint_dbm: float, slope_db: float) -> float:
    return 1.0 / (1.0 + math.exp(-(rssi_dbm - midpoint_dbm) / slope_db))


def singulation_distribution(
    n_slots: int, probabilities: list[float]
) -> dict[int, float]:
    """Exact distribution of singulations per round by brute force.

    Enumerates every (slot assignment, decode outcome) combination:
    each tag picks a slot uniformly, then independently decodes with
    its probability; a slot with exactly one decoded reply singulates.
    """
    n = len(probabilities)
    dist: dict[int, float] = {}
    for assignment in itertools.product(range(n_slots), repeat=n):
        for decodes in itertools.product((0, 1), repeat=n):
            weight = (1.0 / n_slots) ** n
            for p, d in zip(probabilities, decodes):
                weight *= p if d else (1.0 - p)
            singulated = 0
            for slot in range(n_slots):
                decoded_here = sum(
                    1
                    for tag_index in range(n)
                    if assignment[tag_index] == slot and decodes[tag_index]
                )
                if decoded_here == 1:
                    singulated += 1
            dist[singulated] = dist.get(singulated, 0.0) + weight
    return dist


def total_variation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def inventory_round_oracle(reachable_tags, config, rng, q_fp, start_time_ms=0.0):
    """One inventory frame walked slot by slot, every slot materialized.

    This is the package's original round loop, kept as the reference the
    reply-driven round must match exactly: same outcomes, same Q, same
    RNG draws.  Returns (outcomes, q_fp_after, duration_ms).
    """
    from tpcbed.gen2 import SlotKind, SlotOutcome

    n_slots = 1 << int(q_fp + 0.5)
    draws = {}
    for tag in reachable_tags:
        draws.setdefault(rng.randrange(n_slots), []).append(tag)
    outcomes = []
    for slot_index in range(n_slots):
        timestamp = start_time_ms + slot_index * config.slot_duration_ms
        replying = [
            tag
            for tag in draws.get(slot_index, [])
            if rng.random() < tag.delivery_probability
        ]
        if len(replying) == 1:
            outcome = SlotOutcome(
                SlotKind.SINGULATED,
                slot_index,
                timestamp,
                tag_id=replying[0].tag_id,
                rssi_dbm=replying[0].rssi_dbm,
            )
        elif replying:
            outcome = SlotOutcome(
                SlotKind.COLLISION,
                slot_index,
                timestamp,
                tag_ids=tuple(t.tag_id for t in replying),
            )
        else:
            outcome = SlotOutcome(SlotKind.EMPTY, slot_index, timestamp)
        outcomes.append(outcome)
        if outcome.kind is SlotKind.COLLISION:
            q_fp += config.q_fp_step
        elif outcome.kind is SlotKind.EMPTY:
            q_fp -= config.q_fp_step
        q_fp = min(max(q_fp, 0.0), 15.0)
    return tuple(outcomes), q_fp, n_slots * config.slot_duration_ms


def write_words_oracle(tag, start_address, words):
    """The tag's original word write, every check spelled out: the reason
    it refuses (None when it writes), and the flash after.

    Mode first, then an empty write acks, then the span, the bootloader,
    the application region and each word's range, and only then a byte
    at a time.  Returns (ok, reason) and leaves ``tag`` as the write does.
    """
    from tpcbed.tag import MEMORY_SPAN, TagMode

    if tag.mode is not TagMode.BIOS:
        return False, "wrong-mode"
    if not words:
        return True, None
    end = start_address + 2 * len(words) - 1
    memory = tag.memory
    inside = all(
        memory.application.contains(address) for address in (start_address, end)
    )
    if (
        start_address < 0
        or end >= MEMORY_SPAN
        or memory.bootloader.overlaps(start_address, end)
        or not inside
        or not all(0 <= word <= 0xFFFF for word in words)
    ):
        return False, "region-violation"
    for i, word in enumerate(words):
        memory.contents[start_address + 2 * i] = word % 256
        memory.contents[start_address + 2 * i + 1] = word // 256
    return True, None


def execute_access_oracle(reader, ops, target_epc, antennas, max_retries):
    """One access call walked attempt by attempt, nothing carried over.

    This is the reader's original retry loop, kept as the reference the
    reader must match exactly: every attempt harvests on its antenna and
    looks the tag, its link and its responsiveness up afresh; same
    results, clock, RNG draws and tag state.  Returns (results, events),
    each event as the dict the log line encodes.
    """
    from tpcbed.gen2 import AccessResult
    from tpcbed.rfchannel import GeometryError

    world = reader.world
    slot_ms = world.config.inventory.slot_duration_ms
    results, events = [], []
    for op in ops:
        kind = op.kind
        attempts, success, detail, data = 0, False, None, ()
        for attempt in range(max_retries + 1):
            antenna_id = antennas[attempt % len(antennas)]
            world.harvest_all(antenna_id, slot_ms)
            world.clock.now_ms += slot_ms
            attempts += 1
            tag = world.tag_by_epc(target_epc)
            if tag is None:
                continue
            try:
                p = world.link(antenna_id, tag.tag_id).delivery_probability
            except GeometryError:
                continue
            if not tag.responsive:
                continue
            if world.rng.random() >= p * p:
                continue
            ack = op.apply(tag)
            if ack is None:
                continue
            success, detail, data = ack.ok, ack.reason, tuple(ack.data)
            break
        results.append(
            AccessResult(kind, target_epc, success, attempts, detail, data)
        )
        events.append(
            {
                "event": "access",
                "t": world.clock.iso(),
                "op": kind,
                "target": target_epc.hex(),
                "antennas": list(antennas),
                "attempts": attempts,
                "success": success,
                "detail": detail,
            }
        )
        if not success:
            break
    return results, events


def run_inventory_oracle(
    reader, antenna_ids, duration_ms, report_trigger="end", report_interval_ms=0.0
):
    """Alternating inventory rounds, nothing carried from round to round.

    This is the reader's original inventory loop, kept as the reference
    the reader must match exactly: every round harvests on its antenna and
    asks the World afresh who can answer it; reads come from the per-slot
    view of each round.  Same batches, clock, RNG draws and tag state.
    Returns (batches, events), each event as the dict the log line encodes.
    """
    from tpcbed.gen2 import rounded_q, run_inventory_round
    from tpcbed.reader import TagObservation

    world = reader.world
    config = world.config.inventory
    clock = world.clock
    started_ms = last_report_ms = clock.now_ms
    q_fp = {antenna_id: float(config.q_initial) for antenna_id in antenna_ids}
    reads = {}  # (antenna, epc) -> [(seen_ms, tag_id, rssi_dbm), ...]
    batches, events = [], []

    def flush():
        batch = []
        for (antenna_id, epc), seen in sorted(reads.items()):
            total = 0.0
            for _, _, rssi in seen:
                total += rssi
            batch.append(
                TagObservation(
                    antenna_id=antenna_id,
                    tag_id=seen[0][1],
                    epc=epc,
                    read_count=len(seen),
                    mean_rssi_dbm=total / len(seen),
                    last_rssi_dbm=seen[-1][2],
                    first_seen_ms=seen[0][0],
                    last_seen_ms=seen[-1][0],
                )
            )
        batches.append(batch)
        reads.clear()

    rounds = 0
    while clock.now_ms - started_ms < duration_ms:
        antenna_id = antenna_ids[rounds % len(antenna_ids)]
        rounds += 1
        n_slots = 1 << rounded_q(q_fp[antenna_id])
        world.harvest_all(antenna_id, n_slots * config.slot_duration_ms)
        result = run_inventory_round(
            world.reachable(antenna_id),
            config,
            world.rng,
            q_fp=q_fp[antenna_id],
            start_time_ms=clock.now_ms,
        )
        q_fp[antenna_id] = result.q_fp_after
        outcomes = result.outcomes
        singulated = [o for o in outcomes if o.tag_id is not None]
        for outcome in singulated:
            epc = world.tag(outcome.tag_id).epc
            reads.setdefault((antenna_id, epc), []).append(
                (outcome.timestamp_ms, outcome.tag_id, outcome.rssi_dbm)
            )
        clock.now_ms += len(outcomes) * config.slot_duration_ms
        events.append(
            {
                "event": "round",
                "t": clock.iso(),
                "antenna": antenna_id,
                "slots": len(outcomes),
                "singulated": len(singulated),
                "collisions": sum(1 for o in outcomes if o.tag_ids),
            }
        )
        if (
            report_trigger == "periodic"
            and clock.now_ms - last_report_ms >= report_interval_ms
        ):
            flush()
            last_report_ms = clock.now_ms
    if report_trigger == "end" or reads:
        flush()
    return batches, events


def entry_to_observation(entry, tag_id=-1):
    """A wire tag report back as an observation; the wire carries no tag id."""
    from tpcbed.reader import TagObservation

    return TagObservation(
        antenna_id=entry.antenna_id,
        tag_id=tag_id,
        epc=entry.epc,
        read_count=entry.read_count,
        mean_rssi_dbm=entry.mean_rssi_mdbm / 1000.0,
        last_rssi_dbm=entry.last_rssi_mdbm / 1000.0,
        first_seen_ms=float(entry.first_seen_ms),
        last_seen_ms=float(entry.last_seen_ms),
    )


# -- the reader wire's per-record codec ----------------------------------
#
# The access-op and access-result loops of the wire codec as they were
# before runs of uniform records were packed and read whole: one record at
# a time, each through its own pack or unpack.  The codec must give the
# same bytes, and the same message or the same DecodeError, for any input.

_OP_HEAD = struct.Struct(">BHH")  # kind, address, word count or byte length
_U16_PAIR = struct.Struct(">HH")
_COMMIT_HEAD = struct.Struct(">BBH")  # kind, flags, segment count
_SEGMENT = struct.Struct(">HHH")  # start, byte length, checksum
_RESULT_HEAD = struct.Struct(">B12sBIH")  # kind, epc, success, attempts, words
_BARE_RESULT = struct.Struct(">B12sBIHH")  # the head and the detail length
_U16 = struct.Struct(">H")


def _words(count):
    return struct.Struct(f">{count}H")


def pack_ops_oracle(ops) -> bytes:
    """The ops part of an ADD_ACCESSSPEC payload, one op at a time."""
    from tpcbed.llrp import (
        BlockWriteOp,
        ChecksumOp,
        CommitOp,
        EncodeError,
        GotoBiosOp,
        ReadOp,
    )

    out = []
    for op in ops:
        if isinstance(op, BlockWriteOp):
            n = len(op.words)
            out.append(_OP_HEAD.pack(1, op.start_address, n))
            out.append(_words(n).pack(*op.words))
        elif isinstance(op, ReadOp):
            out.append(_OP_HEAD.pack(0, op.start_address, op.word_count))
        elif isinstance(op, GotoBiosOp):
            out.append(bytes((2,)))
        elif isinstance(op, ChecksumOp):
            out.append(_OP_HEAD.pack(3, op.start_address, op.byte_length))
        elif isinstance(op, CommitOp):
            flags = (1 if op.obeys_goto_bios else 0) | (
                2 if op.responds_to_inventory else 0
            )
            out.append(_COMMIT_HEAD.pack(4, flags, len(op.segments)))
            for start, length, checksum in op.segments:
                out.append(_SEGMENT.pack(start, length, checksum))
        else:
            raise EncodeError(f"unknown access op {op!r}")
    return b"".join(out)


def parse_ops_oracle(data, pos, count, memo=None):
    """``count`` access ops from ``pos`` on, one at a time; the codec's
    ``_parse_ops`` signature, so a test can put it in that one's place.
    It reads every op afresh and leaves ``memo`` alone."""
    from tpcbed.llrp import (
        BlockWriteOp,
        ChecksumOp,
        CommitOp,
        DecodeError,
        DecodeErrorKind,
        GotoBiosOp,
        ReadOp,
    )

    ops = []
    for _ in range(count):
        kind = data[pos]
        if kind == 1:
            start, n = _U16_PAIR.unpack_from(data, pos + 1)
            ops.append(BlockWriteOp(start, _words(n).unpack_from(data, pos + 5)))
            pos += 5 + 2 * n
        elif kind == 0:
            ops.append(ReadOp(*_U16_PAIR.unpack_from(data, pos + 1)))
            pos += 5
        elif kind == 2:
            ops.append(GotoBiosOp())
            pos += 1
        elif kind == 3:
            ops.append(ChecksumOp(*_U16_PAIR.unpack_from(data, pos + 1)))
            pos += 5
        elif kind == 4:
            _, flags, n = _COMMIT_HEAD.unpack_from(data, pos)
            pos += _COMMIT_HEAD.size
            segments = tuple(
                _SEGMENT.unpack_from(data, pos + 6 * i) for i in range(n)
            )
            pos += 6 * n
            ops.append(CommitOp(segments, bool(flags & 1), bool(flags & 2)))
        else:
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown op kind {kind}"
            )
    return tuple(ops), pos


def parse_results_oracle(data, pos, count):
    """``count`` access results from ``pos`` on, one at a time; the
    codec's ``_parse_results`` signature."""
    from tpcbed.gen2 import AccessResult
    from tpcbed.llrp import OP_KIND_NAMES, DecodeError, DecodeErrorKind

    results = []
    for _ in range(count):
        code, epc, success, attempts, n, size = _BARE_RESULT.unpack_from(data, pos)
        kind = OP_KIND_NAMES.get(code)
        if kind is None:
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown op kind {code}"
            )
        pos += _RESULT_HEAD.size
        words = ()
        if n:
            words = _words(n).unpack_from(data, pos)
            (size,) = _U16.unpack_from(data, pos + 2 * n)
            pos += 2 * n
        if size:
            end = pos + 2 + _U16.unpack_from(data, pos)[0]
            if end > len(data):
                raise DecodeError(
                    DecodeErrorKind.MALFORMED_PAYLOAD, "payload truncated"
                )
            detail, pos = data[pos + 2 : end].decode("utf-8"), end
        else:
            detail = None
            pos += 2  # the empty detail's length
        results.append(AccessResult(kind, epc, success != 0, attempts, detail, words))
    return tuple(results), pos
