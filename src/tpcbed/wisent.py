"""Host side of wireless tag reprogramming.

The transfer rides the bootloader protocol the tags implement: yank the
running application with "go to bios", stream the image as word writes
into the application region, ask the tag to checksum every segment, and
finally commit, which flips the tag onto the new firmware.  Images come
as TI-TXT text with an optional behavior sidecar describing what the
new application will do once it runs.

Everything that can go wrong maps to one outcome per transfer: images
touching the bootloader are refused before a single frame is sent
(region-violation), a tag that never yields or stops answering aborts
on its timeout or retry budget (abort-timeout), and a checksum that
does not match what landed in flash refuses the commit (verify-failed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .llrp import BlockWriteOp, ChecksumOp, CommitOp, GotoBiosOp
from .rfchannel import (
    GeometryError,
    LinkBudgetParams,
    TestbedGeometry,
    link_quality,
)
from .tag import (
    FLASH_FILL_BYTE,
    MEMORY_SPAN,
    MemoryMap,
    WORD_BYTES,
    ones_complement_sum16,
)


class TiTxtError(ValueError):
    """Malformed TI-TXT input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class FirmwareSegment:
    start_address: int
    data: bytes

    @property
    def end_address(self) -> int:
        return self.start_address + len(self.data) - 1


@dataclass(frozen=True)
class FirmwareImage:
    """Parsed firmware: sorted non-overlapping segments plus behavior flags."""

    segments: tuple[FirmwareSegment, ...]
    obeys_goto_bios: bool = True
    responds_to_inventory: bool = True

    def __post_init__(self) -> None:
        prev_end = -1
        for seg in self.segments:
            if seg.start_address <= prev_end:
                raise ValueError("segments must be sorted and non-overlapping")
            prev_end = seg.end_address

    @property
    def byte_count(self) -> int:
        return sum(len(seg.data) for seg in self.segments)

    def word_aligned(self) -> "FirmwareImage":
        """Pad odd-length segments with the flash fill byte to word size."""
        padded = []
        for seg in self.segments:
            data = seg.data
            if len(data) % WORD_BYTES:
                data = data + bytes([FLASH_FILL_BYTE])
            padded.append(FirmwareSegment(seg.start_address, data))
        return replace(self, segments=tuple(padded))


@dataclass(frozen=True)
class TransferPolicy:
    """Pacing and retry budget for one reprogramming run.

    ``chunk_words`` words travel per write frame; each frame gets
    ``max_retries`` retries; the go-to-bios phase gives up after
    ``abort_timeout_ms`` of virtual time.  ``antenna_tie_db`` is the
    window within which two antennas count as equally good and both get
    enabled.
    """

    chunk_words: int = 1
    max_retries: int = 255
    abort_timeout_ms: float = 30_000.0
    antenna_tie_db: float = 3.0

    def validate(self) -> None:
        if self.chunk_words < 1:
            raise ValueError("chunk_words must be >= 1")
        if not 0 <= self.max_retries <= 0xFFFF:
            # the reader protocol carries it as a u16
            raise ValueError("max_retries must be in 0..65535")
        if self.abort_timeout_ms <= 0.0:
            raise ValueError("abort_timeout_ms must be > 0")
        if self.antenna_tie_db < 0.0:
            raise ValueError("antenna_tie_db must be >= 0")

    def bios_retries(self, slot_ms: float) -> int:
        """Retries of the go-to-bios command: as many attempts as fit in
        ``abort_timeout_ms``, less the first.

        They travel as ``max_retries``, a u16 in the reader protocol, so
        more than 65535 is refused here, for local and remote sessions
        alike.
        """
        attempts = self.abort_timeout_ms / slot_ms
        if not attempts <= 0x10000:
            raise ValueError(
                f"abort_timeout_ms {self.abort_timeout_ms:g} gives more than "
                f"65536 go-to-bios attempts of {slot_ms:g} ms"
            )
        return max(1, math.ceil(attempts)) - 1


OUTCOME_SUCCESS = "success"
OUTCOME_ABORT_TIMEOUT = "abort-timeout"
OUTCOME_REGION_VIOLATION = "region-violation"
OUTCOME_VERIFY_FAILED = "verify-failed"


@dataclass(frozen=True)
class TransferStats:
    """Result row for one tag's reprogramming attempt.

    ``messages_sent`` counts every frame that went on the air including
    retransmissions, so the virtual duration is exactly messages_sent
    times the slot duration.  ``messages_retried`` counts only the
    retransmissions.
    """

    tag_id: int
    antennas: tuple[int, ...]
    messages_sent: int
    messages_retried: int
    virtual_duration_s: float
    outcome: str


# -- TI-TXT ------------------------------------------------------------


def parse_ti_txt(text: str) -> FirmwareImage:
    """Parse TI-TXT firmware text.

    Grammar: '@hhhh' lines open a section at that hex address, data
    lines hold whitespace-separated hex byte pairs, a lone 'q' ends the
    file.  Blank lines are ignored.  Behavior flags default to a
    well-mannered application; load_firmware reads the sidecar that can
    override them.
    """
    segments: list[FirmwareSegment] = []
    current_start: int | None = None
    current_bytes = bytearray()
    terminated = False
    last_line = 0

    def flush(line_number: int) -> None:
        nonlocal current_start, current_bytes
        if current_start is None:
            return
        if not current_bytes:
            raise TiTxtError(line_number, "section with no data bytes")
        if current_start + len(current_bytes) > MEMORY_SPAN:
            raise TiTxtError(
                line_number,
                f"section at {current_start:#06x} runs past the 16-bit address space",
            )
        segments.append(FirmwareSegment(current_start, bytes(current_bytes)))
        current_start = None
        current_bytes = bytearray()

    for line_number, raw in enumerate(text.splitlines(), start=1):
        last_line = line_number
        line = raw.strip()
        if terminated and line:
            raise TiTxtError(line_number, "content after terminator")
        if not line:
            continue
        if line == "q" or line == "Q":
            flush(line_number)
            terminated = True
            continue
        if line.startswith("@"):
            flush(line_number)
            addr_text = line[1:].strip()
            try:
                address = int(addr_text, 16)
            except ValueError:
                raise TiTxtError(line_number, f"bad section address {addr_text!r}")
            if not 0 <= address < MEMORY_SPAN:
                raise TiTxtError(
                    line_number, f"section address {address:#x} out of range"
                )
            current_start = address
            continue
        if current_start is None:
            raise TiTxtError(line_number, "data before any @address section")
        for token in line.split():
            if len(token) != 2:
                raise TiTxtError(line_number, f"bad byte token {token!r}")
            try:
                current_bytes.append(int(token, 16))
            except ValueError:
                raise TiTxtError(line_number, f"bad byte token {token!r}")

    if not terminated:
        raise TiTxtError(last_line + 1, "missing 'q' terminator")

    ordered = sorted(segments, key=lambda s: s.start_address)
    for a, b in zip(ordered, ordered[1:]):
        if b.start_address <= a.end_address:
            raise TiTxtError(last_line, "overlapping sections")
    return FirmwareImage(tuple(ordered))


def serialize_ti_txt(image: FirmwareImage) -> str:
    """Canonical TI-TXT text: 16 bytes per line, uppercase, 'q' terminated."""
    lines = []
    for seg in image.segments:
        lines.append(f"@{seg.start_address:04X}")
        for i in range(0, len(seg.data), 16):
            chunk = seg.data[i : i + 16]
            lines.append(" ".join(f"{b:02X}" for b in chunk))
    lines.append("q")
    return "\n".join(lines) + "\n"


def behavior_sidecar_path(firmware_path: str | Path) -> Path:
    return Path(str(firmware_path) + ".behavior.json")


def load_firmware(path: str | Path) -> FirmwareImage:
    """Read a TI-TXT file plus its optional behavior sidecar.

    The sidecar is JSON next to the image, named <image>.behavior.json,
    holding obeys_goto_bios / responds_to_inventory booleans.  A sidecar
    that is no JSON object, or a flag that is not exactly a JSON boolean,
    raises a ConfigError naming the file (and the key).
    """
    from .config import ConfigError, _coerce  # config imports this module

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise TiTxtError(line, f"{path}: not UTF-8 text: {exc.reason}") from None
    image = parse_ti_txt(text)
    sidecar = behavior_sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"bad {sidecar}: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"bad {sidecar}: expected a JSON object")
        image = replace(
            image,
            **{
                key: _coerce(meta.get(key, True), True, f"{key} in {sidecar}")
                for key in ("obeys_goto_bios", "responds_to_inventory")
            },
        )
    return image


# -- placement checks ----------------------------------------------------


def validate_regions(
    image: FirmwareImage, memory_map: MemoryMap
) -> tuple[tuple[int, int], ...]:
    """The (start, end) span of each image segment that leaves the
    application region; an empty tuple means the image fits.

    Not an exception: overlap with the bootloader (or any byte outside
    the application region) is an expected pre-flight outcome.
    """
    violations = []
    app = memory_map.application
    for seg in image.segments:
        inside = app.contains(seg.start_address) and app.contains(seg.end_address)
        if not inside:
            violations.append((seg.start_address, seg.end_address))
    return tuple(violations)


# -- antenna choice --------------------------------------------------------


def choose_antennas(
    geometry: TestbedGeometry,
    params: LinkBudgetParams,
    tag_id: int,
    tie_db: float = 3.0,
) -> tuple[int, ...]:
    """Antennas to enable for one tag: the best link, plus any within tie_db.

    Antenna ids come back in ascending order.  A link that delivers
    nothing is never selected; a tag with no such link gets ``()``.
    """
    candidates = []
    for port in geometry.antennas:
        try:
            quality = link_quality(geometry, params, port.antenna_id, tag_id)
        except GeometryError:
            continue
        if quality.delivery_probability > 0.0:
            candidates.append((port.antenna_id, quality.rssi_dbm))
    if not candidates:
        return ()
    best = max(rssi for _, rssi in candidates)
    return tuple(
        antenna_id
        for antenna_id, rssi in sorted(candidates)
        if best - rssi <= tie_db
    )


# -- the transfer itself -----------------------------------------------


def _segment_words(segment: FirmwareSegment) -> list[int]:
    data = segment.data
    return [
        data[i] | (data[i + 1] << 8) for i in range(0, len(data), WORD_BYTES)
    ]


def reprogram(
    target_epc: bytes,
    image: FirmwareImage,
    reader_session,
    policy: TransferPolicy | None = None,
    memory_map: MemoryMap | None = None,
    antennas: tuple[int, ...] | None = None,
    tag_id: int = -1,
) -> TransferStats:
    """Push one firmware image onto one tag through a reader session.

    ``reader_session`` needs two members: ``slot_duration_ms`` and
    ``execute_access(ops, target_epc, antennas, max_retries)`` returning
    per-op results with ``success``/``attempts``/``data``.  The session
    may talk to an in-process reader or a remote one over the wire; the
    transfer logic cannot tell the difference.
    """
    policy = policy or TransferPolicy()
    policy.validate()
    slot_ms = reader_session.slot_duration_ms
    bios_retries = policy.bios_retries(slot_ms)
    image = image.word_aligned()

    sent = 0
    retried = 0

    def tally(results) -> bool:
        nonlocal sent, retried
        ok = True
        for result in results:
            sent += result.attempts
            retried += result.attempts - 1
            ok = ok and result.success
        return ok

    def failure_outcome(results) -> str:
        # An active region nack mid-write means the pre-flight map and
        # the tag's real map disagree; report it as what it is.
        for result in results:
            if not result.success and result.detail == "region-violation":
                return OUTCOME_REGION_VIOLATION
        return OUTCOME_ABORT_TIMEOUT

    def stats(outcome: str) -> TransferStats:
        return TransferStats(
            tag_id,
            antennas or (),
            sent,
            retried,
            sent * slot_ms / 1000.0,
            outcome,
        )

    if validate_regions(image, memory_map or MemoryMap()):
        return stats(OUTCOME_REGION_VIOLATION)

    # Yank the application.  The budget is however many attempts fit in
    # the abort timeout.
    results = reader_session.execute_access(
        [GotoBiosOp()], target_epc, antennas, max_retries=bios_retries
    )
    if not tally(results):
        return stats(OUTCOME_ABORT_TIMEOUT)

    # Stream the image, one chunk of words per frame.
    for segment in image.segments:
        words = _segment_words(segment)
        ops = []
        for offset in range(0, len(words), policy.chunk_words):
            chunk = words[offset : offset + policy.chunk_words]
            ops.append(
                BlockWriteOp(
                    segment.start_address + offset * WORD_BYTES, tuple(chunk)
                )
            )
        results = reader_session.execute_access(
            ops, target_epc, antennas, max_retries=policy.max_retries
        )
        if not tally(results):
            return stats(failure_outcome(results))

    # Ask the tag what actually landed, segment by segment.
    checksum_ops = [
        ChecksumOp(seg.start_address, len(seg.data)) for seg in image.segments
    ]
    results = reader_session.execute_access(
        checksum_ops, target_epc, antennas, max_retries=policy.max_retries
    )
    delivered = tally(results)
    if not delivered:
        return stats(OUTCOME_ABORT_TIMEOUT)
    for segment, result in zip(image.segments, results):
        expected = ones_complement_sum16(segment.data)
        if not result.data or result.data[0] != expected:
            return stats(OUTCOME_VERIFY_FAILED)

    # Commit: the tag re-verifies the same manifest before jumping.
    manifest = tuple(
        (seg.start_address, len(seg.data), ones_complement_sum16(seg.data))
        for seg in image.segments
    )
    commit = CommitOp(
        manifest,
        obeys_goto_bios=image.obeys_goto_bios,
        responds_to_inventory=image.responds_to_inventory,
    )
    results = reader_session.execute_access(
        [commit], target_epc, antennas, max_retries=policy.max_retries
    )
    if not tally(results):
        if results and results[0].detail == "checksum-mismatch":
            return stats(OUTCOME_VERIFY_FAILED)
        return stats(OUTCOME_ABORT_TIMEOUT)
    return stats(OUTCOME_SUCCESS)
