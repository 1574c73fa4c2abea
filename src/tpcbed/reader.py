"""The RFID interrogator: inventory rounds, access delivery, and the wire.

One Reader drives one World.  Inventory runs are organized as reader
operations ("rospecs"): pick antennas, run slotted rounds until the
requested virtual duration has elapsed, and report per-(antenna, tag)
read statistics.  Access operations target a single tag by EPC and
retry each command until it is acknowledged, actively refused, or out
of budget.

The Reader object itself satisfies the session interface the transfer
code wants (``slot_duration_ms`` + ``execute_access``), so in-process
callers use it directly; it stores no specs.  ReaderServer/ReaderClient
carry the same operations over TCP with the binary framing from the
llrp module: the server holds the specs a client added and runs each
on the Reader when it is started.  RemoteReaderSession adapts the
client back to the session interface so callers cannot tell local from
remote.  TcpServer is the accept loop ReaderServer shares with the
control server.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from dataclasses import dataclass

from .gen2 import AccessResult, ReachableTag, rounded_q, run_inventory_round
from .llrp import (
    AddAccessSpec,
    AddROSpec,
    BlockWriteOp,
    CapabilitiesResponse,
    ChecksumOp,
    CommitOp,
    DecodeError,
    ErrorCode,
    ErrorMessage,
    FrameStream,
    GetCapabilities,
    GotoBiosOp,
    Keepalive,
    KeepaliveAck,
    Message,
    OP_KIND_NAMES,  # re-exported
    ROAccessReport,
    ReadOp,
    StartROSpec,
    StopROSpec,
    SuccessMessage,
    TagReportEntry,
    encode,
    encode_frames,
)
from .rfchannel import GeometryError
from .tag import (
    ApplicationBehavior,
    MemoryAccessError,
    TagAck,
    TagMode,
    WORD_BYTES,
)
from .wisent import choose_antennas
from .world import World

READER_MODEL = "tpcbed-sim"

#: Specs a ReaderServer holds at once, added and not yet started.
MAX_STORED_SPECS = 16

#: One encoder for every event-log line and control reply;
#: json.dumps(..., sort_keys=True) builds a fresh one per call.
SORTED_JSON = json.JSONEncoder(sort_keys=True)


#: Longest inventory survey, in virtual seconds per antenna: a day.  A
#: survey costs wall time in proportion, and a request holds its server
#: thread (on the control door, the lease too) until it ends.
MAX_DURATION_S = 86_400.0


def check_duration_s(duration_s: float) -> None:
    """Refuse a survey length that is not a number of seconds up to a day."""
    if not math.isfinite(duration_s) or not 0.0 <= duration_s <= MAX_DURATION_S:
        raise ValueError(
            f"duration_s must be between 0 and {MAX_DURATION_S:g} s, "
            f"got {duration_s!r}"
        )


def check_report(report_trigger: str, report_interval_ms: float) -> None:
    """Refuse a report trigger ``Reader.run_inventory`` cannot serve."""
    if report_trigger not in ("end", "periodic"):
        raise ValueError(f"unknown report trigger {report_trigger!r}")
    if report_trigger == "periodic" and report_interval_ms <= 0:
        raise ValueError("periodic reports need a positive interval")


@dataclass(frozen=True)
class TagObservation:
    """Read statistics for one (antenna, tag) pair over one report window."""

    antenna_id: int
    tag_id: int
    epc: bytes
    read_count: int
    mean_rssi_dbm: float
    last_rssi_dbm: float
    first_seen_ms: float
    last_seen_ms: float


@dataclass
class _Accumulator:
    tag_id: int
    read_count: int = 0
    rssi_total: float = 0.0
    last_rssi: float = 0.0
    first_seen_ms: float = 0.0
    last_seen_ms: float = 0.0


# The two events a Reader emits in its hot loops are rendered here, keys
# in sorted order, byte for byte what SORTED_JSON.encode gives for the
# same dict.  Only free text (a nack's detail) goes through the encoder,
# so its escaping stays the standard library's.  ``t`` is VirtualClock.iso()
# text, ``op`` one of OP_KIND_NAMES and ``target`` hex: none needs escaping.


def round_line(
    t: str, antenna: str, slots: int, singulated: int, collisions: int
) -> str:
    """A ``round`` event as one JSON line; ``antenna`` is already JSON."""
    return (
        f'{{"antenna": {antenna}, "collisions": {collisions}, '
        f'"event": "round", "singulated": {singulated}, "slots": {slots}, '
        f'"t": "{t}"}}'
    )


def access_line(
    t: str,
    op: str,
    target: str,
    antennas: str,
    attempts: int,
    success: bool,
    detail: str | None,
) -> str:
    """An ``access`` event as one JSON line; ``antennas`` is already JSON."""
    detail_json = "null" if detail is None else SORTED_JSON.encode(detail)
    return (
        f'{{"antennas": {antennas}, "attempts": {attempts}, '
        f'"detail": {detail_json}, "event": "access", "op": "{op}", '
        f'"success": {"true" if success else "false"}, "t": "{t}", '
        f'"target": "{target}"}}'
    )


class Reader:
    """Drives inventory rounds and access deliveries against one World.

    ``event_sink`` receives each ``round`` and ``access`` event as one
    rendered JSON line (a str without the newline), the form
    ``ExperimentLog.write`` takes.
    """

    def __init__(self, world: World, event_sink=None):
        self.world = world
        self._sink = event_sink

    @property
    def slot_duration_ms(self) -> float:
        return self.world.config.inventory.slot_duration_ms

    # -- inventory --------------------------------------------------------

    def run_inventory(
        self,
        antenna_ids: tuple[int, ...],
        duration_ms: float,
        report_trigger: str = "end",
        report_interval_ms: float = 0.0,
        event_sink=None,
    ) -> list[list[TagObservation]]:
        """Alternate rounds over the antennas until the duration elapses.

        Returns report batches: one per interval for a periodic trigger,
        exactly one (possibly empty) for trigger "end".  A zero duration
        runs no rounds.  Each antenna keeps its own Q estimate for the
        length of the run.
        """
        check_report(report_trigger, report_interval_ms)
        for antenna_id in antenna_ids:
            self.world.config.geometry.antenna(antenna_id)  # raises if unknown

        sink = event_sink if event_sink is not None else self._sink
        world = self.world
        config = world.config.inventory
        clock = world.clock
        slot_ms = config.slot_duration_ms
        started_ms = clock.now_ms
        last_report_ms = started_ms

        q_fp: dict[int, float] = {a: float(config.q_initial) for a in antenna_ids}
        acc: dict[tuple[int, bytes], _Accumulator] = {}
        batches: list[list[TagObservation]] = []

        def flush() -> None:
            rows = [
                TagObservation(
                    antenna_id=key[0],
                    tag_id=a.tag_id,
                    epc=key[1],
                    read_count=a.read_count,
                    mean_rssi_dbm=a.rssi_total / a.read_count,
                    last_rssi_dbm=a.last_rssi,
                    first_seen_ms=a.first_seen_ms,
                    last_seen_ms=a.last_seen_ms,
                )
                for key, a in sorted(acc.items())
            ]
            batches.append(rows)
            acc.clear()

        antenna_texts = [SORTED_JSON.encode(a) for a in antenna_ids]
        # The reachable list of each quiet antenna, which neither needs
        # harvesting nor a new list (see World.harvest_all).
        quiet: dict[int, list[ReachableTag]] = {}
        turn = 0
        while clock.now_ms - started_ms < duration_ms:
            antenna_turn = turn % len(antenna_ids)
            antenna_id = antenna_ids[antenna_turn]
            turn += 1
            # The antenna's carrier powers every tag it can see for the
            # whole round, so charge before asking anyone to reply.
            reachable = quiet.get(antenna_id)
            if reachable is None:
                round_ms = (2 ** rounded_q(q_fp[antenna_id])) * slot_ms
                if world.harvest_all(antenna_id, round_ms):
                    quiet.clear()
                    reachable = world.reachable(antenna_id)
                else:
                    reachable = quiet[antenna_id] = world.reachable(antenna_id)
            start_ms = clock.now_ms
            result = run_inventory_round(
                reachable,
                config,
                world.rng,
                q_fp=q_fp[antenna_id],
                start_time_ms=start_ms,
            )
            q_fp[antenna_id] = result.q_fp_after

            for slot_index, seen in result.singulations:
                seen_ms = start_ms + slot_index * slot_ms
                key = (antenna_id, seen.epc)
                entry = acc.get(key)
                if entry is None:
                    entry = acc[key] = _Accumulator(
                        tag_id=seen.tag_id, first_seen_ms=seen_ms
                    )
                entry.read_count += 1
                entry.rssi_total += seen.rssi_dbm
                entry.last_rssi = seen.rssi_dbm
                entry.last_seen_ms = seen_ms

            clock.advance(result.duration_ms)
            if sink is not None:
                sink(
                    round_line(
                        clock.iso(),
                        antenna_texts[antenna_turn],
                        result.slots,
                        len(result.singulations),
                        len(result.collisions),
                    )
                )
            if (
                report_trigger == "periodic"
                and clock.now_ms - last_report_ms >= report_interval_ms
            ):
                flush()
                last_report_ms = clock.now_ms

        if report_trigger == "end" or acc:
            flush()
        return batches

    # -- access -----------------------------------------------------------

    def execute_access(
        self,
        ops,
        target_epc: bytes,
        antennas: tuple[int, ...] | None = None,
        max_retries: int = 16,
    ) -> list[AccessResult]:
        """Run access commands in order against one tag.

        Each command is retried up to ``max_retries`` times beyond the
        first attempt, alternating antennas attempt by attempt when more
        than one is enabled.  A command the tag actively refuses is not
        retried, and a failed command stops the sequence: no frames are
        spent on commands after a failure.
        """
        world = self.world
        geometry = world.config.geometry
        tag = world.tag_by_epc(target_epc)
        if not antennas:
            # The best usable link; every antenna for an unknown EPC or a
            # tag with no usable link.
            best = () if tag is None else choose_antennas(
                geometry, world.config.link, tag.tag_id, tie_db=0.0
            )
            antennas = best[:1] or geometry.antenna_ids()
        else:
            for antenna_id in antennas:
                geometry.antenna(antenna_id)

        clock = world.clock
        harvest_all = world.harvest_all
        random = world.rng.random
        slot_ms = self.slot_duration_ms
        sink = self._sink
        results: list[AccessResult] = []
        # Neither the target nor its links change during a call, so look
        # them up once.  Command and reply must both survive the link:
        # an attempt succeeds with probability p², None where there is
        # no link at all.
        tag_id = None if tag is None else tag.tag_id
        success_p = []
        for antenna_id in antennas:
            quality = world.links.get((antenna_id, tag_id))
            p = None if quality is None else quality.delivery_probability
            success_p.append(None if p is None else p * p)
        if sink is not None:
            target_hex = target_epc.hex()
            antennas_json = SORTED_JSON.encode(list(antennas))
        # A harvest on the same turn from the same energies ends in the
        # same energies (see World.harvest_all), and a delivered command
        # changes no energy.  So each energy state the call reaches gets an
        # id, and per turn ``replays`` maps a state id to the next one and
        # the attempt's p² there (None where the target has no link or is
        # unpowered): only a (turn, state) not seen before is harvested.  A
        # replayed attempt touches locals alone.  The tags' energies are
        # written back from ``states`` (``held`` is the state they hold)
        # before a dispatch or a harvest, the clock from ``now`` before a
        # dispatch or a log line, and both when each op ends.  The mode half
        # of ``responsive`` is read again only after a dispatch or a harvest.
        tags = list(world.tags.values())
        state_ids: dict[tuple[float, ...], int] = {}
        states: list[tuple[float, ...]] = []
        replays: list[dict[int, tuple[int, float | None]]] = [{} for _ in antennas]

        def state_id(energies: tuple[float, ...]) -> int:
            found = state_ids.setdefault(energies, len(states))
            if found == len(states):
                states.append(energies)
            return found

        def hold(state: int, held: int) -> int:
            if state != held:
                for t, energy_uj in zip(tags, states[state]):
                    t.energy_uj = energy_uj
            return state

        def harvest(turn: int, state: int, held: int) -> tuple[int, float | None]:
            before = after = states[hold(state, held)]
            browned_out = False
            if harvest_all(antennas[turn], slot_ms):
                after = tuple([t.energy_uj for t in tags])
                browned_out = any(
                    uj == 0.0 < was_uj for uj, was_uj in zip(after, before)
                )
            p2 = success_p[turn] if tag is not None and tag.powered else None
            step = (state_id(after), p2)
            # A brownout also reset a mode and counted itself, which
            # replaying the energies would not do.
            if not browned_out:
                replays[turn][state] = step
            return step

        def listening() -> bool:
            return tag is not None and (
                tag.mode is TagMode.BIOS or tag.behavior.responds_to_inventory
            )

        state = held = state_id(tuple([t.energy_uj for t in tags]))
        now = clock.now_ms
        mode_ok = listening()

        for op in ops:
            handler = OP_HANDLERS.get(type(op))
            if handler is None:
                raise TypeError(f"not an access op: {type(op).__name__}")
            kind = op.kind
            attempts = 0
            success = False
            detail = None
            data: tuple[int, ...] = ()
            for attempt in range(max_retries + 1):
                turn = attempt % len(antennas)
                step = replays[turn].get(state)
                if step is None:
                    step = harvest(turn, state, held)
                    held = step[0]
                    mode_ok = listening()  # a brownout resets the mode
                state, p2 = step
                now += slot_ms
                attempts += 1

                if p2 is None or not mode_ok:
                    continue
                if random() >= p2:
                    continue
                clock.now_ms = now
                held = hold(state, held)
                ack = handler(op, tag)
                mode_ok = listening()
                if ack is None:
                    continue
                success = ack.ok
                detail = ack.reason
                data = tuple(ack.data)
                break

            clock.now_ms = now
            held = hold(state, held)
            results.append(
                AccessResult(kind, target_epc, success, attempts, detail, data)
            )
            if sink is not None:
                sink(
                    access_line(
                        clock.iso(),
                        kind,
                        target_hex,
                        antennas_json,
                        attempts,
                        success,
                        detail,
                    )
                )
            if not success:
                break
        return results


def _read(op: ReadOp, tag) -> TagAck:
    try:
        raw = tag.read_bytes(op.start_address, op.word_count * WORD_BYTES)
    except MemoryAccessError:
        return TagAck(False, "region-violation")
    words = tuple(raw[i] | (raw[i + 1] << 8) for i in range(0, len(raw), WORD_BYTES))
    return TagAck(True, data=words)


def _checksum(op: ChecksumOp, tag) -> TagAck:
    if tag.mode is not TagMode.BIOS:
        return TagAck(False, "wrong-mode")
    try:
        value = tag.compute_checksum(op.start_address, op.byte_length)
    except MemoryAccessError:
        return TagAck(False, "region-violation")
    return TagAck(True, data=(value,))


def _commit(op: CommitOp, tag) -> TagAck | None:
    behavior = ApplicationBehavior(op.obeys_goto_bios, op.responds_to_inventory)
    return tag.commit_firmware(list(op.segments), behavior)


#: What one delivered command does to the tag, by op class: the tag's
#: ack, or None for silence.  Keyed by exact class; nothing subclasses
#: an op type.
OP_HANDLERS = {
    ReadOp: _read,
    BlockWriteOp: lambda op, tag: tag.on_write_words(op.start_address, op.words),
    GotoBiosOp: lambda op, tag: tag.on_goto_bios(),
    ChecksumOp: _checksum,
    CommitOp: _commit,
}


# -- wire conversions -------------------------------------------------------


def observation_to_entry(row: TagObservation) -> TagReportEntry:
    return TagReportEntry(
        epc=row.epc,
        antenna_id=row.antenna_id,
        read_count=row.read_count,
        mean_rssi_mdbm=round(row.mean_rssi_dbm * 1000),
        last_rssi_mdbm=round(row.last_rssi_dbm * 1000),
        first_seen_ms=round(row.first_seen_ms),
        last_seen_ms=round(row.last_seen_ms),
    )


# -- server -----------------------------------------------------------------


def _disable_nagle(sock: socket.socket) -> None:
    """Send every frame as soon as it is written.

    A START_ROSPEC reply is a report frame followed by a terminal frame.
    With Nagle on, the second small write waits for the peer to ACK the
    first, and a delayed ACK stalls every access for about 40 ms.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _malformed(error: DecodeError) -> ErrorMessage:
    return ErrorMessage(0, int(ErrorCode.MALFORMED), error.kind.value)


class TcpServer:
    """Accepts TCP connections on a background thread, each served on its own.

    A subclass implements ``_serve(conn)``, which owns the connection
    and closes it.  ``_admit(conn)`` runs on the accept thread first, so
    connections are admitted or refused in arrival order; one it refuses
    it must close itself.
    """

    def __init__(self, host: str, port: int, name: str):
        self._sock = socket.create_server((host, port))
        # a plain close() does not wake a blocking accept() on Linux, so
        # poll: close() then costs at most one timeout tick
        self._sock.settimeout(0.1)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name=name, daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            conn.settimeout(None)
            if self._admit(conn):
                threading.Thread(
                    target=self._serve, args=(conn,), daemon=True
                ).start()

    def _admit(self, conn: socket.socket) -> bool:
        return True


class ReaderServer(TcpServer):
    """Serves one Reader to one client at a time over TCP.

    A second concurrent connection is refused with a busy error rather
    than queued: interleaving two controllers on one RF front end would
    corrupt both of their runs.  Within a connection, decode errors on a
    well-framed message get an error reply and the connection survives;
    unframeable garbage (bad version, absurd length) ends it.

    The server holds the specs its client added.  Starting one consumes
    it, and the connection's end drops the rest, so the server holds only
    the current client's specs added and not yet started, and at most
    MAX_STORED_SPECS of them: past that, an ADD of a new id gets
    BAD_STATE and is not stored.
    """

    def __init__(self, reader: Reader, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port, "reader-server")
        self.reader = reader
        self.rospecs: dict[int, AddROSpec] = {}
        self.accessspecs: dict[int, AddAccessSpec] = {}
        self._busy = threading.Lock()

    def _admit(self, conn: socket.socket) -> bool:
        _disable_nagle(conn)
        if self._busy.acquire(blocking=False):
            return True
        try:
            conn.sendall(
                encode(
                    ErrorMessage(
                        0, int(ErrorCode.BUSY), "reader has an active client"
                    )
                )
            )
        finally:
            conn.close()
        return False

    def _serve(self, conn: socket.socket) -> None:
        stream = FrameStream()
        try:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                try:
                    items = stream.feed(chunk)
                except DecodeError as exc:
                    conn.sendall(encode(_malformed(exc)))
                    return
                for item in items:
                    if isinstance(item, DecodeError):
                        replies = [_malformed(item)]
                    else:
                        replies = self._handle(item)
                    for reply in replies:
                        for frame in encode_frames(reply):
                            conn.sendall(frame)
        finally:
            conn.close()
            self.rospecs.clear()
            self.accessspecs.clear()
            self._busy.release()

    def _handle(self, msg: Message) -> list[Message]:
        reader = self.reader
        geometry = reader.world.config.geometry
        mid = msg.msg_id
        if isinstance(msg, GetCapabilities):
            return [CapabilitiesResponse(mid, READER_MODEL, geometry.antenna_ids())]
        if isinstance(msg, Keepalive):
            return [KeepaliveAck(mid)]
        if isinstance(msg, AddROSpec):
            try:
                check_duration_s(msg.duration_ms / 1000.0)
                check_report(msg.report_trigger, msg.report_interval_ms)
            except ValueError as exc:
                return [ErrorMessage(mid, int(ErrorCode.MALFORMED), str(exc))]
        if isinstance(msg, (AddROSpec, AddAccessSpec)):
            try:
                for antenna_id in msg.antenna_ids:
                    geometry.antenna(antenna_id)
            except GeometryError as exc:
                return [ErrorMessage(mid, int(ErrorCode.UNKNOWN_ANTENNA), str(exc))]
            if isinstance(msg, AddROSpec):
                specs, spec_id = self.rospecs, msg.rospec_id
            else:
                specs, spec_id = self.accessspecs, msg.accessspec_id
            stored = len(self.rospecs) + len(self.accessspecs)
            if spec_id not in specs and stored >= MAX_STORED_SPECS:
                text = f"{stored} specs already stored"
                return [ErrorMessage(mid, int(ErrorCode.BAD_STATE), text)]
            specs[spec_id] = msg
            return [SuccessMessage(mid)]
        if isinstance(msg, StartROSpec):
            rospec = self.rospecs.pop(msg.rospec_id, None)
            if rospec is not None:
                batches = reader.run_inventory(
                    rospec.antenna_ids,
                    float(rospec.duration_ms),
                    rospec.report_trigger,
                    float(rospec.report_interval_ms),
                )
                reports = [
                    ROAccessReport(mid, tuple(map(observation_to_entry, batch)))
                    for batch in batches
                ]
                return [*reports, SuccessMessage(mid)]
            spec = self.accessspecs.pop(msg.rospec_id, None)
            if spec is not None:
                results = reader.execute_access(
                    spec.ops, spec.target_epc, spec.antenna_ids, spec.max_retries
                )
                return [ROAccessReport(mid, (), tuple(results)), SuccessMessage(mid)]
        if isinstance(msg, StopROSpec) and (
            msg.rospec_id in self.rospecs or msg.rospec_id in self.accessspecs
        ):
            return [SuccessMessage(mid)]
        if isinstance(msg, (StartROSpec, StopROSpec)):
            return [
                ErrorMessage(
                    mid, int(ErrorCode.UNKNOWN_ROSPEC), f"no spec {msg.rospec_id}"
                )
            ]
        return [
            ErrorMessage(
                mid, int(ErrorCode.BAD_STATE), "unexpected message direction"
            )
        ]


# -- client -----------------------------------------------------------------


class ReaderError(RuntimeError):
    """The reader answered a request with an error message."""

    def __init__(self, error: ErrorMessage):
        super().__init__(f"reader error {error.code}: {error.text}")
        self.error = error


_TERMINAL = (CapabilitiesResponse, KeepaliveAck, SuccessMessage, ErrorMessage)


class ReaderClient:
    """Blocking request/response client for a ReaderServer."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        _disable_nagle(self._sock)
        self._stream = FrameStream()
        self._pending: list[Message] = []
        self._next_id = 1

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ReaderClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _take_id(self) -> int:
        mid = self._next_id
        self._next_id += 1
        return mid

    def _read_message(self) -> Message:
        while not self._pending:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("reader closed the connection")
            for item in self._stream.feed(chunk):
                if isinstance(item, DecodeError):
                    raise item
                self._pending.append(item)
        return self._pending.pop(0)

    def request(self, msg: Message) -> tuple[list[ROAccessReport], Message]:
        """Send one message, collect interim reports, return the terminal."""
        self._sock.sendall(encode(msg))
        reports: list[ROAccessReport] = []
        while True:
            reply = self._read_message()
            if isinstance(reply, ROAccessReport):
                reports.append(reply)
                continue
            if isinstance(reply, _TERMINAL):
                if isinstance(reply, ErrorMessage):
                    raise ReaderError(reply)
                return reports, reply
            raise ConnectionError(
                f"unexpected reply {type(reply).__name__}"
            )

    def capabilities(self) -> CapabilitiesResponse:
        _, reply = self.request(GetCapabilities(self._take_id()))
        assert isinstance(reply, CapabilitiesResponse)
        return reply

    def keepalive(self) -> None:
        self.request(Keepalive(self._take_id()))

    def run_inventory(
        self,
        antenna_ids: tuple[int, ...],
        duration_ms: int,
        report_trigger: str = "end",
        report_interval_ms: int = 0,
    ) -> list[list[TagReportEntry]]:
        rospec_id = self._take_id()
        self.request(
            AddROSpec(
                self._take_id(),
                rospec_id,
                tuple(antenna_ids),
                int(duration_ms),
                report_trigger,
                int(report_interval_ms),
            )
        )
        reports, _ = self.request(StartROSpec(self._take_id(), rospec_id))
        return [list(report.tag_reports) for report in reports]

    def execute_access(
        self,
        ops,
        target_epc: bytes,
        antennas: tuple[int, ...] | None = None,
        max_retries: int = 16,
    ) -> list[AccessResult]:
        spec_id = self._take_id()
        self.request(
            AddAccessSpec(
                self._take_id(),
                spec_id,
                target_epc,
                tuple(antennas or ()),
                int(max_retries),
                tuple(ops),
            )
        )
        reports, _ = self.request(StartROSpec(self._take_id(), spec_id))
        return [result for report in reports for result in report.access_results]


class RemoteReaderSession:
    """Session interface over a ReaderClient.

    The transfer code needs the slot pacing to convert frame counts to
    durations; the wire does not carry it, so the caller supplies the
    value it configured the far side with.
    """

    def __init__(self, client: ReaderClient, slot_duration_ms: float):
        self.client = client
        self.slot_duration_ms = slot_duration_ms
        self.execute_access = client.execute_access

