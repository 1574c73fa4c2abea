"""Multi-user front end: leases, experiments, and result files.

The testbed is a shared instrument.  One lease at a time grants the
right to run experiments; everyone else gets a busy answer that says
when the current lease would expire on its own.  Experiments are
deterministic functions of (configuration, seed): each run builds a
fresh simulation world, so two runs with the same inputs produce
byte-identical result tables and event logs.  Lease tokens are the one
exception to "log everything": they are capabilities, so they never
appear in any log or status reply.

The ControlServer speaks newline-delimited JSON over TCP, one request
object per line, one response object per line.  It exists so several
people (or CI jobs) can share a single simulated testbed the same way
the real cabinet is shared.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import secrets
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .config import TestbedConfig
from .llrp import MAX_FRAME_LEN
from .reader import (
    MAX_DURATION_S,  # re-exported
    SORTED_JSON,
    Reader,
    TagObservation,
    TcpServer,
    check_duration_s,
)
from .wisent import (
    FirmwareImage,
    TransferStats,
    choose_antennas,
    parse_ti_txt,
    reprogram,
)
from .world import World

#: Longest request line, newline included: the reader protocol's frame
#: cap.  A reprogram request carrying a whole-span image is about 205 KB.
MAX_LINE_BYTES = MAX_FRAME_LEN

#: Which antennas each named bench arrangement energizes.
ENVIRONMENTS = {
    "single-tag": (1,),
    "multi-distance": (2,),
    "multi-angle": (3,),
    "dual": (2, 3),
}


def parse_antennas(text: str) -> tuple[int, ...]:
    """An environment name, or antenna ids joined by ``+`` like ``2+3``."""
    if text in ENVIRONMENTS:
        return ENVIRONMENTS[text]
    try:
        ids = tuple(int(part) for part in text.split("+"))
    except ValueError:
        raise ValueError(
            f"expected antenna ids like '2' or '2+3', or an environment "
            f"name from {sorted(ENVIRONMENTS)}; got {text!r}"
        ) from None
    check_id_list(ids, "antennas")
    return ids


def check_id_list(ids: tuple[int, ...], what: str) -> None:
    """Refuse an experiment's antenna or tag list that is empty or names
    one twice."""
    if not ids or len(set(ids)) != len(ids):
        raise ValueError(f"{what} must be distinct, one or more: {ids}")


class TestbedBusy(RuntimeError):
    def __init__(self, holder: str, expires_in_s: float):
        super().__init__(
            f"testbed leased to {holder!r}; lease expires in {expires_in_s:.0f}s"
        )
        self.holder = holder
        self.expires_in_s = expires_in_s


class InvalidToken(RuntimeError):
    pass


class LogWriteError(RuntimeError):
    """The experiment log could not be persisted; the run must not continue."""


@dataclass(frozen=True)
class Session:
    token: str
    user: str
    expires_at_s: float


class SessionManager:
    """Hands out the single lease; safe to hammer from many threads."""

    def __init__(self, lease_timeout_s: float = 300.0, clock=time.monotonic):
        self._timeout = lease_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._current: Session | None = None

    def _expire_unlocked(self) -> None:
        if self._current is not None and self._clock() >= self._current.expires_at_s:
            self._current = None

    def acquire(self, user: str) -> Session:
        with self._lock:
            self._expire_unlocked()
            if self._current is not None:
                raise TestbedBusy(
                    self._current.user,
                    self._current.expires_at_s - self._clock(),
                )
            self._current = Session(
                token=secrets.token_hex(16),
                user=user,
                expires_at_s=self._clock() + self._timeout,
            )
            return self._current

    def validate(self, token: str) -> Session:
        """Check a token and renew its idle timer."""
        with self._lock:
            self._expire_unlocked()
            current = self._current
            if current is None or current.token != token:
                raise InvalidToken("no such lease")
            self._current = dataclasses.replace(
                current, expires_at_s=self._clock() + self._timeout
            )
            return self._current

    def release(self, token: str) -> None:
        with self._lock:
            self._expire_unlocked()
            if self._current is None or self._current.token != token:
                raise InvalidToken("no such lease")
            self._current = None

    def holder(self) -> Session | None:
        with self._lock:
            self._expire_unlocked()
            return self._current


class ExperimentLog:
    """Append-only JSON-lines event log.

    Every event is one line, keys sorted, so identical event sequences
    serialize to identical bytes.  The UTF-8 bytes of each ``write`` call,
    one line or a reader call's lines, are handed to the OS in one
    unbuffered write (more only if the OS takes part) before it returns.
    A write failure raises immediately: an experiment whose record cannot
    be kept must abort, not limp on.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self._handle = open(self.path, "ab", buffering=0)
        except OSError as exc:
            raise LogWriteError(f"cannot open log {self.path}: {exc}") from exc

    def write(self, event: str | list[str] | dict) -> None:
        """Append a line a Reader rendered, a list of them, or a dict."""
        try:
            if isinstance(event, list):
                if not event:
                    return
                event = "\n".join(event)
            line = event if isinstance(event, str) else SORTED_JSON.encode(event)
            data = (line + "\n").encode()
            written = self._handle.write(data)
            while written < len(data):
                written += self._handle.write(data[written:])
        except (OSError, TypeError, ValueError) as exc:
            raise LogWriteError(f"cannot append to {self.path}: {exc}") from exc

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError as exc:
            raise LogWriteError(f"cannot close {self.path}: {exc}") from exc

    def __enter__(self) -> "ExperimentLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class InventoryRow:
    antenna_id: int
    tag_id: int
    epc_hex: str
    read_count: int
    mean_rssi_dbm: float


class TestbedController:
    """Runs experiments against fresh worlds built from one configuration."""

    def __init__(self, config: TestbedConfig):
        config.validate()
        self.config = config

    def _start(self, log: ExperimentLog | None, seed: int, **event):
        """A Reader on a fresh World for one run, and the run's event sink;
        the ``experiment`` event that opens the log is written here."""
        sink = log.write if log is not None else None
        reader = Reader(World(self.config, seed), event_sink=sink)
        if sink is not None:
            sink({"event": "experiment", "seed": seed, **event})
        return reader, sink

    def run_inventory_experiment(
        self,
        antenna_ids: tuple[int, ...],
        duration_s: float,
        seed: int = 0,
        log: ExperimentLog | None = None,
    ) -> list[InventoryRow]:
        """Survey each requested antenna for duration_s of virtual time.

        Antennas run one after another on the same world, so the later
        antenna's rounds start where the earlier one's clock stopped.
        Refused before anything runs: ``duration_s`` outside [0, MAX_DURATION_S],
        no antenna or a repeated one, and (GeometryError) an unknown antenna id.
        """
        check_duration_s(duration_s)
        check_id_list(antenna_ids, "antennas")
        for antenna_id in antenna_ids:
            self.config.geometry.antenna(antenna_id)
        reader, sink = self._start(
            log, seed, kind="inventory", antennas=antenna_ids, duration_s=duration_s
        )
        rows: list[InventoryRow] = []
        for antenna_id in antenna_ids:
            batches = reader.run_inventory((antenna_id,), duration_s * 1000.0)
            for batch in batches:
                rows.extend(_to_row(obs) for obs in batch)
        rows.sort(key=lambda r: (r.antenna_id, r.tag_id))
        if sink is not None:
            sink({"event": "experiment-end", "rows": len(rows)})
        return rows

    def run_reprogram_experiment(
        self,
        tag_ids: tuple[int, ...],
        image: FirmwareImage,
        seed: int = 0,
        log: ExperimentLog | None = None,
    ) -> list[TransferStats]:
        """Reprogram the listed tags in order, one transfer per tag.

        Antenna choice is per tag: best link plus any within the tie
        window.  A tag with no usable link gets an abort row with zero
        frames; an image outside the writable region is refused before
        any RF happens at all.  No tag or a repeated one (ValueError), and
        an unknown tag id (GeometryError), are refused before anything runs.
        """
        check_id_list(tag_ids, "tags")
        for tag_id in tag_ids:
            self.config.geometry.tag(tag_id)
        policy = self.config.transfer
        reader, sink = self._start(
            log, seed, kind="reprogram", tags=tag_ids, image_bytes=image.byte_count
        )
        results: list[TransferStats] = []
        for tag_id in tag_ids:
            tag = reader.world.tag(tag_id)
            antennas = choose_antennas(
                self.config.geometry,
                self.config.link,
                tag_id,
                tie_db=policy.antenna_tie_db,
            )
            if not antennas:
                stats = TransferStats(tag_id, (), 0, 0, 0.0, "abort-timeout")
            else:
                stats = reprogram(
                    tag.epc,
                    image,
                    reader,
                    policy=policy,
                    memory_map=tag.memory,
                    antennas=antennas,
                    tag_id=tag_id,
                )
            results.append(stats)
            if sink is not None:
                sink({"event": "transfer", **transfer_row(stats)})
        if sink is not None:
            sink({"event": "experiment-end", "rows": len(results)})
        return results


def transfer_row(stats: TransferStats) -> dict:
    """One transfer as its ``transfer`` event and a control reply's row
    carry it."""
    return {
        "tag_id": stats.tag_id,
        "antennas": list(stats.antennas),
        "messages_sent": stats.messages_sent,
        "messages_retried": stats.messages_retried,
        "duration_s": round(stats.virtual_duration_s, 3),
        "outcome": stats.outcome,
    }


def _to_row(obs: TagObservation) -> InventoryRow:
    return InventoryRow(
        antenna_id=obs.antenna_id,
        tag_id=obs.tag_id,
        epc_hex=obs.epc.hex(),
        read_count=obs.read_count,
        mean_rssi_dbm=obs.mean_rssi_dbm,
    )


# -- result files -----------------------------------------------------------


def _csv_table(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def format_inventory_csv(rows: list[InventoryRow]) -> str:
    return _csv_table(
        ["antenna", "tag_id", "epc", "read_count", "mean_rssi_dbm"],
        (
            [r.antenna_id, r.tag_id, r.epc_hex, r.read_count, f"{r.mean_rssi_dbm:.2f}"]
            for r in rows
        ),
    )


def format_reprogram_csv(stats: list[TransferStats]) -> str:
    return _csv_table(
        [
            "tag_id",
            "antennas",
            "messages_sent",
            "messages_retried",
            "duration_s",
            "outcome",
        ],
        (
            [
                s.tag_id,
                "+".join(str(a) for a in s.antennas),
                s.messages_sent,
                s.messages_retried,
                f"{s.virtual_duration_s:.3f}",
                s.outcome,
            ]
            for s in stats
        ),
    )


def write_inventory_csv(rows: list[InventoryRow], path: str | Path) -> None:
    Path(path).write_text(format_inventory_csv(rows), encoding="utf-8")


def write_reprogram_csv(stats: list[TransferStats], path: str | Path) -> None:
    Path(path).write_text(format_reprogram_csv(stats), encoding="utf-8")


# -- network control --------------------------------------------------------


class ControlServer(TcpServer):
    """Newline-delimited JSON control endpoint.

    Any number of clients may connect; the lease decides who may run
    experiments.  Requests: acquire, release, status, inventory,
    reprogram.  Responses always carry "ok"; failures add "error" and
    a human-readable "detail".
    """

    def __init__(
        self,
        config: TestbedConfig,
        host: str | None = None,
        port: int | None = None,
    ):
        self.config = config
        self.controller = TestbedController(config)
        self.sessions = SessionManager(config.controller.lease_timeout_s)
        # (firmware_text, obeys_goto_bios, responds_to_inventory) and the
        # image the last carried-out reprogram request built from them: a
        # resent text costs no parse, and its write ops are built once.
        self._held_image: tuple = ((None,), None)
        super().__init__(
            host if host is not None else config.controller.host,
            port if port is not None else config.controller.control_port,
            "control-server",
        )

    def _serve(self, conn: socket.socket) -> None:
        try:
            # A BufferedReader's readline keeps to its limit; a read-write
            # pair's can read past it.
            with conn.makefile("rb") as stream:
                while line := stream.readline(MAX_LINE_BYTES):
                    too_long = (
                        len(line) == MAX_LINE_BYTES and not line.endswith(b"\n")
                    )
                    line = line.strip()
                    if not (line or too_long):
                        continue
                    try:
                        if too_long:
                            raise ValueError(
                                f"request line over {MAX_LINE_BYTES} bytes"
                            )
                        request = json.loads(line)
                        if not isinstance(request, dict):
                            raise ValueError("request must be an object")
                    except (ValueError, RecursionError) as exc:  # nested too deep
                        reply = {
                            "ok": False,
                            "error": "bad-request",
                            "detail": str(exc),
                        }
                    else:
                        reply = self._handle(request)
                    data = SORTED_JSON.encode(reply).encode() + b"\n"
                    if too_long:
                        self._last_reply(conn, data)
                        break
                    conn.sendall(data)
        except (OSError, ValueError):
            pass
        finally:
            conn.close()

    def _handle(self, request: dict) -> dict:
        cmd = request.get("cmd")
        try:
            if cmd == "acquire":
                user = _string(request, "user", "anonymous")
                session = self.sessions.acquire(user)
                return {
                    "ok": True,
                    "token": session.token,
                    "expires_in_s": self.config.controller.lease_timeout_s,
                }
            if cmd == "release":
                self.sessions.release(_string(request, "token", ""))
                return {"ok": True}
            if cmd == "status":
                holder = self.sessions.holder()
                return {
                    "ok": True,
                    "busy": holder is not None,
                    "holder": None if holder is None else holder.user,
                    "environments": sorted(ENVIRONMENTS),
                    "antennas": list(self.config.geometry.antenna_ids()),
                }
            if cmd == "inventory":
                self.sessions.validate(_string(request, "token", ""))
                antennas = _parse_antennas(request.get("antennas"))
                duration_s = request.get("duration_s", 30.0)
                rows = self.controller.run_inventory_experiment(
                    antennas,
                    float(_expect(duration_s, _NUMBER, "duration_s")),
                    _expect(request.get("seed", 0), _INTEGER, "seed"),
                )
                return {
                    "ok": True,
                    "rows": [
                        {
                            "antenna": r.antenna_id,
                            "tag_id": r.tag_id,
                            "epc": r.epc_hex,
                            "read_count": r.read_count,
                            "mean_rssi_dbm": round(r.mean_rssi_dbm, 2),
                        }
                        for r in rows
                    ],
                }
            if cmd == "reprogram":
                self.sessions.validate(_string(request, "token", ""))
                text = _string(request, "firmware_text", "")
                held_key, image = self._held_image
                if text != held_key[0]:  # a held text is known to parse
                    image = parse_ti_txt(text)
                behavior = _expect(request.get("behavior", {}), _OBJECT, "behavior")
                flags = {
                    flag: _expect(behavior.get(flag, True), _BOOLEAN, flag)
                    for flag in ("obeys_goto_bios", "responds_to_inventory")
                }
                key = (text, *flags.values())
                if key != held_key:
                    image = dataclasses.replace(image, **flags)
                tag_ids = tuple(
                    _expect(t, _INTEGER, "tag id") for t in request.get("tags", ())
                )
                seed = _expect(request.get("seed", 0), _INTEGER, "seed")
                stats = self.controller.run_reprogram_experiment(
                    tag_ids, image, seed
                )
                self._held_image = (key, image)
                return {"ok": True, "rows": [transfer_row(s) for s in stats]}
            return {"ok": False, "error": "unknown-command", "detail": str(cmd)}
        except TestbedBusy as exc:
            return {
                "ok": False,
                "error": "busy",
                "detail": str(exc),
                "holder": exc.holder,
                "expires_in_s": round(exc.expires_in_s, 1),
            }
        except InvalidToken as exc:
            return {"ok": False, "error": "invalid-token", "detail": str(exc)}
        except (
            ValueError,
            LookupError,  # KeyError, an unknown antenna or tag (GeometryError)
            TypeError,  # null or wrongly shaped fields: seed, tags, antennas
            OverflowError,  # an integer duration_s too large for a float
        ) as exc:
            # The caller keeps the connection and its lease either way.
            return {"ok": False, "error": "bad-request", "detail": str(exc)}


# The exact Python types json.loads gives each JSON type: exact, because a
# boolean is an int; and never coerced, because int(), float() and bool()
# would quietly turn 1.9, true and "1" into 1, and "false" into True.
_INTEGER = (int,)
_NUMBER = (int, float)
_BOOLEAN = (bool,)
_STRING = (str,)
_OBJECT = (dict,)


def _expect(value, types: tuple[type, ...], what: str):
    if type(value) not in types:
        raise TypeError(f"{what} has the wrong JSON type: {value!r}")
    return value


def _string(request: dict, field: str, default: str) -> str:
    return _expect(request.get(field, default), _STRING, field)


def _parse_antennas(value) -> tuple[int, ...]:
    if value is None:
        raise ValueError("antennas required")
    if isinstance(value, str):
        return parse_antennas(value)
    return tuple(_expect(v, _INTEGER, "antenna id") for v in value)


class ControlClient:
    """One connection to a ControlServer; one call per request line."""

    def __init__(self, host: str, port: int, timeout_s: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._stream = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, request: dict) -> dict:
        self._stream.write(json.dumps(request).encode() + b"\n")
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ConnectionError("control server closed the connection")
        return json.loads(line)

    def acquire(self, user: str) -> dict:
        return self.call({"cmd": "acquire", "user": user})

    def release(self, token: str) -> dict:
        return self.call({"cmd": "release", "token": token})

    def status(self) -> dict:
        return self.call({"cmd": "status"})

    def inventory(
        self, token: str, antennas, duration_s: float, seed: int = 0
    ) -> dict:
        return self.call(
            {
                "cmd": "inventory",
                "token": token,
                "antennas": antennas,
                "duration_s": duration_s,
                "seed": seed,
            }
        )

    def reprogram(
        self,
        token: str,
        tags,
        firmware_text: str,
        behavior: dict | None = None,
        seed: int = 0,
    ) -> dict:
        return self.call(
            {
                "cmd": "reprogram",
                "token": token,
                "tags": list(tags),
                "firmware_text": firmware_text,
                "behavior": behavior or {},
                "seed": seed,
            }
        )
