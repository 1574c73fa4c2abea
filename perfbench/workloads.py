"""The four benchmark workloads, each driving tpcbed through its public API.

A workload sets up (config, firmware, and for the networked ones a server
process and its connections), then runs ops in a closed loop.  Each op
takes one op seed and returns the bytes it produced, so the runner can
check them.  ``NOTES.md`` says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import select
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import servers
from spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.yaml"
FIRMWARE = ROOT / "firmware" / "demo_app.txt"
OUT = HERE / "out"

REPROGRAM_TAGS = tuple(range(7))
STATUS_RATE_HZ = 100.0
clock = time.perf_counter

_COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tpcbed; "
    "config = tpcbed.load_config(sys.argv[2]); tpcbed.load_firmware(sys.argv[3]); "
    "tpcbed.TestbedController(config)"
)


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {kind: hashlib.sha256(data).hexdigest() for kind, data in outputs.items()}


@dataclass
class Run:
    """What a loop of ops produced."""

    attempted: int = 0
    failed: int = 0
    # one (wall s, virtual s, frames) row per completed op
    ops: list[tuple[float, float, int]] = field(default_factory=list)
    # latency samples of the workload's timed request, ms
    latency_ms: list[float] = field(default_factory=list)
    # (op seed, sha256 of each output by kind) for every op, in the order run
    outputs: list[tuple[int, dict[str, str]]] = field(default_factory=list)
    # control-mix only: status round trips and how late each was sent, ms
    status_rtt_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"op failed: {what}", file=sys.stderr)

    def rate(self, column: int) -> float:
        """Virtual seconds (column 1) or frames (column 2) per wall second
        spent in ops."""
        return sum(row[column] for row in self.ops) / sum(row[0] for row in self.ops)

    def slow_decile_rate(self, column: int) -> float:
        """The rate that nine ops in ten reach or beat (10th percentile of
        per-op rates)."""
        return percentile([row[column] / row[0] for row in self.ops], 10)


class Workload:
    """Set-up, a closed loop of ops, and the in-process reference outputs."""

    name = ""
    pool = 8  # op seeds per pass; ops cycle through them
    trace_ops = 8  # ops in the traced pass (the first seeds of the pool)
    server_kind: str | None = None  # "reader" or "control" for networked ones
    latency_of = ""  # what op_p90_ms times

    def setup(self, trace_stem: Path | None) -> None:
        """Everything before the first op; ``setup_s`` times it."""
        import tpcbed

        self.tpcbed = tpcbed
        self.config = tpcbed.load_config(CONFIG)
        self.image = tpcbed.load_firmware(FIRMWARE)
        self.controller = tpcbed.TestbedController(self.config)
        if self.server_kind is None:
            # A user of the in-process API first starts an interpreter and
            # imports the package, so set-up includes doing that afresh.
            paths = [str(SRC), str(CONFIG), str(FIRMWARE)]
            subprocess.run([sys.executable, "-c", _COLD_START, *paths], check=True)
        else:
            trace_file = None if trace_stem is None else f"{trace_stem}.server.tsv.gz"
            self.server = servers.ServerProcess(
                self.server_kind, str(CONFIG), trace_file
            )

    def close(self) -> dict:
        """End the set-up; return the simulating process's peak RSS and,
        for a traced server, its span summary."""
        if self.server_kind is None:
            return {"peak_rss_mb": servers.peak_rss_mb()}
        return self.server.stop()

    def run(self, seeds: list[int], seconds: float, run: Run) -> None:
        """Ops in a closed loop until ``seconds`` passed and every seed ran."""
        deadline = clock() + seconds
        i = 0
        while i < len(seeds) or clock() < deadline:
            seed = seeds[i % len(seeds)]
            run.attempted += 1
            try:
                outputs = digests(self.op(seed, run))
            except Exception:
                run.fail(traceback.format_exc())
                outputs = {}
            run.outputs.append((seed, outputs))
            i += 1

    def op(self, seed: int, run: Run) -> dict[str, bytes]:
        raise NotImplementedError

    def reference(self, seed: int) -> dict[str, bytes] | None:
        """In-process outputs a networked op must equal, if any."""
        return None

    def known_answer(self) -> bool:
        """The README's documented example still comes out."""
        return True

    def named_metrics(self, run: Run, metrics: dict) -> dict:
        """This workload's figures under the names its specification uses."""
        return {}

    def _files(self, *suffixes: str) -> list[Path]:
        paths = [OUT / f"{self.name}.{suffix}" for suffix in suffixes]
        for path in paths:
            path.unlink(missing_ok=True)
        return paths


class InventorySurvey(Workload):
    name = "inventory-survey"
    latency_of = "run_inventory_experiment call with its log and CSV"
    ANTENNAS = (1, 2, 3)
    DURATION_S = 120.0

    def op(self, seed: int, run: Run) -> dict[str, bytes]:
        tpcbed = self.tpcbed
        csv_path, log_path = self._files("csv", "jsonl")
        start = clock()
        with tpcbed.ExperimentLog(log_path) as log:
            rows = self.controller.run_inventory_experiment(
                self.ANTENNAS, self.DURATION_S, seed, log=log
            )
        tpcbed.write_inventory_csv(rows, csv_path)
        elapsed = clock() - start
        run.latency_ms.append(elapsed * 1000.0)
        run.ops.append((elapsed, self.DURATION_S * len(self.ANTENNAS), 0))
        return {"csv": csv_path.read_bytes(), "log": log_path.read_bytes()}

    def named_metrics(self, run: Run, metrics: dict) -> dict:
        return {"inventory.vsec_per_s": (run.rate(1), "vs/s")}

    def known_answer(self) -> bool:
        # README quick start: antenna 2, 10 s, seed 42 reads 8, 19, 13.
        rows = self.controller.run_inventory_experiment((2,), 10.0, 42)
        return [r.read_count for r in rows[:3]] == [8, 19, 13]


class ReprogramLocal(Workload):
    name = "reprogram-local"
    trace_ops = 4
    latency_of = "run_reprogram_experiment call with its log and CSV"

    def op(self, seed: int, run: Run) -> dict[str, bytes]:
        tpcbed = self.tpcbed
        csv_path, log_path = self._files("csv", "jsonl")
        start = clock()
        with tpcbed.ExperimentLog(log_path) as log:
            stats = self.controller.run_reprogram_experiment(
                REPROGRAM_TAGS, self.image, seed, log=log
            )
        tpcbed.write_reprogram_csv(stats, csv_path)
        elapsed = clock() - start
        run.latency_ms.append(elapsed * 1000.0)
        run.ops.append(
            (
                elapsed,
                sum(s.virtual_duration_s for s in stats),
                sum(s.messages_sent for s in stats),
            )
        )
        return {"csv": csv_path.read_bytes(), "log": log_path.read_bytes()}

    def named_metrics(self, run: Run, metrics: dict) -> dict:
        return {"reprogram.frames_per_s": (run.rate(2), "1/s")}

    def known_answer(self) -> bool:
        # README: tags 0-2, seed 7 take 11088, 1506 and 2909 frames.
        stats = self.controller.run_reprogram_experiment((0, 1, 2), self.image, 7)
        return [s.messages_sent for s in stats] == [11088, 1506, 2909]


class _TimedSession:
    """Session interface that times every execute_access call."""

    def __init__(self, inner, samples: list[float]):
        self.inner = inner
        self.samples = samples
        self.slot_duration_ms = inner.slot_duration_ms

    def execute_access(self, *args, **kwargs):
        start = clock()
        results = self.inner.execute_access(*args, **kwargs)
        self.samples.append((clock() - start) * 1000.0)
        return results


class ReprogramRemote(ReprogramLocal):
    name = "reprogram-remote"
    trace_ops = 2
    server_kind = "reader"
    latency_of = "execute_access call over the wire"

    def setup(self, trace_stem: Path | None) -> None:
        super().setup(trace_stem)
        try:
            self.client = self.tpcbed.ReaderClient("127.0.0.1", self.server.port)
        except OSError:
            self.server.stop()
            raise
        self.session = self.tpcbed.RemoteReaderSession(
            self.client, self.config.inventory.slot_duration_ms
        )

    def close(self) -> dict:
        self.client.close()
        return super().close()

    def named_metrics(self, run: Run, metrics: dict) -> dict:
        return {
            "remote.frames_per_s": (run.rate(2), "1/s"),
            "remote.access_p50_ms": (percentile(run.latency_ms, 50), "ms"),
            "remote.access_p90_ms": metrics["op_p90_ms"],
        }

    def op(self, seed: int, run: Run) -> dict[str, bytes]:
        # The transfer loop of run_reprogram_experiment, with the remote
        # session in place of the in-process Reader.
        tpcbed = self.tpcbed
        (csv_path,) = self._files("csv")
        self.server.use_world(seed)
        policy = self.config.transfer
        session = _TimedSession(self.session, run.latency_ms)
        start = clock()
        # Tag EPCs and memory maps as a World with this seed has them.
        world = tpcbed.World(self.config, seed)
        stats = []
        for tag_id in REPROGRAM_TAGS:
            tag = world.tag(tag_id)
            antennas = tpcbed.choose_antennas(
                self.config.geometry,
                self.config.link,
                tag_id,
                tie_db=policy.antenna_tie_db,
            )
            if not antennas:
                stats.append(
                    tpcbed.TransferStats(tag_id, (), 0, 0, 0.0, "abort-timeout")
                )
                continue
            stats.append(
                tpcbed.reprogram(
                    tag.epc,
                    self.image,
                    session,
                    policy=policy,
                    memory_map=tag.memory,
                    antennas=antennas,
                    tag_id=tag_id,
                )
            )
        tpcbed.write_reprogram_csv(stats, csv_path)
        run.ops.append(
            (
                clock() - start,
                sum(s.virtual_duration_s for s in stats),
                sum(s.messages_sent for s in stats),
            )
        )
        return {"csv": csv_path.read_bytes()}

    def reference(self, seed: int) -> dict[str, bytes]:
        stats = self.controller.run_reprogram_experiment(
            REPROGRAM_TAGS, self.image, seed
        )
        return {"csv": self.tpcbed.controller.format_reprogram_csv(stats).encode()}


class ControlMix(Workload):
    name = "control-mix"
    pool = 32
    trace_ops = 16
    server_kind = "control"
    latency_of = "status request on connection B, timed from when it was due"
    INVENTORY_S = 5.0
    TAGS = (1, 6)

    def setup(self, trace_stem: Path | None) -> None:
        super().setup(trace_stem)
        self.firmware_text = FIRMWARE.read_text()
        self.behavior = {
            "obeys_goto_bios": self.image.obeys_goto_bios,
            "responds_to_inventory": self.image.responds_to_inventory,
        }
        address = ("127.0.0.1", self.server.port)
        try:
            self.user = self.tpcbed.ControlClient(*address)
            self.operator = socket.create_connection(address, timeout=60.0)
        except OSError:
            self.server.stop()
            raise

    def close(self) -> dict:
        self.user.close()
        self.operator.close()
        return super().close()

    def named_metrics(self, run: Run, metrics: dict) -> dict:
        cycles = [row[0] * 1000.0 for row in run.ops]
        return {
            "control.cycle_p50_ms": (percentile(cycles, 50), "ms"),
            "control.cycle_p90_ms": (percentile(cycles, 90), "ms"),
            "control.status_p50_ms": (percentile(run.latency_ms, 50), "ms"),
            "control.status_p99_ms": (percentile(run.latency_ms, 99), "ms"),
            "control.generator_late_p99_ms": (percentile(run.late_ms, 99), "ms"),
            "control.generator_late_max_ms": (max(run.late_ms), "ms"),
        }

    def run(self, seeds: list[int], seconds: float, run: Run) -> None:
        stop = threading.Event()
        status = Run()
        operator = threading.Thread(
            target=self._operator, args=(stop, status), name="operator"
        )
        operator.start()
        try:
            super().run(seeds, seconds, run)
        finally:
            stop.set()
            operator.join(timeout=60.0)
        if operator.is_alive():
            raise RuntimeError("status generator did not finish")
        run.attempted += status.attempted
        run.failed += status.failed
        run.latency_ms = status.latency_ms
        run.status_rtt_ms = status.status_rtt_ms
        run.late_ms = status.late_ms

    def op(self, seed: int, run: Run) -> dict[str, bytes]:
        """Connection A: acquire, inventory, reprogram, release."""
        user = self.user
        start = clock()
        lease = user.acquire("bench-user")
        if not lease.get("ok"):
            raise RuntimeError(f"acquire refused: {lease}")
        token = lease["token"]
        try:
            inventory = user.inventory(token, "dual", self.INVENTORY_S, seed)
            flashed = user.reprogram(
                token, self.TAGS, self.firmware_text, self.behavior, seed
            )
        finally:
            released = user.release(token)
        elapsed = clock() - start
        for name, reply in (
            ("inventory", inventory),
            ("reprogram", flashed),
            ("release", released),
        ):
            if not reply.get("ok"):
                raise RuntimeError(f"{name} refused: {reply}")
        rows = flashed["rows"]
        run.ops.append(
            (
                elapsed,
                self.INVENTORY_S * 2 + sum(r["duration_s"] for r in rows),
                sum(r["messages_sent"] for r in rows),
            )
        )
        return {"rows": _rows_bytes(inventory["rows"], rows)}

    def _operator(self, stop: threading.Event, run: Run) -> None:
        """Connection B: status at a fixed rate, open loop, pipelined."""
        sock = self.operator
        request = json.dumps({"cmd": "status"}).encode() + b"\n"
        interval = 1.0 / STATUS_RATE_HZ
        pending: list[tuple[float, float]] = []
        buffer = b""
        first_due = clock()
        sent = 0
        try:
            while not stop.is_set() or pending:
                now = clock()
                due = first_due + sent * interval
                if not stop.is_set() and now >= due:
                    sock.sendall(request)
                    pending.append((due, now))
                    run.late_ms.append((now - due) * 1000.0)
                    run.attempted += 1
                    sent += 1
                    continue
                wait = 0.05 if stop.is_set() else due - now
                readable, _, _ = select.select([sock], [], [], max(0.0, wait))
                if not readable:
                    continue
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("control server closed the connection")
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    done = clock()
                    due_at, sent_at = pending.pop(0)
                    run.latency_ms.append((done - due_at) * 1000.0)
                    run.status_rtt_ms.append((done - sent_at) * 1000.0)
                    if not json.loads(line).get("ok"):
                        run.fail(f"status refused: {line!r}")
        except (OSError, ValueError) as exc:
            run.failed += len(pending)
            run.fail(f"status connection: {exc}")

    def reference(self, seed: int) -> dict[str, bytes]:
        inventory = self.controller.run_inventory_experiment(
            self.tpcbed.controller.ENVIRONMENTS["dual"], self.INVENTORY_S, seed
        )
        flashed = self.controller.run_reprogram_experiment(self.TAGS, self.image, seed)
        return {
            "rows": _rows_bytes(
                [
                    {
                        "antenna": r.antenna_id,
                        "tag_id": r.tag_id,
                        "epc": r.epc_hex,
                        "read_count": r.read_count,
                        "mean_rssi_dbm": round(r.mean_rssi_dbm, 2),
                    }
                    for r in inventory
                ],
                [
                    {
                        "tag_id": s.tag_id,
                        "antennas": list(s.antennas),
                        "messages_sent": s.messages_sent,
                        "messages_retried": s.messages_retried,
                        "duration_s": round(s.virtual_duration_s, 3),
                        "outcome": s.outcome,
                    }
                    for s in flashed
                ],
            )
        }

    def known_answer(self) -> bool:
        return ReprogramLocal.known_answer(self)


def _rows_bytes(inventory_rows: list[dict], reprogram_rows: list[dict]) -> bytes:
    return json.dumps(
        {"inventory": inventory_rows, "reprogram": reprogram_rows}, sort_keys=True
    ).encode()


WORKLOADS = {
    w.name: w for w in (InventorySurvey, ReprogramLocal, ReprogramRemote, ControlMix)
}
