"""Server side of the networked workloads, run as its own process.

The load generator and the server must not share one interpreter lock, so
each networked workload starts this file as a child process:

    python3 perfbench/servers.py reader|control CONFIG [TRACE_FILE]

It builds the server through its public class, listens on 127.0.0.1
port 0, and prints the port.  Then it reads one JSON command per line on
standard input:

* ``["world", seed]`` -- reader server only: serve a fresh World built
  from ``seed`` (every remote op gets the world its seed describes);
  answers ``"ok"``;
* ``["stop"]`` -- close the server and answer with peak RSS and, when
  ``TRACE_FILE`` was given, the span summary; the span rows go to
  ``TRACE_FILE``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(kind: str, config_path: str, trace_path: str | None) -> None:
    tracer = restore = None
    worlds: list = []
    if trace_path is not None:
        from layers import instrument
        from spans import Tracer

        tracer = Tracer()
        restore = instrument(tracer, worlds)

    from tpcbed import ControlServer, Reader, ReaderServer, World, load_config

    config = load_config(config_path)
    if kind == "reader":
        server = ReaderServer(Reader(World(config, 0)), "127.0.0.1", 0)
    elif kind == "control":
        server = ControlServer(config, "127.0.0.1", 0)
    else:
        raise ValueError(f"unknown server kind {kind!r}")
    server.start()
    reply(server.port)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command[0] == "world":
                server.reader = Reader(World(config, command[1]))
                reply("ok")
            elif command[0] == "stop":
                break
    finally:
        server.close()
    report = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        restore()
        from layers import summarize

        report["summary"] = summarize(tracer, worlds)
        tracer.write(trace_path, process=f"{kind}-server")
    reply(report)


def reply(value) -> None:
    sys.stdout.write(json.dumps(value) + "\n")
    sys.stdout.flush()


class ServerProcess:
    """The parent's handle on one server child process."""

    def __init__(self, kind: str, config_path: str, trace_path: str | None):
        command = [sys.executable, str(Path(__file__)), kind, config_path]
        if trace_path is not None:
            command.append(trace_path)
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._read()
        except Exception:
            self.stop()
            raise

    def _read(self):
        line = self._process.stdout.readline()
        if not line:
            raise ConnectionError("server process ended without answering")
        return json.loads(line)

    def _send(self, command: list) -> None:
        self._process.stdin.write(json.dumps(command) + "\n")
        self._process.stdin.flush()

    def use_world(self, seed: int) -> None:
        self._send(["world", seed])
        self._read()

    def stop(self) -> dict:
        """Ask the server to stop, wait for the process; return its report."""
        report: dict = {}
        try:
            self._send(["stop"])
            report = self._read()
        except (OSError, ValueError):
            pass
        finally:
            self._process.stdin.close()
            try:
                self._process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._process.stdout.close()
        return report


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src")]
    serve(sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
