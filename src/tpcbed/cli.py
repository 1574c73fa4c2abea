"""Command-line entry points.

Subcommands mirror the two experiment kinds plus the two network
daemons.  Everything an experiment writes (CSV tables, event logs)
is a pure function of --config and --seed, so rerunning a command
reproduces its outputs exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .config import ConfigError, check_port, load_config
from .controller import (
    ControlClient,
    ControlServer,
    ExperimentLog,
    InventoryRow,
    LogWriteError,
    TestbedController,
    check_duration_s,
    check_id_list,
    format_inventory_csv,
    format_reprogram_csv,
    parse_antennas,
    write_inventory_csv,
    write_reprogram_csv,
)
from .reader import Reader, ReaderServer
from .rfchannel import GeometryError
from .wisent import TiTxtError, TransferStats, load_firmware
from .world import World


def _parse_antenna_arg(text: str) -> tuple[int, ...]:
    try:
        return parse_antennas(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_duration_arg(text: str) -> float:
    try:
        duration_s = float(text)
        check_duration_s(duration_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return duration_s


def _parse_tags_arg(text: str) -> tuple[int, ...]:
    """Tag lists: '0,1,5' plus ranges '0-5', mixed freely, none twice."""
    ids: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = map(int, part.split("-", 1))
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"descending tag range {part!r}")
                ids.extend(range(lo, hi + 1))
            else:
                ids.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tag list {text!r}") from None
    try:
        check_id_list(tuple(ids), "tags")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tuple(ids)


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpcbed",
        description="Deterministic desk-scale testbed for battery-free RFID tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, default=None, help="YAML overrides for the testbed"
    )

    # the options of a run: an inventory or a reprogram
    run = argparse.ArgumentParser(add_help=False, parents=[common])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=Path, required=True, help="CSV output path")
    run.add_argument("--log", type=Path, default=None, help="JSON-lines event log")
    run.add_argument(
        "--connect",
        type=_parse_endpoint,
        default=None,
        metavar="HOST:PORT",
        help="run through a control server instead of in-process",
    )
    run.add_argument("--user", default="cli", help="lease holder name for --connect")

    inv = sub.add_parser(
        "inventory", parents=[run], help="survey tags and write a read table"
    )
    inv.add_argument(
        "--antenna",
        type=_parse_antenna_arg,
        required=True,
        metavar="IDS|ENV",
        help="antenna ids like 2 or 2+3, or an environment name",
    )
    inv.add_argument(
        "--duration", type=_parse_duration_arg, default=30.0, metavar="SECONDS"
    )

    rep = sub.add_parser(
        "reprogram", parents=[run], help="send a firmware image to tags"
    )
    rep.add_argument(
        "--tags", type=_parse_tags_arg, required=True, metavar="LIST",
        help="tag ids, e.g. 0,1,2 or 0-5",
    )
    rep.add_argument("--firmware", type=Path, required=True, help="TI-TXT image")

    serve = sub.add_parser(
        "serve", parents=[common], help="run the multi-user control server"
    )
    serve.add_argument("--host", default=None)
    serve.add_argument("--port", type=int, default=None)

    rserve = sub.add_parser(
        "reader-serve", parents=[common], help="expose the reader wire protocol"
    )
    rserve.add_argument("--host", default=None)
    rserve.add_argument("--port", type=int, default=None)
    rserve.add_argument("--seed", type=int, default=0)

    status = sub.add_parser("status", help="query a control server")
    status.add_argument(
        "--connect", type=_parse_endpoint, required=True, metavar="HOST:PORT"
    )

    return parser


def _open_log(path: Path | None):
    """The event log at ``path`` as a context, or one that yields None."""
    return contextlib.nullcontext() if path is None else ExperimentLog(path)


def _connect(args) -> ControlClient:
    """A client of the control server at ``--connect``; an endpoint that
    cannot be reached raises an OSError naming it."""
    host, port = args.connect
    try:
        return ControlClient(host, port)
    except OSError as exc:
        reason = exc.strerror or exc
        raise OSError(f"cannot connect to {host}:{port}: {reason}") from None


def _leased_call(args, request, *request_args) -> dict | None:
    """``request(client, token, *request_args)`` on the control server at
    ``--connect``, under a lease taken for ``--user`` and released after.
    Prints the error and returns None when the lease or the call fails."""
    with _connect(args) as client:
        reply = client.acquire(args.user)
        if reply.get("ok"):
            token = reply["token"]
            try:
                reply = request(client, token, *request_args)
            finally:
                client.release(token)
    if not reply.get("ok"):
        print(f"error: {reply.get('detail', reply)}", file=sys.stderr)
        return None
    return reply


def _cmd_inventory(args) -> int:
    if args.connect is not None:
        reply = _leased_call(
            args,
            ControlClient.inventory,
            "+".join(str(a) for a in args.antenna),
            args.duration,
            args.seed,
        )
        if reply is None:
            return 1
        rows = [
            InventoryRow(
                antenna_id=r["antenna"],
                tag_id=r["tag_id"],
                epc_hex=r["epc"],
                read_count=r["read_count"],
                mean_rssi_dbm=r["mean_rssi_dbm"],
            )
            for r in reply["rows"]
        ]
    else:
        config = load_config(args.config)
        controller = TestbedController(config)
        with _open_log(args.log) as log:
            rows = controller.run_inventory_experiment(
                args.antenna, args.duration, args.seed, log=log
            )
    write_inventory_csv(rows, args.out)
    print(format_inventory_csv(rows), end="")
    return 0


def _cmd_reprogram(args) -> int:
    if args.connect is not None:
        image = load_firmware(args.firmware)  # refuses text that is not UTF-8
        firmware_text = args.firmware.read_text(encoding="utf-8")
        behavior = {
            "obeys_goto_bios": image.obeys_goto_bios,
            "responds_to_inventory": image.responds_to_inventory,
        }
        reply = _leased_call(
            args, ControlClient.reprogram, args.tags, firmware_text, behavior, args.seed
        )
        if reply is None:
            return 1
        stats = [
            TransferStats(
                tag_id=r["tag_id"],
                antennas=tuple(r["antennas"]),
                messages_sent=r["messages_sent"],
                messages_retried=r["messages_retried"],
                virtual_duration_s=r["duration_s"],
                outcome=r["outcome"],
            )
            for r in reply["rows"]
        ]
    else:
        config = load_config(args.config)
        controller = TestbedController(config)
        image = load_firmware(args.firmware)
        with _open_log(args.log) as log:
            stats = controller.run_reprogram_experiment(
                args.tags, image, args.seed, log=log
            )
    write_reprogram_csv(stats, args.out)
    print(format_reprogram_csv(stats), end="")
    return 0


def _serve_forever(server, what: str) -> int:
    """Start ``server``, say where it listens, and serve until interrupted."""
    server.start()
    print(f"{what} on {server.host}:{server.port}")
    try:
        server._thread.join()
    except KeyboardInterrupt:
        server.close()
    return 0


def _cmd_serve(args) -> int:
    config = load_config(args.config)
    server = ControlServer(config, host=args.host, port=args.port)
    return _serve_forever(server, "control server")


def _cmd_reader_serve(args) -> int:
    config = load_config(args.config)
    host = args.host if args.host is not None else config.controller.host
    port = args.port if args.port is not None else config.controller.reader_port
    server = ReaderServer(Reader(World(config, args.seed)), host=host, port=port)
    return _serve_forever(server, "reader")


def _cmd_status(args) -> int:
    with _connect(args) as client:
        print(json.dumps(client.status(), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log", None) is not None and args.connect is not None:
        parser.error(
            "--log cannot be combined with --connect: the control protocol "
            "does not carry events, so the log would stay empty"
        )
    handlers = {
        "inventory": _cmd_inventory,
        "reprogram": _cmd_reprogram,
        "serve": _cmd_serve,
        "reader-serve": _cmd_reader_serve,
        "status": _cmd_status,
    }
    out = getattr(args, "out", None)
    # Checked before the run, which would otherwise write its log and only
    # then fail to write the table.
    if out is not None and not out.parent.is_dir():
        print(f"error: --out directory does not exist: {out.parent}", file=sys.stderr)
        return 2
    if out is not None and out.is_dir():
        print(f"error: --out is a directory: {out}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "port", None) is not None:
            check_port("--port", args.port)
        if getattr(args, "connect", None) is not None:
            check_port("--connect port", args.connect[1])
        return handlers[args.command](args)
    except (ConfigError, TiTxtError, GeometryError, LogWriteError, OSError) as exc:
        # A file the loaders refuse or cannot read, a log that cannot be
        # written, or an antenna or tag id the bench lacks.  Inputs load
        # before the log opens, so a refused file leaves no log behind.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
