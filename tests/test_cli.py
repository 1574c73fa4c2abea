"""CLI smoke tests driving main() in-process."""

import json
import socket

import pytest

from tpcbed.cli import _parse_tags_arg, build_parser, main
from tpcbed.config import default_config
from tpcbed.controller import ControlServer

FIRMWARE = "@4400\n01 02 03 04 05 06 07 08\nq\n"


def test_tag_list_parsing():
    assert _parse_tags_arg("0,1,5") == (0, 1, 5)
    assert _parse_tags_arg("0-3") == (0, 1, 2, 3)
    assert _parse_tags_arg("6,0-2") == (6, 0, 1, 2)
    with pytest.raises(Exception):
        _parse_tags_arg("zero")


def test_parser_rejects_bad_antenna_arg(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["inventory", "--antenna", "left-wall", "--out", "x.csv"]
        )
    assert "environment" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inventory", "reprogram"])
def test_log_is_refused_for_remote_runs(tmp_path, capsys, command):
    args = (
        ["inventory", "--antenna", "2"]
        if command == "inventory"
        else ["reprogram", "--tags", "1", "--firmware", str(tmp_path / "app.txt")]
    )
    with pytest.raises(SystemExit) as exit_info:
        main(
            args
            + ["--connect", "127.0.0.1:9", "--log", str(tmp_path / "run.jsonl"),
               "--out", str(tmp_path / "out.csv")]
        )
    assert exit_info.value.code == 2
    assert "control protocol does not carry events" in capsys.readouterr().err
    assert not (tmp_path / "run.jsonl").exists()


@pytest.mark.parametrize("duration", ["1e12", "inf", "nan", "-1"])
def test_duration_out_of_range_is_a_usage_error(tmp_path, capsys, duration):
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["inventory", "--antenna", "2", "--duration", duration,
             "--out", str(tmp_path / "out.csv")]
        )
    assert exit_info.value.code == 2
    assert "duration_s must be between 0 and 86400 s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, error",
    [
        (["inventory", "--antenna", "2+9", "--duration", "1"], "unknown antenna id 9"),
        (["reprogram", "--tags", "1,99", "--firmware", "FW"], "unknown tag id 99"),
    ],
)
def test_unknown_ids_exit_2_before_any_run(tmp_path, capsys, args, error):
    fw = tmp_path / "app.txt"
    fw.write_text(FIRMWARE)
    out, log = tmp_path / "out.csv", tmp_path / "run.jsonl"
    args = [str(fw) if a == "FW" else a for a in args]
    rc = main(args + ["--out", str(out), "--log", str(log)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""
    assert not out.exists()
    assert log.read_bytes() == b""


INVENTORY = ["inventory", "--antenna", "2", "--duration", "1"]
REPROGRAM = ["reprogram", "--tags", "1", "--firmware", "FW"]


@pytest.mark.parametrize(
    "args, files, error",
    [
        (
            INVENTORY + ["--config", "CFG"],
            {"cfg.yaml": "inventory: {q_initial: true}\n"},
            "error: bad inventory.q_initial: expected int, got True",
        ),
        (
            INVENTORY + ["--config", "CFG"],
            {"cfg.yaml": "tags: {abc: {}}\n"},
            "error: bad tags.abc: expected an integer id",
        ),
        (
            INVENTORY + ["--config", "CFG"],
            {"cfg.yaml": "inventory: [1\n"},
            "error: CFG: bad YAML at line 2: expected ',' or ']', but got '<stream end>'",
        ),
        (
            REPROGRAM,
            {"app.txt": "@4400\nZZ\nq\n"},
            "error: line 2: bad byte token 'ZZ'",
        ),
        (
            REPROGRAM,
            {"app.txt": FIRMWARE, "app.txt.behavior.json": '{"obeys_goto_bios": "false"}'},
            "error: bad obeys_goto_bios in FW.behavior.json: expected bool, got 'false'",
        ),
        (
            REPROGRAM + ["--connect", "127.0.0.1:9"],
            {"app.txt": FIRMWARE, "app.txt.behavior.json": "[true]"},
            "error: bad FW.behavior.json: expected a JSON object",
        ),
        (
            INVENTORY + ["--config", "CFG"],
            {},
            "error: [Errno 2] No such file or directory: 'CFG'",
        ),
        (
            REPROGRAM,
            {},
            "error: [Errno 2] No such file or directory: 'FW'",
        ),
        (
            INVENTORY + ["--config", "CFG"],
            {"cfg.yaml": b"\xff\xfe\x00"},
            "error: CFG: not UTF-8 text at line 1: invalid start byte",
        ),
        (
            REPROGRAM,
            {"app.txt": b"\xff\xfe\x00"},
            "error: line 1: FW: not UTF-8 text: invalid start byte",
        ),
        (
            REPROGRAM + ["--connect", "127.0.0.1:9"],
            {"app.txt": b"@4400\n01 02\n\xff\xfe\x00"},
            "error: line 3: FW: not UTF-8 text: invalid start byte",
        ),
    ],
    ids=[
        "config-value-type",
        "config-id-key",
        "config-yaml-syntax",
        "ti-txt",
        "sidecar-flag",
        "sidecar-root-remote",
        "config-missing",
        "firmware-missing",
        "config-not-utf8",
        "firmware-not-utf8",
        "firmware-not-utf8-remote",
    ],
)
def test_refused_inputs_exit_2_with_one_line(tmp_path, capsys, args, files, error):
    for name, content in files.items():
        raw = content if isinstance(content, bytes) else content.encode()
        (tmp_path / name).write_bytes(raw)
    names = {"CFG": str(tmp_path / "cfg.yaml"), "FW": str(tmp_path / "app.txt")}
    out, log = tmp_path / "out.csv", tmp_path / "run.jsonl"
    log_args = [] if "--connect" in args else ["--log", str(log)]
    rc = main([names.get(a, a) for a in args] + ["--out", str(out)] + log_args)
    assert rc == 2
    captured = capsys.readouterr()
    for placeholder, path in names.items():
        error = error.replace(placeholder, path)
    assert captured.err == error + "\n" and captured.out == ""
    assert not out.exists()
    assert not log.exists()


@pytest.mark.parametrize("args", [INVENTORY, REPROGRAM])
def test_out_in_a_missing_directory_is_refused_before_the_run(tmp_path, capsys, args):
    fw = tmp_path / "app.txt"
    fw.write_text(FIRMWARE)
    out, log = tmp_path / "nodir" / "out.csv", tmp_path / "run.jsonl"
    args = [str(fw) if a == "FW" else a for a in args]
    rc = main(args + ["--out", str(out), "--log", str(log)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out directory does not exist: {out.parent}\n"
    assert captured.out == ""
    assert not log.exists()


@pytest.mark.parametrize("args", [["status"], INVENTORY, REPROGRAM])
def test_connect_to_a_closed_port_names_the_endpoint(tmp_path, capsys, args):
    fw = tmp_path / "app.txt"
    fw.write_text(FIRMWARE)
    with socket.socket() as sock:  # a port that was bound and is now closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    args = [str(fw) if a == "FW" else a for a in args]
    args += ["--connect", f"127.0.0.1:{port}"]
    if args[0] != "status":
        args += ["--out", str(tmp_path / "out.csv")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot connect to 127.0.0.1:{port}: Connection refused\n"
    )
    assert captured.out == ""


def test_inventory_command(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    log = tmp_path / "inv.jsonl"
    rc = main(
        [
            "inventory",
            "--antenna",
            "multi-distance",
            "--duration",
            "4",
            "--seed",
            "1",
            "--out",
            str(out),
            "--log",
            str(log),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert stdout.startswith("antenna,tag_id,epc,read_count,mean_rssi_dbm\n")
    events = [json.loads(l) for l in log.read_text().splitlines()]
    assert events[0]["event"] == "experiment"
    assert events[-1] == {"event": "experiment-end", "rows": stdout.count("\n") - 1}


def test_inventory_is_reproducible(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            ["inventory", "--antenna", "2", "--duration", "4", "--seed", "7",
             "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reprogram_command(tmp_path, capsys):
    fw = tmp_path / "app.txt"
    fw.write_text(FIRMWARE)
    out = tmp_path / "rep.csv"
    rc = main(
        ["reprogram", "--tags", "1", "--firmware", str(fw), "--out", str(out)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tag_id,antennas,messages_sent,messages_retried,duration_s,outcome"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "2" and fields[-1] == "success"


def test_remote_commands_via_control_server(tmp_path, capsys):
    fw = tmp_path / "app.txt"
    fw.write_text(FIRMWARE)
    with ControlServer(default_config(), port=0) as server:
        endpoint = f"{server.host}:{server.port}"

        rc = main(["status", "--connect", endpoint])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["busy"] is False

        out = tmp_path / "remote-inv.csv"
        rc = main(
            ["inventory", "--antenna", "2", "--duration", "3", "--seed", "1",
             "--connect", endpoint, "--user", "ci", "--out", str(out)]
        )
        assert rc == 0
        remote_csv = out.read_text()
        capsys.readouterr()

        # the lease must have been released on the way out
        rc = main(["status", "--connect", endpoint])
        assert json.loads(capsys.readouterr().out)["busy"] is False

        rep_out = tmp_path / "remote-rep.csv"
        rc = main(
            ["reprogram", "--tags", "1", "--firmware", str(fw),
             "--connect", endpoint, "--out", str(rep_out)]
        )
        assert rc == 0
        assert "success" in rep_out.read_text()

    # remote and local agree for the same configuration and seed
    local_out = tmp_path / "local-inv.csv"
    main(
        ["inventory", "--antenna", "2", "--duration", "3", "--seed", "1",
         "--out", str(local_out)]
    )
    capsys.readouterr()
    local_lines = local_out.read_text().splitlines()
    remote_lines = remote_csv.splitlines()
    assert len(local_lines) == len(remote_lines)
    for local_row, remote_row in zip(local_lines[1:], remote_lines[1:]):
        # remote RSSI is rounded to 2 decimals on the wire; the CSV
        # renders 2 decimals anyway, so rows match exactly
        assert local_row == remote_row
