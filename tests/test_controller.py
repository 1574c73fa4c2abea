"""Lease management, experiment orchestration, result files, control protocol."""

import json
import math
import sys
import threading

import pytest

from tpcbed.config import TagProfile, config_from_mapping, default_config
from tpcbed.controller import (
    ControlClient,
    ControlServer,
    ExperimentLog,
    InvalidToken,
    InventoryRow,
    LogWriteError,
    MAX_DURATION_S,
    MAX_LINE_BYTES,
    SessionManager,
    TestbedBusy as BusyError,
    TestbedController as Controller,
    format_inventory_csv,
    format_reprogram_csv,
    parse_antennas,
    transfer_row,
    write_inventory_csv,
)
from tpcbed.rfchannel import GeometryError
from tpcbed.wisent import FirmwareImage, FirmwareSegment, TransferStats, parse_ti_txt

SMALL_FIRMWARE = "@4400\n01 02 03 04 05 06 07 08\nq\n"
OTHER_FIRMWARE = "@4400\n01 02 03 04\nq\n"
BAD_FIRMWARE = "@4400\nzz 01\nq\n"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionManager:
    def test_acquire_then_busy(self):
        mgr = SessionManager(lease_timeout_s=300.0, clock=FakeClock())
        session = mgr.acquire("alice")
        assert len(session.token) == 32  # 16 random bytes, hex
        with pytest.raises(BusyError) as err:
            mgr.acquire("bob")
        assert err.value.holder == "alice"
        assert "alice" in str(err.value)
        assert err.value.expires_in_s == pytest.approx(300.0)

    def test_release_frees_the_lease(self):
        mgr = SessionManager(clock=FakeClock())
        session = mgr.acquire("alice")
        mgr.release(session.token)
        assert mgr.holder() is None
        mgr.acquire("bob")

    def test_release_needs_the_right_token(self):
        mgr = SessionManager(clock=FakeClock())
        mgr.acquire("alice")
        with pytest.raises(InvalidToken):
            mgr.release("not-the-token")

    def test_lease_expires_on_its_own(self):
        clock = FakeClock()
        mgr = SessionManager(lease_timeout_s=300.0, clock=clock)
        stale = mgr.acquire("alice")
        clock.now = 300.0
        second = mgr.acquire("bob")  # no release needed
        assert second.user == "bob"
        with pytest.raises(InvalidToken):
            mgr.validate(stale.token)

    def test_validate_renews_the_idle_timer(self):
        clock = FakeClock()
        mgr = SessionManager(lease_timeout_s=300.0, clock=clock)
        session = mgr.acquire("alice")
        clock.now = 200.0
        mgr.validate(session.token)
        clock.now = 450.0  # past the original expiry, inside the renewed one
        renewed = mgr.validate(session.token)
        assert renewed.expires_at_s == 750.0
        clock.now = 751.0
        with pytest.raises(InvalidToken):
            mgr.validate(session.token)

    def test_tokens_are_unpredictable(self):
        clock = FakeClock()
        mgr = SessionManager(clock=clock)
        seen = set()
        for _ in range(32):
            session = mgr.acquire("u")
            seen.add(session.token)
            mgr.release(session.token)
        assert len(seen) == 32

    def test_storm_yields_exactly_one_winner(self):
        mgr = SessionManager(clock=FakeClock())
        n = 100
        barrier = threading.Barrier(n)
        wins, losses = [], []

        def contend(i):
            barrier.wait()
            try:
                wins.append(mgr.acquire(f"user-{i}"))
            except BusyError:
                losses.append(i)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert len(losses) == n - 1

        # after a release, the next contention round again has one winner
        mgr.release(wins[0].token)
        wins.clear()
        losses.clear()
        barrier.reset()
        threads = [threading.Thread(target=contend, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestExperimentLog:
    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            log.write({"zebra": 1, "alpha": 2})
            log.write({"event": "x"})
        lines = path.read_text().splitlines()
        assert lines[0] == '{"alpha": 2, "zebra": 1}'
        assert json.loads(lines[1]) == {"event": "x"}

    def test_rendered_lines_are_written_as_given(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            log.write('{"event": "round", "slots": 16}')
            log.write({"event": "x"})
        assert path.read_text() == '{"event": "round", "slots": 16}\n{"event": "x"}\n'

    def test_a_list_of_lines_is_written_as_the_lines_one_by_one(self, tmp_path):
        lines = ['{"event": "round", "slots": 16}', '{"detail": "Ω"}', "{}"]
        with ExperimentLog(tmp_path / "one.jsonl") as log:
            for line in lines:
                log.write(line)
        with ExperimentLog(tmp_path / "list.jsonl") as log:
            log.write([])
            log.write(lines)
            log.write([])
        assert (tmp_path / "list.jsonl").read_bytes() == (
            tmp_path / "one.jsonl"
        ).read_bytes()

    def test_an_empty_list_writes_nothing(self, tmp_path):
        with ExperimentLog(tmp_path / "run.jsonl") as log:
            log._handle.close()  # a write to the OS would raise
            log.write([])

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(LogWriteError):
            ExperimentLog(tmp_path)  # a directory, not a file

    def test_write_failure_raises(self, tmp_path):
        log = ExperimentLog(tmp_path / "run.jsonl")
        log._handle.close()
        with pytest.raises(LogWriteError):
            log.write({"event": "x"})

    def test_unserializable_event_raises(self, tmp_path):
        with ExperimentLog(tmp_path / "run.jsonl") as log:
            with pytest.raises(LogWriteError):
                log.write({"bad": {1, 2}})

    def test_a_line_reaches_the_file_before_the_log_closes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            log.write('{"event": "round"}')
            with open(path, "rb") as reader:
                assert reader.read() == b'{"event": "round"}\n'

    def test_two_logs_on_one_path_append(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as first:
            first.write({"run": 1})
        with ExperimentLog(path) as second:
            second.write({"run": 2})
        assert path.read_text() == '{"run": 1}\n{"run": 2}\n'

    def test_a_non_ascii_line_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            log.write('{"detail": "Ω ü"}')
        assert path.read_bytes() == '{"detail": "Ω ü"}\n'.encode("utf-8")

    def test_short_writes_still_end_with_the_whole_line(self, tmp_path):
        path = tmp_path / "run.jsonl"

        class Trickle:
            """A handle that takes at most three bytes per call."""

            def __init__(self, raw):
                self.raw = raw
                self.calls = 0

            def write(self, data):
                self.calls += 1
                return self.raw.write(bytes(data[:3]))

            def close(self):
                self.raw.close()

        with ExperimentLog(path) as log:
            log._handle = trickle = Trickle(log._handle)
            log.write('{"event": "round", "slots": 16}')
            log.write({"event": "x"})
        assert path.read_text() == '{"event": "round", "slots": 16}\n{"event": "x"}\n'
        assert trickle.calls == 11 + 5  # ceil(32 / 3) + ceil(15 / 3) bytes


class TestEnvironments:
    def test_known_names(self):
        assert parse_antennas("single-tag") == (1,)
        assert parse_antennas("multi-distance") == (2,)
        assert parse_antennas("multi-angle") == (3,)
        assert parse_antennas("dual") == (2, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_antennas("anechoic-chamber")

    def test_a_repeated_id_is_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_antennas("2+3+2")


class TestInventoryExperiment:
    def test_rows_sorted_and_complete(self):
        controller = Controller(default_config())
        rows = controller.run_inventory_experiment((3, 2), 5.0, seed=4)
        keys = [(r.antenna_id, r.tag_id) for r in rows]
        assert keys == sorted(keys)
        assert {r.antenna_id for r in rows} == {2, 3}
        for row in rows:
            assert row.read_count > 0
            assert len(row.epc_hex) == 24

    def test_same_inputs_same_rows_and_log(self, tmp_path):
        controller = Controller(default_config())

        def run(name):
            with ExperimentLog(tmp_path / name) as log:
                rows = controller.run_inventory_experiment((2,), 6.0, seed=9, log=log)
            return rows, (tmp_path / name).read_bytes()

        rows_a, log_a = run("a.jsonl")
        rows_b, log_b = run("b.jsonl")
        assert rows_a == rows_b
        assert log_a == log_b
        assert b'"event": "experiment"' in log_a
        assert b'"event": "experiment-end"' in log_a

    @pytest.mark.parametrize(
        "duration_s", [math.inf, -math.inf, math.nan, -1.0, MAX_DURATION_S + 0.5, 1e12]
    )
    def test_duration_out_of_range_rejected(self, duration_s, tmp_path):
        controller = Controller(default_config())
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            with pytest.raises(ValueError, match="duration_s"):
                controller.run_inventory_experiment((2,), duration_s, log=log)
        assert path.read_bytes() == b""  # refused before anything ran

    @pytest.mark.parametrize("antenna_ids", [(9,), (2, 9)])
    def test_unknown_antenna_refused_before_anything_runs(self, antenna_ids, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            with pytest.raises(GeometryError, match="unknown antenna id 9"):
                Controller(default_config()).run_inventory_experiment(
                    antenna_ids, 5.0, log=log
                )
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("antenna_ids", [(), (2, 2), (3, 2, 3)])
    def test_empty_or_repeated_antennas_refused_before_anything_runs(
        self, antenna_ids, tmp_path, monkeypatch
    ):
        built = []
        monkeypatch.setattr("tpcbed.controller.World", lambda *a: built.append(a))
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            with pytest.raises(ValueError, match="antennas must be distinct"):
                Controller(default_config()).run_inventory_experiment(
                    antenna_ids, 2.0, log=log
                )
        assert path.read_bytes() == b"" and built == []

    def test_zero_duration_runs_no_rounds(self):
        rows = Controller(default_config()).run_inventory_experiment((2,), 0.0)
        assert rows == []

    def test_steep_delivery_slope_runs(self):
        # A 0.01 dB slope puts exp(-x) past the float range on every link
        # well under the midpoint; such a link carries nothing.
        config = config_from_mapping({"link": {"delivery_slope_db": 0.01}})
        rows = Controller(config).run_inventory_experiment((1, 2, 3), 10.0, seed=3)
        assert [(r.antenna_id, r.tag_id) for r in rows] == [(1, 6), (2, 1), (2, 2)]

    def test_different_seed_changes_counts(self):
        controller = Controller(default_config())
        a = controller.run_inventory_experiment((2,), 6.0, seed=1)
        b = controller.run_inventory_experiment((2,), 6.0, seed=2)
        assert [(r.tag_id, r.read_count) for r in a] != [
            (r.tag_id, r.read_count) for r in b
        ]


class TestReprogramExperiment:
    def test_small_transfer_succeeds(self):
        controller = Controller(default_config())
        image = parse_ti_txt(SMALL_FIRMWARE)
        stats = controller.run_reprogram_experiment((1,), image, seed=0)
        assert len(stats) == 1
        assert stats[0].outcome == "success"
        assert stats[0].antennas == (2,)
        assert stats[0].messages_sent > 0
        assert stats[0].virtual_duration_s == pytest.approx(
            stats[0].messages_sent * 0.075
        )

    def test_flash_content_not_required_for_determinism(self):
        controller = Controller(default_config())
        image = parse_ti_txt(SMALL_FIRMWARE)
        a = controller.run_reprogram_experiment((1, 2), image, seed=5)
        b = controller.run_reprogram_experiment((1, 2), image, seed=5)
        assert a == b

    def test_goto_bios_deaf_app_aborts(self):
        config = default_config()
        config.tag_profiles[1] = TagProfile(obeys_goto_bios=False)
        controller = Controller(config)
        stats = controller.run_reprogram_experiment(
            (1,), parse_ti_txt(SMALL_FIRMWARE), seed=0
        )
        assert stats[0].outcome == "abort-timeout"
        # the whole abort window went out as goto-bios frames
        assert stats[0].virtual_duration_s == pytest.approx(
            config.transfer.abort_timeout_ms / 1000.0
        )

    def test_unknown_tag_refused_before_anything_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            with pytest.raises(GeometryError, match="unknown tag id 99"):
                Controller(default_config()).run_reprogram_experiment(
                    (1, 99), parse_ti_txt(SMALL_FIRMWARE), log=log
                )
        assert path.read_bytes() == b""  # tag 1's transfer never ran

    @pytest.mark.parametrize("tag_ids", [(), (6, 6), (1, 2, 1)])
    def test_empty_or_repeated_tags_refused_before_anything_runs(
        self, tag_ids, tmp_path, monkeypatch
    ):
        built = []
        monkeypatch.setattr("tpcbed.controller.World", lambda *a: built.append(a))
        path = tmp_path / "run.jsonl"
        with ExperimentLog(path) as log:
            with pytest.raises(ValueError, match="tags must be distinct"):
                Controller(default_config()).run_reprogram_experiment(
                    tag_ids, parse_ti_txt(SMALL_FIRMWARE), log=log
                )
        assert path.read_bytes() == b"" and built == []

    def test_a_write_failure_mid_reprogram_aborts_the_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = ExperimentLog(path)
        write = log.write
        written = []

        def write_then_close(event):
            write(event)
            written.append(event)
            if len(written) == 2:  # the opening event, then one reader call
                log._handle.close()

        log.write = write_then_close
        with pytest.raises(LogWriteError):
            Controller(default_config()).run_reprogram_experiment(
                (1, 2), parse_ti_txt(SMALL_FIRMWARE), seed=0, log=log
            )
        kinds = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert kinds[0] == "experiment" and set(kinds[1:]) == {"access"}

    def test_bootloader_image_refused_without_rf(self, tmp_path):
        controller = Controller(default_config())
        image = FirmwareImage((FirmwareSegment(0xFC00, b"\x00\x01"),))
        log_path = tmp_path / "run.jsonl"
        with ExperimentLog(log_path) as log:
            stats = controller.run_reprogram_experiment((1,), image, seed=0, log=log)
        assert stats[0].outcome == "region-violation"
        assert stats[0].messages_sent == 0
        events = [json.loads(l) for l in log_path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert "access" not in kinds  # nothing ever hit the air
        transfer = next(e for e in events if e["event"] == "transfer")
        assert transfer["outcome"] == "region-violation"


class TestResultFiles:
    def test_inventory_csv_golden(self, tmp_path):
        rows = [
            InventoryRow(2, 1, "e2" + "00" * 10 + "01", 51, -30.204),
            InventoryRow(2, 2, "e2" + "00" * 10 + "02", 39, -42.0),
        ]
        want = (
            "antenna,tag_id,epc,read_count,mean_rssi_dbm\n"
            "2,1,e20000000000000000000001,51,-30.20\n"
            "2,2,e20000000000000000000002,39,-42.00\n"
        )
        assert format_inventory_csv(rows) == want
        out = tmp_path / "inv.csv"
        write_inventory_csv(rows, out)
        assert out.read_text() == want

    def test_reprogram_csv_golden(self):
        stats = [
            TransferStats(1, (2,), 1551, 523, 116.325, "success"),
            TransferStats(4, (2, 3), 980, 120, 73.5, "abort-timeout"),
        ]
        want = (
            "tag_id,antennas,messages_sent,messages_retried,duration_s,outcome\n"
            "1,2,1551,523,116.325,success\n"
            "4,2+3,980,120,73.500,abort-timeout\n"
        )
        assert format_reprogram_csv(stats) == want


class TestControlProtocol:
    @pytest.fixture()
    def server(self):
        with ControlServer(default_config(), port=0) as srv:
            yield srv

    def test_full_session_cycle(self, server):
        with ControlClient(server.host, server.port) as client:
            status = client.status()
            assert status == {
                "ok": True,
                "busy": False,
                "holder": None,
                "environments": ["dual", "multi-angle", "multi-distance", "single-tag"],
                "antennas": [1, 2, 3],
            }

            grant = client.acquire("alice")
            assert grant["ok"] and len(grant["token"]) == 32

            busy = client.status()
            assert busy["busy"] and busy["holder"] == "alice"
            assert "token" not in busy

            rows = client.inventory(grant["token"], "multi-distance", 3.0, seed=1)
            assert rows["ok"]
            assert all(r["antenna"] == 2 for r in rows["rows"])
            assert [r["tag_id"] for r in rows["rows"]] == sorted(
                r["tag_id"] for r in rows["rows"]
            )

            result = client.reprogram(grant["token"], [1], SMALL_FIRMWARE)
            assert result["ok"]
            assert result["rows"][0]["outcome"] == "success"

            assert client.release(grant["token"]) == {"ok": True}
            assert not client.status()["busy"]

    def test_second_user_sees_busy(self, server):
        with ControlClient(server.host, server.port) as alice:
            grant = alice.acquire("alice")
            with ControlClient(server.host, server.port) as bob:
                denied = bob.acquire("bob")
                assert denied == {
                    "ok": False,
                    "error": "busy",
                    "detail": denied["detail"],
                    "holder": "alice",
                    "expires_in_s": denied["expires_in_s"],
                }
                assert "alice" in denied["detail"]
                # once alice releases, bob's retry wins
                alice.release(grant["token"])
                assert bob.acquire("bob")["ok"]

    def test_experiments_need_a_valid_token(self, server):
        with ControlClient(server.host, server.port) as client:
            reply = client.inventory("deadbeef", "dual", 1.0)
            assert reply == {
                "ok": False,
                "error": "invalid-token",
                "detail": "no such lease",
            }

    def test_antenna_forms(self, server):
        # "2+3", [2, 3], and the environment name must all mean the same
        # antenna set, so with a fixed seed the rows come out identical.
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            replies = [
                client.inventory(token, antennas, 3.0, seed=3)
                for antennas in ("2+3", [2, 3], "dual")
            ]
            assert all(r["ok"] for r in replies)
            assert replies[0]["rows"]
            assert replies[1] == replies[0]
            assert replies[2] == replies[0]
            assert {r["antenna"] for r in replies[0]["rows"]} <= {2, 3}

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"cmd": "inventory", "antennas": "2+9", "duration_s": 1.0},
            {"cmd": "reprogram", "tags": [1, 99], "firmware_text": SMALL_FIRMWARE},
        ],
        ids=["antenna", "tag"],
    )
    def test_unknown_ids_refused_before_any_run(
        self, server, monkeypatch, request_fields
    ):
        built = []
        monkeypatch.setattr("tpcbed.controller.World", lambda *a: built.append(a))
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            reply = client.call({**request_fields, "token": token})
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert "unknown" in reply["detail"]
            assert built == []  # no world was built, so nothing ran
            assert client.release(token) == {"ok": True}

    @pytest.mark.parametrize("antennas", [[], [2, 2], "2+2"])
    def test_empty_or_repeated_antennas_are_bad_requests(
        self, server, monkeypatch, antennas
    ):
        built = []
        monkeypatch.setattr("tpcbed.controller.World", lambda *a: built.append(a))
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            reply = client.inventory(token, antennas, 1.0)
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert "distinct" in reply["detail"]
            assert built == []
            assert client.release(token) == {"ok": True}

    @pytest.mark.parametrize(
        "tags", [[], [6, 6], None], ids=["empty", "repeated", "absent"]
    )
    def test_empty_or_repeated_tags_are_bad_requests(self, server, monkeypatch, tags):
        built = []
        monkeypatch.setattr("tpcbed.controller.World", lambda *a: built.append(a))
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            request = {
                "cmd": "reprogram",
                "token": token,
                "firmware_text": SMALL_FIRMWARE,
            }
            if tags is not None:
                request["tags"] = tags
            assert client.call(request) == {
                "ok": False,
                "error": "bad-request",
                "detail": f"tags must be distinct, one or more: {tuple(tags or ())}",
            }
            assert built == []
            assert client.release(token) == {"ok": True}

    @pytest.mark.parametrize(
        "behavior", [None, False, 0, "", [], "x", ["obeys_goto_bios"]]
    )
    def test_a_behavior_that_is_not_an_object_is_a_bad_request(self, server, behavior):
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            reply = client.call(
                {
                    "cmd": "reprogram",
                    "token": token,
                    "tags": [1],
                    "firmware_text": SMALL_FIRMWARE,
                    "behavior": behavior,
                }
            )
            assert reply == {
                "ok": False,
                "error": "bad-request",
                "detail": f"behavior has the wrong JSON type: {behavior!r}",
            }
            assert client.release(token) == {"ok": True}

    @pytest.mark.parametrize("behavior", [{}, None], ids=["empty", "absent"])
    def test_an_empty_or_absent_behavior_means_the_default_flags(
        self, server, monkeypatch, behavior
    ):
        images = []
        run = server.controller.run_reprogram_experiment

        def recording(tag_ids, image, seed):
            images.append(image)
            return run(tag_ids, image, seed)

        monkeypatch.setattr(server.controller, "run_reprogram_experiment", recording)
        request = {"cmd": "reprogram", "tags": [1], "firmware_text": SMALL_FIRMWARE}
        if behavior is not None:
            request["behavior"] = behavior
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            reply = client.call({**request, "token": token})
        assert reply["ok"] and reply["rows"][0]["outcome"] == "success"
        assert images == [parse_ti_txt(SMALL_FIRMWARE)]  # flags compare too

    def test_bad_requests(self, server):
        with ControlClient(server.host, server.port) as client:
            assert client.call({"cmd": "self-destruct"}) == {
                "ok": False,
                "error": "unknown-command",
                "detail": "self-destruct",
            }
            token = client.acquire("alice")["token"]
            reply = client.inventory(token, "mars-orbit", 1.0)
            assert reply["error"] == "bad-request"

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"cmd": "inventory", "antennas": [9], "duration_s": 1.0},
            {"cmd": "inventory", "antennas": [2], "duration_s": 1.0, "seed": None},
            {"cmd": "inventory", "antennas": [2], "duration_s": 1.0, "seed": 1e400},
            {"cmd": "inventory", "antennas": [2], "duration_s": 1.0, "seed": 1.9},
            {"cmd": "inventory", "antennas": [2], "duration_s": 1.0, "seed": True},
            {"cmd": "inventory", "antennas": [2], "duration_s": 1.0, "seed": "7"},
            {
                "cmd": "reprogram",
                "tags": [1],
                "firmware_text": SMALL_FIRMWARE,
                "seed": 2.0,
            },
            {"cmd": "inventory", "antennas": [2], "duration_s": 1e12},
            {"cmd": "inventory", "antennas": [2], "duration_s": math.inf},
            {"cmd": "inventory", "antennas": [2], "duration_s": math.nan},
            {"cmd": "inventory", "antennas": [2], "duration_s": -1.0},
            {"cmd": "inventory", "antennas": [2], "duration_s": 10**400},
            {"cmd": "reprogram", "tags": 5, "firmware_text": SMALL_FIRMWARE},
            {
                "cmd": "reprogram",
                "tags": [1],
                "firmware_text": SMALL_FIRMWARE,
                "behavior": ["obeys_goto_bios"],
            },
            # No field is coerced: int(), float() and bool() would have
            # taken each of these for a valid value.
            {"cmd": "reprogram", "tags": [1.9], "firmware_text": SMALL_FIRMWARE},
            {"cmd": "reprogram", "tags": [True], "firmware_text": SMALL_FIRMWARE},
            {"cmd": "reprogram", "tags": ["1"], "firmware_text": SMALL_FIRMWARE},
            {"cmd": "reprogram", "tags": "12", "firmware_text": SMALL_FIRMWARE},
            {"cmd": "inventory", "antennas": [True, 2], "duration_s": 1.0},
            {"cmd": "inventory", "antennas": [2.0], "duration_s": 1.0},
            {"cmd": "inventory", "antennas": ["2"], "duration_s": 1.0},
            {"cmd": "inventory", "antennas": [2], "duration_s": True},
            {"cmd": "inventory", "antennas": [2], "duration_s": "1"},
            {
                "cmd": "reprogram",
                "tags": [1],
                "firmware_text": SMALL_FIRMWARE,
                "behavior": {"obeys_goto_bios": "false"},
            },
            {
                "cmd": "reprogram",
                "tags": [1],
                "firmware_text": SMALL_FIRMWARE,
                "behavior": {"responds_to_inventory": 1},
            },
        ],
        ids=[
            "unknown-antenna",
            "null-seed",
            "infinite-seed",
            "fractional-seed",
            "boolean-seed",
            "string-seed",
            "reprogram-float-seed",
            "huge-duration",
            "infinite-duration",
            "nan-duration",
            "negative-duration",
            "overflowing-duration",
            "int-tags",
            "list-behavior",
            "fractional-tag",
            "boolean-tag",
            "string-tag",
            "string-tags",
            "boolean-antenna",
            "float-antenna",
            "string-antenna",
            "boolean-duration",
            "string-duration",
            "string-behavior-flag",
            "integer-behavior-flag",
        ],
    )
    def test_rejected_request_keeps_connection_and_lease(
        self, server, request_fields
    ):
        # Each of these used to kill the connection without a reply and
        # strand the caller's lease until it timed out, run a seed other
        # than the one asked for, or hold the server thread and the lease
        # for hours or for good.
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            reply = client.call({**request_fields, "token": token})
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert client.release(token) == {"ok": True}

    @pytest.mark.parametrize(
        "value", [5, {"a": 1}, None, True], ids=["integer", "object", "null", "boolean"]
    )
    @pytest.mark.parametrize(
        "cmd,field",
        [
            ("acquire", "user"),
            ("release", "token"),
            ("inventory", "token"),
            ("reprogram", "token"),
            ("reprogram", "firmware_text"),
        ],
    )
    def test_string_fields_are_not_coerced(self, server, cmd, field, value):
        # str() used to grant the lease to 5 as "5" and to {"a": 1} under
        # its Python repr, and to turn a null token into "None".
        with ControlClient(server.host, server.port) as client:
            if cmd == "acquire":
                reply = client.call({"cmd": "acquire", field: value})
                assert reply["ok"] is False and reply["error"] == "bad-request"
                assert client.status()["busy"] is False
                return
            token = client.acquire("alice")["token"]
            reply = client.call(
                {
                    "cmd": cmd,
                    "token": token,
                    "antennas": [2],
                    "duration_s": 1.0,
                    "tags": [1],
                    "firmware_text": SMALL_FIRMWARE,
                    field: value,
                }
            )
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert client.status()["holder"] == "alice"
            assert client.release(token) == {"ok": True}

    def test_string_fields_keep_their_defaults(self, server):
        with ControlClient(server.host, server.port) as client:
            token = client.call({"cmd": "acquire"})["token"]
            assert client.status()["holder"] == "anonymous"
            reply = client.call({"cmd": "reprogram", "token": token, "tags": [1]})
            assert reply["ok"] is False and reply["error"] == "bad-request"
            assert client.call({"cmd": "release"})["error"] == "invalid-token"
            assert client.release(token) == {"ok": True}

    def test_whole_number_fields_keep_working(self, server):
        # JSON integers are numbers too, and the string antenna forms are
        # parsed, not coerced.
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            as_int = client.inventory(token, "2+3", 3, seed=4)
            as_float = client.inventory(token, [2, 3], 3.0, seed=4)
            assert as_int["ok"] and as_int == as_float
            reply = client.reprogram(
                token, [1], SMALL_FIRMWARE, {"obeys_goto_bios": False}
            )
            assert reply["rows"][0]["outcome"] == "success"

    def test_request_line_at_the_cap_is_served(self, server):
        import socket as socketlib

        request = json.dumps({"cmd": "status"}).encode()
        line = request + b" " * (MAX_LINE_BYTES - len(request) - 1) + b"\n"
        assert len(line) == MAX_LINE_BYTES
        address = (server.host, server.port)
        with socketlib.create_connection(address, timeout=10.0) as raw:
            with raw.makefile("rwb") as stream:
                stream.write(line)
                stream.flush()
                assert json.loads(stream.readline())["ok"] is True
                stream.write(request + b"\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"] is True

    def test_request_line_over_the_cap_is_refused_then_closed(self, server):
        import socket as socketlib

        request = json.dumps({"cmd": "status"}).encode()
        line = request + b" " * (MAX_LINE_BYTES - len(request)) + b"\n"
        assert len(line) == MAX_LINE_BYTES + 1
        address = (server.host, server.port)
        with socketlib.create_connection(address, timeout=10.0) as raw:
            with raw.makefile("rwb") as stream:
                stream.write(line)
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False and reply["error"] == "bad-request"
                assert stream.readline() == b""  # closed, nothing more
        # the server itself carries on
        with ControlClient(server.host, server.port) as client:
            assert client.status()["ok"]

    @pytest.mark.parametrize(
        "size, runs", [(MAX_LINE_BYTES + 1, 20), (3 << 20, 1)]
    )
    def test_over_the_cap_reply_arrives_before_a_clean_close(
        self, server, size, runs
    ):
        # The server reads the rest of the line before it closes, so the
        # close is a FIN: never a reset that could destroy the reply.
        import socket as socketlib

        request = json.dumps({"cmd": "status"}).encode()
        line = request + b" " * (size - len(request) - 1) + b"\n"
        for _ in range(runs):
            address = (server.host, server.port)
            with socketlib.create_connection(address, timeout=10.0) as raw:
                raw.sendall(line)
                with raw.makefile("rb") as stream:
                    reply = json.loads(stream.readline())
                    assert reply["error"] == "bad-request"
                    assert stream.readline() == b""

    def test_malformed_json_line(self, server):
        import socket as socketlib

        raw = socketlib.create_connection((server.host, server.port), timeout=10.0)
        try:
            with raw.makefile("rwb") as stream:
                stream.write(b"this is not json\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False and reply["error"] == "bad-request"

                stream.write(b"[1, 2, 3]\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["error"] == "bad-request"

                # nested too deep to parse, though under the line cap
                stream.write(b"[" * 200000 + b"]" * 200000 + b"\n")
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["error"] == "bad-request"

                # the connection is still usable afterwards
                stream.write(json.dumps({"cmd": "status"}).encode() + b"\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"]
        finally:
            raw.close()

    def test_remote_rows_match_local_run(self, server):
        local = Controller(default_config()).run_inventory_experiment(
            (2,), 3.0, seed=1
        )
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("x")["token"]
            remote = client.inventory(token, [2], 3.0, seed=1)["rows"]
        assert [(r["tag_id"], r["read_count"]) for r in remote] == [
            (r.tag_id, r.read_count) for r in local
        ]
        for got, want in zip(remote, local):
            assert got["mean_rssi_dbm"] == round(want.mean_rssi_dbm, 2)

    def test_tokens_never_appear_in_logs(self, tmp_path):
        # belt and braces: the experiment event stream must not leak the
        # lease token even if someone logs every server-side event
        config = default_config()
        controller = Controller(config)
        sessions = SessionManager()
        session = sessions.acquire("alice")
        log_path = tmp_path / "run.jsonl"
        with ExperimentLog(log_path) as log:
            controller.run_inventory_experiment((2,), 2.0, seed=0, log=log)
        assert session.token not in log_path.read_text()


def _local_rows(tag_ids, image, seed):
    """A reprogram's reply rows, run in-process on a fresh controller."""
    stats = Controller(default_config()).run_reprogram_experiment(tag_ids, image, seed)
    return [transfer_row(s) for s in stats]


class TestHeldImage:
    """The control server keeps the last image it built and reuses it for
    a request with the same text and flags."""

    TAGS = (1, 2)

    @pytest.fixture()
    def server(self):
        with ControlServer(default_config(), port=0) as srv:
            yield srv

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Every text the server hands to parse_ti_txt."""
        texts = []

        def counting(text):
            texts.append(text)
            return parse_ti_txt(text)

        monkeypatch.setattr("tpcbed.controller.parse_ti_txt", counting)
        return texts

    @pytest.fixture()
    def images(self, server, monkeypatch):
        """Every image the server runs a reprogram with."""
        used = []
        run = server.controller.run_reprogram_experiment

        def recording(tag_ids, image, seed):
            used.append(image)
            return run(tag_ids, image, seed)

        monkeypatch.setattr(server.controller, "run_reprogram_experiment", recording)
        return used

    def test_a_resent_text_is_parsed_once(self, server, parses, images):
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            first = client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=3)
            second = client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=3)
        assert parses == [SMALL_FIRMWARE]
        assert images[1] is images[0]
        want = _local_rows(self.TAGS, parse_ti_txt(SMALL_FIRMWARE), 3)
        assert first == second == {"ok": True, "rows": want}

    def test_a_second_connection_reuses_the_image(self, server, parses, images):
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            first = client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=4)
        with ControlClient(server.host, server.port) as client:
            second = client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=4)
        assert parses == [SMALL_FIRMWARE]
        assert images[1] is images[0]
        assert first["ok"] and second == first

    def test_a_changed_text_or_flag_builds_a_new_image(self, server, parses, images):
        deaf = {"obeys_goto_bios": False}
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            first = client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=3)
            changed = client.reprogram(token, self.TAGS, OTHER_FIRMWARE, seed=3)
            flagged = client.reprogram(token, self.TAGS, OTHER_FIRMWARE, deaf, seed=3)
            again = client.reprogram(token, self.TAGS, OTHER_FIRMWARE, deaf, seed=3)
        assert parses == [SMALL_FIRMWARE, OTHER_FIRMWARE]
        other = parse_ti_txt(OTHER_FIRMWARE)
        other_deaf = FirmwareImage(other.segments, obeys_goto_bios=False)
        assert images == [parse_ti_txt(SMALL_FIRMWARE), other, other_deaf, other_deaf]
        assert images[2] is not images[1] and images[3] is images[2]
        assert changed["rows"] != first["rows"]
        assert changed["rows"] == _local_rows(self.TAGS, other, 3)
        assert flagged["rows"] == again["rows"] == _local_rows(self.TAGS, other_deaf, 3)

    def test_concurrent_requests_each_run_their_own_text(self, server):
        # The held text and image are one pair: a request racing another
        # that swaps them must still run the image of its own text.
        texts = (SMALL_FIRMWARE, OTHER_FIRMWARE)
        want = {text: _local_rows(self.TAGS, parse_ti_txt(text), 5) for text in texts}
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
        wrong, errors = [], []
        start = threading.Barrier(4, timeout=60.0)

        def user(first):
            try:
                with ControlClient(server.host, server.port) as client:
                    start.wait()
                    for i in range(32):
                        text = texts[(first + i) % 2]
                        behavior = {"obeys_goto_bios": bool(i % 3)}
                        reply = client.reprogram(token, self.TAGS, text, behavior, 5)
                        if reply != {"ok": True, "rows": want[text]}:
                            wrong.append((text, reply))
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=user, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []

    def test_a_request_during_another_runs_its_own_text(self, server, monkeypatch):
        # While the first OTHER_FIRMWARE request runs, a second one for the
        # same text arrives on another connection: the image it finds held
        # must be the one built for that text, or none.
        want = _local_rows(self.TAGS, parse_ti_txt(OTHER_FIRMWARE), 5)
        run = server.controller.run_reprogram_experiment
        overtaken = []

        def overtake(tag_ids, image, seed):
            if image.byte_count == 4 and not overtaken:
                overtaken.append(None)
                with ControlClient(server.host, server.port) as other:
                    overtaken[0] = other.reprogram(
                        token, self.TAGS, OTHER_FIRMWARE, seed=5
                    )
            return run(tag_ids, image, seed)

        monkeypatch.setattr(server.controller, "run_reprogram_experiment", overtake)
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            assert client.reprogram(token, self.TAGS, SMALL_FIRMWARE, seed=5)["ok"]
            first = client.reprogram(token, self.TAGS, OTHER_FIRMWARE, seed=5)
        assert first == overtaken[0] == {"ok": True, "rows": want}

    @pytest.mark.parametrize(
        "fields, detail",
        [
            ({"firmware_text": BAD_FIRMWARE}, "line 2: bad byte token 'zz'"),
            (
                {"firmware_text": BAD_FIRMWARE, "behavior": {"obeys_goto_bios": "x"}},
                "line 2: bad byte token 'zz'",
            ),
            (
                {"firmware_text": BAD_FIRMWARE, "behavior": "x"},
                "line 2: bad byte token 'zz'",
            ),
            (
                {"behavior": {"obeys_goto_bios": "false"}},
                "obeys_goto_bios has the wrong JSON type: 'false'",
            ),
            (
                {"behavior": {"obeys_goto_bios": False}, "tags": [1.9]},
                "tag id has the wrong JSON type: 1.9",
            ),
            ({"firmware_text": OTHER_FIRMWARE, "tags": [1, 99]}, "unknown tag id 99"),
            (
                {"firmware_text": OTHER_FIRMWARE, "seed": 2.0},
                "seed has the wrong JSON type: 2.0",
            ),
        ],
        ids=[
            "bad-text",
            "bad-text-and-flag",
            "bad-text-and-behavior",
            "bad-flag",
            "new-flag-bad-tag",
            "new-text-unknown-tag",
            "new-text-bad-seed",
        ],
    )
    def test_a_refused_request_leaves_the_held_image(
        self, server, parses, images, fields, detail
    ):
        with ControlClient(server.host, server.port) as client:
            token = client.acquire("alice")["token"]
            request = {
                "cmd": "reprogram",
                "token": token,
                "tags": list(self.TAGS),
                "firmware_text": SMALL_FIRMWARE,
                "seed": 3,
            }
            first = client.call(request)
            refused = client.call({**request, **fields})
            again = client.call(request)
        assert refused == {"ok": False, "error": "bad-request", "detail": detail}
        assert first["ok"] and again == first
        assert images[-1] is images[0]
        assert parses.count(SMALL_FIRMWARE) == 1
