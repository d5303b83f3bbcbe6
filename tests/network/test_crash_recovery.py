"""Crash recovery end to end: kill the server at its worst moments.

Two styles of "crash":

* **subprocess** — ``damocles serve --journal`` runs in a real child
  process with ``DAMOCLES_CRASH_POINTS`` armed; the hit calls
  ``os._exit(137)``, the closest controllable stand-in for SIGKILL.
  The restarted server must come back in exactly the state implied by
  the durability contract: every acknowledged event present, the one
  torn mid-append entry absent, nothing double-applied.
* **in-process** — :class:`InjectedCrash` fires inside the bus, and the
  test plays the restart itself (reload database, replay the journal
  tail) to compare against a never-crashed twin.

Also here: the self-healing client against a genuinely bounced server
(satellite of the same robustness issue) and the shutdown-save-failure
path that must keep the journal.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.network.bus import EventBus
from repro.network.client import (
    BlueprintClient,
    BusyError,
    ClientError,
    RetryPolicy,
    TransportError,
)
from repro.network.server import ProjectServer, wait_for_port
from repro.network.wal import WriteAheadLog
from repro.testing.faults import (
    InjectedCrash,
    clear_crash_points,
    install_crash_point,
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SOURCE = """\
blueprint crashy
view v
  property uptodate default true
  property last default none
  when outofdate do uptodate = false done
  when ckin do uptodate = true done
  when seen do last = $arg done
endview
endblueprint
"""


@pytest.fixture(autouse=True)
def _disarm():
    clear_crash_points()
    yield
    clear_crash_points()


@pytest.fixture
def project_dir(tmp_path):
    """A blueprint file + seeded JSON database + journal dir on disk."""
    flow = tmp_path / "flow.bp"
    flow.write_text(SOURCE)
    db = MetaDatabase(name="crashy")
    db.create_object(OID("a", "v", 1))
    db.create_object(OID("b", "v", 1))
    save_database(db, tmp_path / "db.json")
    return tmp_path


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def serve_subprocess(
    project_dir: Path,
    port: int,
    *,
    crash_points: str = "",
    checkpoint_every: int = 1000,
    database: str = "db.json",
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    if crash_points:
        env["DAMOCLES_CRASH_POINTS"] = crash_points
    else:
        env.pop("DAMOCLES_CRASH_POINTS", None)
    return subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            str(project_dir / database),
            str(project_dir / "flow.bp"),
            "--port",
            str(port),
            "--journal",
            str(project_dir / "journal"),
            "--checkpoint-every",
            str(checkpoint_every),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_exit(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - diagnostics
        proc.kill()
        pytest.fail("server subprocess did not exit after the crash point")


@pytest.mark.slow
class TestSubprocessCrashes:
    """Real process kills via DAMOCLES_CRASH_POINTS=...:os._exit(137)."""

    def seen(self, client: BlueprintClient, oid: str) -> str:
        return client.query(oid).get("last", "none")

    def test_acked_events_survive_sigkill(self, project_dir):
        port = free_port()
        proc = serve_subprocess(project_dir, port)
        try:
            assert wait_for_port("127.0.0.1", port)
            client = BlueprintClient(port=port)
            for n in range(1, 6):
                client.post_event("seen", "a,v,1", "up", arg=f"e{n}")
            proc.send_signal(signal.SIGKILL)
            wait_exit(proc)
        finally:
            proc.kill()
        # no save-back, no checkpoint ran: only the journal has the events
        restarted = serve_subprocess(project_dir, port)
        try:
            assert wait_for_port("127.0.0.1", port, timeout=10)
            client = BlueprintClient(port=port)
            assert self.seen(client, "a,v,1") == "e5"
            # replay advanced the engine clock: new posts continue after it
            assert client.post_event("seen", "a,v,1", "up", arg="e6") == 6
        finally:
            restarted.kill()

    def test_mid_journal_append_drops_only_the_unacked_event(self, project_dir):
        port = free_port()
        proc = serve_subprocess(
            project_dir, port, crash_points="mid-journal-append:3"
        )
        try:
            assert wait_for_port("127.0.0.1", port)
            client = BlueprintClient(port=port)
            assert client.post_event("seen", "a,v,1", "up", arg="e1") == 1
            assert client.post_event("seen", "a,v,1", "up", arg="e2") == 2
            with pytest.raises(ClientError):  # dies mid-append: no ack
                client.post_event("seen", "a,v,1", "up", arg="e3")
            assert wait_exit(proc) == 137
        finally:
            proc.kill()
        restarted = serve_subprocess(project_dir, port)
        try:
            assert wait_for_port("127.0.0.1", port, timeout=10)
            out_line = restarted.stdout.readline()
            assert "repaired a torn tail line" in out_line
            client = BlueprintClient(port=port)
            # e3 was never acknowledged and never durable: gone is correct
            assert self.seen(client, "a,v,1") == "e2"
        finally:
            restarted.kill()

    def test_mid_wave_crash_replays_the_durable_event(self, project_dir):
        port = free_port()
        proc = serve_subprocess(project_dir, port, crash_points="mid-wave:3")
        try:
            assert wait_for_port("127.0.0.1", port)
            client = BlueprintClient(port=port)
            client.post_event("seen", "a,v,1", "up", arg="e1")
            client.post_event("seen", "a,v,1", "up", arg="e2")
            with pytest.raises(ClientError):  # journaled, then killed
                client.post_event("seen", "a,v,1", "up", arg="e3")
            assert wait_exit(proc) == 137
        finally:
            proc.kill()
        restarted = serve_subprocess(project_dir, port)
        try:
            assert wait_for_port("127.0.0.1", port, timeout=10)
            client = BlueprintClient(port=port)
            # the fsync happened before the wave: e3 exists after recovery,
            # even though its poster never got an OK
            assert self.seen(client, "a,v,1") == "e3"
        finally:
            restarted.kill()

    def test_mid_flush_crash_does_not_double_replay(self, project_dir):
        port = free_port()
        proc = serve_subprocess(
            project_dir, port, crash_points="mid-flush:1", checkpoint_every=2
        )
        try:
            assert wait_for_port("127.0.0.1", port)
            client = BlueprintClient(port=port)
            client.post_event("seen", "a,v,1", "up", arg="e1")
            with pytest.raises(ClientError):
                # admits + runs, then the triggered checkpoint crashes
                # AFTER the database save, BEFORE the journal truncate
                client.post_event("seen", "a,v,1", "up", arg="e2")
            assert wait_exit(proc) == 137
        finally:
            proc.kill()
        # the save carried the watermark; the journal was left untruncated
        payload = json.loads((project_dir / "db.json").read_text())
        assert payload["wal_seq"] == 2
        with WriteAheadLog(project_dir / "journal") as wal:
            assert wal.last_seq == 2
            assert wal.checkpoint_seq == 0
        restarted = serve_subprocess(project_dir, port)
        try:
            assert wait_for_port("127.0.0.1", port, timeout=10)
            client = BlueprintClient(port=port)
            assert self.seen(client, "a,v,1") == "e2"
            # nothing was replayed (wal_seq fences the journal tail), so
            # the engine clock starts fresh: no double-application
            assert client.post_event("seen", "a,v,1", "up", arg="e3") == 1
        finally:
            restarted.kill()

    #: Posts with a policy gate in the middle, so some are denied.
    GATED_SCRIPT = (
        ("seen", "a,v,1", "e1"),
        ("propose",),
        ("outofdate", "a,v,1", None),
        ("seen", "a,v,1", "e2"),  # denied: a is stale
        ("seen", "b,v,1", "e3"),  # denied: b never had uptodate set
        ("outofdate", "b,v,1", None),
        ("ckin", "a,v,1", None),
        ("seen", "a,v,1", "e4"),
        ("seen", "b,v,1", "e5"),  # denied: b is stale
        ("ckin", "b,v,1", None),
        ("seen", "b,v,1", "e6"),
        ("outofdate", "a,v,1", None),
    )

    def run_script(self, directory, port, script, proc):
        """Play *script*; on a dropped connection (the armed crash) wait
        for the kill, restart without crash points and go on.  Returns
        the final server and the journal seq of the last checkpoint that
        completed before the crash (None: no crash)."""
        crashed = None
        client = BlueprintClient(port=port)
        for step in script:
            try:
                if step[0] == "propose":
                    client.policy_propose(
                        "additive", "require", "event:seen", "$uptodate == true"
                    )
                else:
                    client.post_event(step[0], step[1], "up", arg=step[2])
            except ClientError as exc:
                if "policy:" in str(exc):
                    continue  # an audited denial, not a crash
                assert crashed is None and wait_exit(proc) == 137
                # the killed write rolled back: the file still loads, at
                # the watermark of the last completed checkpoint
                db, _ = load_database(directory / "db.sqlite")
                with WriteAheadLog(directory / "journal") as wal:
                    assert 0 < db.wal_seq == wal.checkpoint_seq < wal.last_seq
                crashed = db.wal_seq
                proc = serve_subprocess(directory, port, database="db.sqlite")
                assert wait_for_port("127.0.0.1", port, timeout=10)
                client = BlueprintClient(port=port)
        return proc, client, crashed

    def test_mid_checkpoint_write_crash_recovers_state_and_decisions(
        self, project_dir
    ):
        """A kill inside the checkpoint's SQLite write-back transaction,
        before its commit, must restart into exactly the stale set, data
        and allow/deny decision log of a server that never crashed."""
        observed, watermark = {}, None
        for name, crash in (("crashing", "mid-checkpoint-write:2"), ("reference", "")):
            directory = project_dir / name
            directory.mkdir()
            shutil.copy(project_dir / "flow.bp", directory)
            save_database(load_database(project_dir / "db.json")[0], directory / "db.sqlite")
            port = free_port()
            proc = serve_subprocess(
                directory, port, crash_points=crash, checkpoint_every=3,
                database="db.sqlite",
            )
            try:
                assert wait_for_port("127.0.0.1", port)
                proc, client, crashed = self.run_script(
                    directory, port, self.GATED_SCRIPT, proc
                )
                assert (crashed is not None) == bool(crash)
                watermark = crashed if crash else watermark
                observed[name] = (
                    client.audit(),
                    sorted(client.stale()),
                    client.query("a,v,1"),
                    client.query("b,v,1"),
                )
            finally:
                proc.kill()
                proc.wait(timeout=10)
        (crash_audit, *crash_state), (audit, *state) = (
            observed["crashing"], observed["reference"]
        )
        assert crash_state == state
        assert [record["verdict"] for record in audit].count("DENY") == 3
        # The audit ring is memory; the journal past the checkpoint is the
        # durable decision log, and its replay re-decides it exactly.
        assert crash_audit[0]["seq"] == watermark + 1
        assert crash_audit == [r for r in audit if r["seq"] > watermark]
        assert "DENY" in [record["verdict"] for record in crash_audit]


def build_bus(db, wal=None, **kwargs) -> EventBus:
    engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), strict=True)
    return EventBus(engine, wal=wal, **kwargs)


def fingerprint(db: MetaDatabase) -> dict:
    """Comparable state digest: every object's properties + stale set."""
    return {
        "objects": {
            obj.oid.dotted(): dict(obj.properties.items()) for obj in db.objects()
        },
        "stale": sorted(oid.dotted() for oid in db.stale_set()),
    }


class TestInProcessCrashes:
    """InjectedCrash inside the bus + hand-played restart."""

    def seed(self, tmp_path):
        db = MetaDatabase(name="crashy")
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        save_database(db, tmp_path / "db.json")
        return db

    def restart(self, tmp_path):
        """What ``damocles serve --journal`` does at startup."""
        db, _registry = load_database(tmp_path / "db.json")
        wal = WriteAheadLog(tmp_path / "journal")
        bus = build_bus(db, wal)
        replayed = 0
        for entry in wal.entries_after(db.wal_seq):
            bus.apply_journal_entry(entry)
            replayed += 1
        return db, bus, replayed

    def test_restart_equals_never_crashed_run(self, tmp_path):
        workload = [
            ("postEvent seen up a,v,1 e1"),
            ("postEvent outofdate down a,v,1"),
            ('batch "postEvent seen up b,v,1 e2" "postEvent outofdate down b,v,1"'),
            ("postEvent ckin up a,v,1"),
        ]
        # the crashing run: journal on, nothing ever checkpointed
        db = self.seed(tmp_path)
        bus = build_bus(db, WriteAheadLog(tmp_path / "journal"))
        for line in workload:
            assert bus.handle_line(line).startswith("OK")
        crashed_state = fingerprint(db)
        # the "never crashed" twin: same workload, no journal, no crash
        twin = MetaDatabase(name="crashy")
        twin.create_object(OID("a", "v", 1))
        twin.create_object(OID("b", "v", 1))
        twin_bus = build_bus(twin)
        for line in workload:
            twin_bus.handle_line(line)
        # restart from the (stale) seed database + journal tail
        recovered, _bus, replayed = self.restart(tmp_path)
        assert replayed == len(workload)
        assert fingerprint(recovered) == crashed_state == fingerprint(twin)

    def test_mid_wave_crash_is_replayed(self, tmp_path):
        db = self.seed(tmp_path)
        bus = build_bus(db, WriteAheadLog(tmp_path / "journal"))
        bus.handle_line("postEvent seen up a,v,1 before")
        install_crash_point("mid-wave")
        with pytest.raises(InjectedCrash):
            bus.handle_line("postEvent seen up a,v,1 lost-ack")
        # the wave never ran in the crashed process...
        assert db.get(OID("a", "v", 1)).get("last") == "before"
        # ...but it was durable, so the restart applies it
        recovered, _bus, replayed = self.restart(tmp_path)
        assert replayed == 2
        assert recovered.get(OID("a", "v", 1)).get("last") == "lost-ack"

    def test_mid_journal_append_crash_loses_only_the_torn_entry(self, tmp_path):
        db = self.seed(tmp_path)
        bus = build_bus(db, WriteAheadLog(tmp_path / "journal"))
        bus.handle_line("postEvent seen up a,v,1 durable")
        install_crash_point("mid-journal-append")
        with pytest.raises(InjectedCrash):
            bus.handle_line("postEvent seen up a,v,1 torn")
        recovered, recovered_bus, replayed = self.restart(tmp_path)
        assert replayed == 1
        assert recovered_bus.wal.recovered_torn_line is True
        assert recovered.get(OID("a", "v", 1)).get("last") == "durable"

    def test_checkpoint_then_crash_replays_only_the_tail(self, tmp_path):
        db = self.seed(tmp_path)
        wal = WriteAheadLog(tmp_path / "journal")
        bus = build_bus(db, wal)
        bus.handle_line("postEvent seen up a,v,1 one")
        bus.handle_line("postEvent seen up a,v,1 two")
        # a checkpoint exactly as damocles serve runs one
        db.wal_seq = wal.last_seq
        save_database(db, tmp_path / "db.json")
        wal.checkpoint(db.wal_seq)
        bus.handle_line("postEvent seen up a,v,1 three")
        recovered, _bus, replayed = self.restart(tmp_path)
        assert replayed == 1  # only the post-checkpoint tail
        assert recovered.get(OID("a", "v", 1)).get("last") == "three"

    def test_batch_replay_keeps_batch_atomicity(self, tmp_path):
        db = self.seed(tmp_path)
        bus = build_bus(db, WriteAheadLog(tmp_path / "journal"))
        response = bus.handle_line(
            'batch "postEvent seen up a,v,1 x" "postEvent seen up b,v,1 y"'
        )
        assert response.startswith("OK")
        recovered, _bus, replayed = self.restart(tmp_path)
        assert replayed == 1  # one journal entry, not two
        assert recovered.get(OID("a", "v", 1)).get("last") == "x"
        assert recovered.get(OID("b", "v", 1)).get("last") == "y"


class TestServeShutdownSafety:
    """``damocles serve`` must never lose events to a failed save-back."""

    def run_serve(self, argv: list[str]):
        """Run cmd_serve in a thread; returns (thread, exit-code box)."""
        from repro import cli

        args = cli.build_parser().parse_args(argv)
        box: list[int] = []
        thread = threading.Thread(target=lambda: box.append(cli.cmd_serve(args)))
        thread.start()
        return thread, box

    def test_failed_shutdown_save_keeps_the_journal(self, project_dir):
        from repro import cli

        port = free_port()
        thread, box = self.run_serve(
            [
                "serve",
                str(project_dir / "db.json"),
                str(project_dir / "flow.bp"),
                "--port",
                str(port),
                "--journal",
                str(project_dir / "journal"),
            ]
        )
        real_save = cli.save_database
        try:
            assert wait_for_port("127.0.0.1", port)
            client = BlueprintClient(port=port)
            client.post_event("seen", "a,v,1", "up", arg="precious")

            def failing_save(*args, **kwargs):
                raise OSError("injected: disk full")

            cli.save_database = failing_save
            cli.stop_serving()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            cli.save_database = real_save
        assert box == [1]  # the failure is an exit code, not a shrug
        # the journal was NOT truncated: the event is still recoverable
        with WriteAheadLog(project_dir / "journal") as wal:
            assert wal.last_seq == 1
            assert wal.checkpoint_seq == 0
        # and a healthy restart recovers and saves it
        port = free_port()
        thread, box = self.run_serve(
            [
                "serve",
                str(project_dir / "db.json"),
                str(project_dir / "flow.bp"),
                "--port",
                str(port),
                "--journal",
                str(project_dir / "journal"),
            ]
        )
        assert wait_for_port("127.0.0.1", port)
        client = BlueprintClient(port=port)
        assert client.query("a,v,1")["last"] == "precious"
        cli.stop_serving()
        thread.join(timeout=10)
        assert box == [0]
        payload = json.loads((project_dir / "db.json").read_text())
        assert payload["wal_seq"] == 1  # checkpointed through the event

    def test_journal_refuses_windowed_load(self, project_dir):
        from repro import cli

        args = cli.build_parser().parse_args(
            [
                "serve",
                str(project_dir / "db.json"),
                str(project_dir / "flow.bp"),
                "--journal",
                str(project_dir / "journal"),
                "--blocks",
                "a",
            ]
        )
        assert cli.cmd_serve(args) == 2


class TestRollbackKeepsWireMirror:
    """Satellite: MetaDatabase.transaction() rollback vs the bus's
    stale wire-mirror, under a demand-faulting (lazy) store."""

    def lazy_project(self, tmp_path):
        db = MetaDatabase(name="crashy")
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        save_database(db, tmp_path / "db.sqlite")
        lazy_db, _registry = load_database(tmp_path / "db.sqlite", lazy=True)
        assert lazy_db.lazy
        return lazy_db

    def test_rollback_reverts_mirror_updates(self, tmp_path):
        db = self.lazy_project(tmp_path)
        bus = build_bus(db)
        assert bus.stale_snapshot() == []
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.get(OID("a", "v", 1)).properties.set("uptodate", False)
                # mid-transaction the mirror already saw the flip...
                assert bus.stale_snapshot() == [OID("a", "v", 1)]
                raise RuntimeError("abort")
        # ...and the rollback's inverse mutation took it back out
        assert bus.stale_snapshot() == []
        assert db.stale_set() == frozenset()

    def test_rollback_interleaved_with_wire_posts(self, tmp_path):
        db = self.lazy_project(tmp_path)
        bus = build_bus(db)
        # a committed wire post before the doomed transaction
        assert bus.handle_line("postEvent outofdate down b,v,1").startswith("OK")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.get(OID("a", "v", 1)).properties.set("uptodate", False)
                raise RuntimeError("abort")
        # the rolled-back flip is gone; the committed post remains
        assert bus.stale_snapshot() == [OID("b", "v", 1)]
        assert set(db.stale_set()) == {OID("b", "v", 1)}
        # and the mirror still tracks post-rollback waves correctly
        assert bus.handle_line("postEvent ckin up b,v,1").startswith("OK")
        assert bus.stale_snapshot() == []

    def test_committed_transaction_shows_through(self, tmp_path):
        db = self.lazy_project(tmp_path)
        bus = build_bus(db)
        with db.transaction():
            db.get(OID("b", "v", 1)).properties.set("uptodate", False)
        assert bus.stale_snapshot() == [OID("b", "v", 1)]
        assert set(db.stale_set()) == {OID("b", "v", 1)}


class TestSelfHealingClient:
    """Retry, backoff, busy handling, bounced-server reconnects."""

    def project(self):
        db = MetaDatabase()
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), strict=True)
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        return db, engine

    def test_persistent_client_survives_server_bounce(self):
        db, engine = self.project()
        server = ProjectServer(engine).start()
        assert wait_for_port(server.host, server.port)
        port = server.port
        client = BlueprintClient(port=port, persistent=True)
        client.post_event("seen", "a,v,1", "up", arg="before")
        server.stop()
        # restart on the same port: the OS socket is gone, the pinned
        # client connection is a dead end
        server = ProjectServer(engine, port=port).start()
        assert wait_for_port(server.host, server.port)
        try:
            # the stale-pinned-socket rule heals this without an error
            assert client.query("a,v,1")["last"] == "before"
            client.post_event("seen", "a,v,1", "up", arg="after")
            assert client.query("a,v,1")["last"] == "after"
        finally:
            client.close()
            server.stop()

    def test_idempotent_retry_waits_out_a_starting_server(self):
        db, engine = self.project()
        port = free_port()
        client = BlueprintClient(
            port=port,
            retry=RetryPolicy(attempts=20, base_delay=0.05, max_delay=0.2),
        )

        def start_later(server_box):
            time.sleep(0.3)
            server_box.append(ProjectServer(engine, port=port).start())

        box: list = []
        thread = threading.Thread(target=start_later, args=(box,))
        thread.start()
        try:
            # connection refused at first; backoff retries until it's up
            assert client.ping() is True
        finally:
            thread.join()
            if box:
                box[0].stop()

    def test_no_retry_without_policy(self):
        client = BlueprintClient(port=free_port(), timeout=0.2)
        with pytest.raises(TransportError):
            client.stale()

    def test_post_transport_failure_is_not_retried(self):
        # posts must not blind-retry: the server may have applied them
        client = BlueprintClient(
            port=free_port(),
            timeout=0.2,
            retry=RetryPolicy(attempts=5, base_delay=0.01),
        )
        started = time.monotonic()
        with pytest.raises(TransportError):
            client.post_event("seen", "a,v,1", "up")
        # a single attempt: no backoff schedule was consumed
        assert time.monotonic() - started < 1.0

    def test_busy_rejection_is_retried_with_hint(self):
        db, engine = self.project()
        # busy_limit=0: every post is shed until the limit is lifted
        server = ProjectServer(engine, busy_limit=0).start()
        assert wait_for_port(server.host, server.port)
        try:
            client = BlueprintClient(
                port=server.port,
                retry=RetryPolicy(attempts=3, base_delay=0.01),
            )
            with pytest.raises(BusyError) as excinfo:
                client.post_event("seen", "a,v,1", "up", arg="x")
            assert excinfo.value.retry_after > 0
            assert server.bus.stats["busy_rejections"] >= 3  # it DID retry
            # lift the pressure: the same client goes through
            server.bus.busy_limit = None
            client.post_event("seen", "a,v,1", "up", arg="x")
            assert client.query("a,v,1")["last"] == "x"
        finally:
            server.stop()

    def test_health_over_the_wire(self):
        db, engine = self.project()
        server = ProjectServer(engine).start()
        assert wait_for_port(server.host, server.port)
        try:
            client = BlueprintClient(port=server.port)
            client.post_event("outofdate", "a,v,1", "down")
            health = client.health()
            assert health["stale"] == 1
            assert health["busy_rejections"] == 0
            assert "lock_write_waits" in health
        finally:
            server.stop()

    def test_subscription_resyncs_across_a_bounce(self):
        db, engine = self.project()
        server = ProjectServer(engine).start()
        assert wait_for_port(server.host, server.port)
        port = server.port
        client = BlueprintClient(
            port=port, retry=RetryPolicy(attempts=10, base_delay=0.05)
        )
        sub = client.subscribe(auto_resync=True)
        try:
            client.post_event("outofdate", "a,v,1", "down")
            note = sub.next(timeout=5)
            assert (note.verb, note.oid) == ("STALE", OID("a", "v", 1))
            # bounce the server; meanwhile b goes stale with nobody watching
            server.stop()
            db.get(OID("b", "v", 1)).properties.set("uptodate", False)
            server = ProjectServer(engine, port=port).start()
            assert wait_for_port(server.host, server.port)
            # EOF -> reconnect -> stale() resync -> synthetic STALE for b
            note = sub.next(timeout=10)
            assert (note.verb, note.oid) == ("STALE", OID("b", "v", 1))
            assert sub.resyncs == 1
            assert sub.view == {OID("a", "v", 1), OID("b", "v", 1)}
            # live pushes flow again on the replacement connection
            client.post_event("ckin", "a,v,1", "up")
            note = sub.next(timeout=5)
            assert (note.verb, note.oid) == ("FRESH", OID("a", "v", 1))
        finally:
            sub.close()
            server.stop()


class TestGroupCommitConsistency:
    """Concurrent durable writers: wave order must equal journal order.

    The server journals posts *outside* its exclusive lock (group
    commit), so ordering is no longer a free consequence of
    serialization — the apply gate has to provide it.  If it ever lets
    two waves run out of journal order, the replay twin diverges on
    `last` (last-writer-wins) and this test fails.
    """

    def test_concurrent_posts_replay_to_identical_state(self, tmp_path):
        db = MetaDatabase(name="crashy")
        db.create_object(OID("a", "v", 1))
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), strict=True)
        wal = WriteAheadLog(tmp_path / "journal")
        server = ProjectServer(engine, wal=wal).start()
        assert wait_for_port(server.host, server.port)
        failures = []

        def hammer(name):
            try:
                client = BlueprintClient(port=server.port, persistent=True)
                for n in range(25):
                    client.post_event("seen", "a,v,1", "up", arg=f"{name}-{n}")
                client.close()
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"c{i}",)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.stop()
        assert not failures, failures[:2]
        live = fingerprint(db)
        entries = list(wal.entries())
        assert len(entries) == 150
        # the live `last` is whatever the journal says was written last
        live_last = dict(db.get(OID("a", "v", 1)).properties.items())["last"]
        assert live_last == entries[-1].payload["arg"]
        wal.close()
        # replay twin from scratch: byte-identical state or the gate lied
        twin = MetaDatabase(name="crashy")
        twin.create_object(OID("a", "v", 1))
        twin_bus = build_bus(twin)
        for entry in WriteAheadLog(tmp_path / "journal").entries():
            twin_bus.apply_journal_entry(entry)
        assert fingerprint(twin) == live

    def test_health_reports_group_commit_gauges(self, tmp_path):
        db = MetaDatabase(name="crashy")
        db.create_object(OID("a", "v", 1))
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), strict=True)
        wal = WriteAheadLog(tmp_path / "journal")
        server = ProjectServer(engine, wal=wal).start()
        assert wait_for_port(server.host, server.port)
        try:
            client = BlueprintClient(port=server.port)
            client.post_event("seen", "a,v,1", "up", arg="e1")
            client.post_event("seen", "a,v,1", "up", arg="e2")
            health = client.health()
            assert health["journal_seq"] == 2
            assert health["journal_durable"] == 2
            assert health["journal_applied"] == 2
            assert health["journal_broken"] == 0
        finally:
            server.stop()
            wal.close()
