"""The in-process event bus."""

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.network.bus import EventBus

SOURCE = """\
blueprint bus
view v
  property last default none
  when seen do last = $arg done
endview
endblueprint
"""


@pytest.fixture
def db():
    return MetaDatabase()


@pytest.fixture
def bus(db):
    engine = BlueprintEngine(db, Blueprint.from_source(SOURCE))
    return EventBus(engine)


class TestProgrammaticPosting:
    def test_post_processes_immediately(self, db, bus):
        obj = db.create_object(OID("a", "v", 1))
        bus.post("seen", obj.oid, "up", arg="x")
        assert obj.get("last") == "x"

    def test_deferred_mode(self, db):
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE))
        bus = EventBus(engine, process_after_post=False)
        obj = db.create_object(OID("a", "v", 1))
        bus.post("seen", obj.oid, "up", arg="x")
        assert obj.get("last") == "none"
        assert bus.drain() == 1
        assert obj.get("last") == "x"


class TestLineProtocol:
    def test_post_line_ok(self, db, bus):
        obj = db.create_object(OID("a", "v", 1))
        response = bus.handle_line('postEvent seen up a,v,1 "hello"')
        assert response == "OK 1"
        assert obj.get("last") == "hello"

    def test_bad_line_err(self, bus):
        response = bus.handle_line("postEvent broken")
        assert response.startswith("ERR")
        assert bus.errors

    def test_query_line(self, db, bus):
        db.create_object(OID("a", "v", 1), {"last": "none"})
        assert bus.handle_line("query a,v,1") == "OK last=none"

    def test_query_unknown(self, bus):
        assert bus.handle_line("query zz,v,1").startswith("ERR")

    def test_ping(self, bus):
        assert bus.handle_line("ping") == "PONG"

    def test_quit(self, bus):
        assert bus.handle_line("quit") == "BYE"

    def test_lines_counted(self, bus):
        bus.handle_line("ping")
        bus.handle_line("ping")
        assert bus.lines_seen == 2


STRICT_SOURCE = """\
blueprint strictbus
view v
  property uptodate default true
  when outofdate do uptodate = false done
  when ckin do uptodate = true done
  when explode do post outofdate down to ghostview done
endview
endblueprint
"""


@pytest.fixture
def strict_bus(db):
    from repro.core.engine import BlueprintEngine as Engine

    engine = Engine(db, Blueprint.from_source(STRICT_SOURCE), strict=True)
    return EventBus(engine)


class TestEngineErrorHandling:
    """Bugfix: a strict-mode EngineError must become ERR, not escape."""

    def test_post_to_unknown_oid_is_err_not_exception(self, strict_bus):
        response = strict_bus.handle_line("postEvent ckin up nosuchblock,verilog,1")
        assert response.startswith("ERR")
        assert "unknown OID" in response

    def test_engine_error_mid_wave_is_err(self, db, strict_bus):
        # the post target exists, but a post-rule mid-wave resolves to a
        # latest-version fallback that does not — strict mode raises
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("a", "ghostview", 1))
        db.remove_object(OID("a", "ghostview", 1))
        db.create_object(OID("a", "ghostview", 2))
        db.remove_object(OID("a", "ghostview", 2))
        response = strict_bus.handle_line("postEvent explode down a,v,1")
        # whether the wave survives depends on fallback resolution; the
        # contract under test: never an exception, always a response line
        assert response.startswith(("OK", "ERR"))

    def test_bus_survives_and_serves_after_error(self, db, strict_bus):
        db.create_object(OID("a", "v", 1))
        strict_bus.handle_line("postEvent ckin up nosuchblock,verilog,1")
        assert strict_bus.handle_line("ping") == "PONG"
        assert strict_bus.handle_line("postEvent ckin up a,v,1").startswith("OK")

    def test_engine_errors_counted(self, db):
        from repro.core.engine import BlueprintEngine as Engine, EngineError

        engine = Engine(db, Blueprint.from_source(SOURCE), strict=True)
        bus = EventBus(engine)
        db.create_object(OID("a", "v", 1))

        def raising_run(max_events=None):
            raise EngineError("synthetic wave failure")

        engine.run = raising_run
        response = bus.handle_line("postEvent seen up a,v,1")
        assert response == "ERR engine: synthetic wave failure"
        assert bus.stats.get("engine_errors") == 1


class TestUnknownTargetPost:
    """Bugfix: non-strict posts to unknown OIDs returned OK and dropped."""

    def test_non_strict_unknown_post_is_err(self, bus):
        response = bus.handle_line("postEvent seen up zz,v,1")
        assert response == "ERR unknown OID zz,v,1"
        assert bus.engine.metrics.events_posted == 0
        assert bus.stats.get("posts_rejected") == 1

    def test_known_post_still_ok(self, db, bus):
        db.create_object(OID("a", "v", 1))
        assert bus.handle_line("postEvent seen up a,v,1") == "OK 1"


class TestQueryEscaping:
    """Bugfix: space-containing values corrupted the query response."""

    def test_space_value_round_trips_through_bus(self, db, bus):
        db.create_object(OID("a", "v", 1))
        bus.handle_line('postEvent seen up a,v,1 "logic sim passed"')
        from repro.network.protocol import parse_query_response

        response = bus.handle_line("query a,v,1")
        assert response.startswith("OK")
        parsed = parse_query_response(response[2:].strip())
        assert parsed["last"] == "logic sim passed"


class TestStaleCommand:
    @pytest.fixture
    def stale_bus(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        return EventBus(engine)

    def test_stale_answers_from_set_without_scan(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        assert stale_bus.handle_line("stale") == "OK a,v,1"
        assert stale_bus.stats.get("stale_from_set") == 1
        # the mirror agrees with the database's incremental set
        assert set(stale_bus.stale_snapshot()) == set(db.stale_set())

    def test_stale_empty(self, stale_bus):
        assert stale_bus.handle_line("stale") == "OK"

    def test_mirror_seeded_from_existing_state(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        db.create_object(OID("a", "v", 1)).set("uptodate", False)
        late_bus = EventBus(engine)  # bus created after the flip
        assert late_bus.handle_line("stale") == "OK a,v,1"


class TestBusClose:
    """close() detaches the stale listener: short-lived buses over a
    long-lived database must not accumulate (and leak) on it."""

    def test_closed_bus_stops_mirroring_and_publishing(self, db):
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE))
        first = EventBus(engine)
        lines: list[str] = []
        first.subscribe(lines.append)
        first.close()
        second = EventBus(engine)
        db.create_object(OID("a", "v", 1)).set("uptodate", False)
        assert first.stale_snapshot() == []
        assert lines == []
        assert second.stale_snapshot() == [OID("a", "v", 1)]

    def test_close_is_idempotent(self, db):
        engine = BlueprintEngine(db, Blueprint.from_source(SOURCE))
        bus = EventBus(engine)
        bus.close()
        bus.close()


class TestPendingAndStatus:
    @pytest.fixture
    def stale_bus(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        return EventBus(engine)

    def test_pending_lists_failing_checks(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        from repro.network.protocol import parse_pending_response

        response = stale_bus.handle_line("pending")
        pending = parse_pending_response(response[2:].strip())
        assert pending == {OID("a", "v", 1): ("uptodate",)}

    def test_status_counters(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        from repro.network.protocol import parse_status_response

        counters = parse_status_response(
            stale_bus.handle_line("status")[2:].strip()
        )
        assert counters["objects"] == 1
        assert counters["stale"] == 1
        assert counters["events_posted"] == 1
        assert counters["waves"] == 1
        assert counters["queue"] == 0


class TestBatchCommand:
    @pytest.fixture
    def stale_bus(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        return EventBus(engine)

    def test_batch_posts_all_fifo(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        response = stale_bus.handle_line(
            'batch "postEvent outofdate down a,v,1" "postEvent outofdate down b,v,1"'
        )
        assert response == "OK 1 2"
        assert stale_bus.handle_line("stale") == "OK a,v,1 b,v,1"
        assert stale_bus.stats.get("batches") == 1

    def test_batch_atomic_rejection(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        response = stale_bus.handle_line(
            'batch "postEvent outofdate down a,v,1" "postEvent outofdate down zz,v,1"'
        )
        assert response.startswith("ERR")
        assert "zz,v,1" in response and "nothing posted" in response
        # the valid member was NOT posted: all-or-nothing
        assert stale_bus.engine.metrics.events_posted == 0
        assert stale_bus.handle_line("stale") == "OK"

    def test_batch_engine_error_withdraws_remainder(self, db):
        from repro.core.engine import BlueprintEngine as Engine, EngineError

        engine = Engine(db, Blueprint.from_source(SOURCE), strict=True)
        bus = EventBus(engine)
        obj_a = db.create_object(OID("a", "v", 1))
        obj_b = db.create_object(OID("b", "v", 1))

        real_run = engine.run

        def failing_run(max_events=None):
            raise EngineError("synthetic wave failure")

        engine.run = failing_run
        response = bus.handle_line(
            'batch "postEvent seen up a,v,1 x" "postEvent seen up b,v,1 y"'
        )
        assert response == "ERR engine: synthetic wave failure"
        # the ERR promised rejection: nothing from the batch stays queued
        assert len(engine.queue) == 0
        engine.run = real_run
        # a later unrelated post must not replay the rejected batch
        assert bus.handle_line('postEvent seen up a,v,1 later') == "OK 3"
        assert obj_a.get("last") == "later"
        assert obj_b.get("last") == "none"

    def test_deferred_batch_stays_queued(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        bus = EventBus(engine, process_after_post=False)
        db.create_object(OID("a", "v", 1))
        response = bus.handle_line('batch "postEvent outofdate down a,v,1"')
        assert response == "OK 1"
        assert len(engine.queue) == 1
        assert bus.drain() == 1
        assert bus.handle_line("stale") == "OK a,v,1"


class TestSubscriptions:
    @pytest.fixture
    def stale_bus(self, db):
        from repro.core.engine import BlueprintEngine as Engine

        engine = Engine(db, Blueprint.from_source(STRICT_SOURCE))
        return EventBus(engine)

    def test_subscriber_receives_stale_and_fresh(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        received: list[str] = []
        stale_bus.subscribe(received.append)
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        stale_bus.handle_line("postEvent ckin up a,v,1")
        assert received == ["STALE a,v,1", "FRESH a,v,1"]

    def test_subscribe_command_without_stream_is_err(self, stale_bus):
        assert stale_bus.handle_line("subscribe").startswith("ERR")

    def test_subscribe_command_with_stream(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        received: list[str] = []
        assert (
            stale_bus.handle_line("subscribe", subscriber=received.append)
            == "OK subscribed"
        )
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        assert received == ["STALE a,v,1"]
        assert stale_bus.subscriber_count == 1

    def test_raising_subscriber_dropped(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("b", "v", 1))
        received: list[str] = []

        def broken(line: str) -> None:
            raise OSError("socket gone")

        stale_bus.subscribe(broken)
        stale_bus.subscribe(received.append)
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        assert stale_bus.subscriber_count == 1  # broken one dropped
        stale_bus.handle_line("postEvent outofdate down b,v,1")
        assert received == ["STALE a,v,1", "STALE b,v,1"]
        assert stale_bus.stats.get("subscribers_dropped") == 1

    def test_unsubscribe(self, db, stale_bus):
        db.create_object(OID("a", "v", 1))
        received: list[str] = []
        stale_bus.subscribe(received.append)
        stale_bus.unsubscribe(received.append)
        stale_bus.handle_line("postEvent outofdate down a,v,1")
        assert received == []


class TestCheckpointRowsGauge:
    def test_health_reports_rows_written_back(self, tmp_path):
        from repro.metadb.persistence import load_database, save_database

        seed = MetaDatabase()
        seed.create_object(OID("a", "v", 1))
        seed.create_object(OID("b", "v", 1))
        path = save_database(seed, tmp_path / "db.sqlite")
        db, _registry = load_database(path)
        bus = EventBus(BlueprintEngine(db, Blueprint.from_source(SOURCE)))
        assert bus.health_counters()["checkpoint_rows"] == 0
        bus.handle_line('postEvent seen up a,v,1 "x"')
        save_database(db, path)  # a checkpoint: writes back a's one new row
        assert bus.health_counters()["checkpoint_rows"] == 1
