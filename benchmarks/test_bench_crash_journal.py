"""Crash-journal — the price of durability and the speed of recovery.

The crash-safe server (``damocles serve --journal``) promises that an
``OK`` implies the event survives a process kill.  The experiment
measures what that promise costs and how fast it pays out:

* wire events/sec with the journal on vs off, at 1, 8 and 16
  concurrent persistent clients.  Group commit is the headline:
  concurrent clients share fsync barriers, so the concurrent cost must
  stay within the ≤20% acceptance bound while a lone serial client
  pays the full one-barrier-per-roundtrip price.  The bound is
  asserted at 16 clients, where both sides of the comparison are
  reproducibly contention-bound; the 8-client point sits on a
  scheduler regime boundary in constrained containers (the plain
  baseline alone swings several-fold between runs) so its numbers are
  recorded, not asserted;
* recovery (startup replay) time as a function of journal length;
* push-notification latency p50/p99 with journaling on — durability
  must not add a disk barrier to the notification path (pushes happen
  after the append, inside the wave).

With ``DAMOCLES_BENCH_RECORD=1`` results are also written to
``BENCH_6.json`` at the repo root (machine-readable, merge-updated per
test, stamped with host and commit) so regressions diff in review.
Quick mode skips the JSON write and the timing assertions: its numbers
are smoke, not measurements.
"""

import os
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.network.bus import EventBus
from repro.network.client import BlueprintClient
from repro.network.server import ProjectServer, wait_for_port
from repro.network.wal import WriteAheadLog

QUICK = os.environ.get("DAMOCLES_BENCH_QUICK") == "1"

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_6.json"

SOURCE = """\
blueprint benchjournal
view v
  property uptodate default true
  property last default none
  when outofdate do uptodate = false done
  when ckin do uptodate = true done
  when seen do last = $arg done
endview
endblueprint
"""

#: ISSUE 6 acceptance: fsync'd journaling costs at most this fraction
#: of events/sec on the concurrent persistent-connection benchmark.
MAX_COST = 0.20


def build_stack(n_blocks: int):
    db = MetaDatabase()
    engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), trace_limit=0)
    for index in range(n_blocks):
        db.create_object(OID(f"b{index}", "v", 1))
    return db, engine


def timed_burst(server: ProjectServer, n_clients: int, posts_each: int) -> float:
    """Persistent-connection burst; returns events/sec.

    All clients connect and park on a barrier first, so the measured
    window is pure post traffic — exactly the window where group
    commit's shared barriers do or don't show up.
    """
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def worker(index: int) -> None:
        try:
            client = BlueprintClient(
                host=server.host, port=server.port, persistent=True
            )
            with client:
                barrier.wait()
                for round_no in range(posts_each):
                    client.post_event("seen", f"b{index},v,1", "down", arg=str(round_no))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    assert not errors
    return n_clients * posts_each / elapsed


@pytest.mark.parametrize("n_clients", [1, 8, 16])
def test_bench_journal_throughput_cost(
    benchmark, n_clients, tmp_path, report_printer, record_bench
):
    """Events/sec with the journal on vs off, interleaved rounds."""
    # Enough posts that the measured window is steady-state traffic,
    # not thread spin-up: short bursts under-read both transports.
    posts_each = 10 if QUICK else max(125, 2000 // n_clients)
    rounds = 1 if QUICK else 5
    plain_rates: list[float] = []
    journal_rates: list[float] = []
    # Interleave plain/journaled rounds so machine noise (shared CPU,
    # page cache) biases both sides alike; compare medians.
    for round_no in range(rounds):
        db, engine = build_stack(n_clients)
        with ProjectServer(engine) as server:
            assert wait_for_port(server.host, server.port)
            plain_rates.append(timed_burst(server, n_clients, posts_each))
        db, engine = build_stack(n_clients)
        wal = WriteAheadLog(tmp_path / f"wal-{round_no}")
        with ProjectServer(engine, wal=wal) as server:
            assert wait_for_port(server.host, server.port)
            journal_rates.append(timed_burst(server, n_clients, posts_each))
            assert wal.last_seq == n_clients * posts_each  # all journaled
        wal.close()
    # register the journaled burst as the pytest-benchmark measurement
    db, engine = build_stack(n_clients)
    wal = WriteAheadLog(tmp_path / "wal-bench")
    with ProjectServer(engine, wal=wal) as server:
        assert wait_for_port(server.host, server.port)
        benchmark.pedantic(
            timed_burst, args=(server, n_clients, posts_each), rounds=1, iterations=1
        )
    wal.close()
    plain = statistics.median(plain_rates)
    journaled = statistics.median(journal_rates)
    cost = 1.0 - journaled / plain
    record_bench(
        BENCH_PATH,
        "throughput",
        f"{n_clients}_clients",
        {
            "posts_per_client": posts_each,
            "rounds": rounds,
            "plain_events_per_sec": round(plain),
            "journaled_events_per_sec": round(journaled),
            "cost_fraction": round(cost, 4),
        },
    )
    report = ExperimentReport("crash-journal", "durability throughput cost")
    report.add_table(
        ["clients", "plain ev/s", "journaled ev/s", "cost"],
        [(n_clients, f"{plain:,.0f}", f"{journaled:,.0f}", f"{cost:+.1%}")],
    )
    report_printer(report)
    if not QUICK and n_clients >= 16:
        # The acceptance bound applies to the concurrent benchmark:
        # group commit shares barriers across clients.  A lone serial
        # client has nobody to share with and pays ~one fdatasync per
        # roundtrip — that number is recorded above, not asserted, as
        # is the 8-client point (see module docstring: its plain
        # baseline is bimodal under constrained schedulers).
        assert cost <= MAX_COST, (
            f"journaling cost {cost:.1%} exceeds {MAX_COST:.0%} at "
            f"{n_clients} clients: group commit is not amortising"
        )


@pytest.mark.parametrize("n_entries", [200] if QUICK else [200, 2000])
def test_bench_recovery_time(
    benchmark, n_entries, tmp_path, report_printer, record_bench
):
    """Startup replay: journal tail length vs time to recover it."""
    db, engine = build_stack(8)
    wal = WriteAheadLog(tmp_path / "wal")
    bus = EventBus(engine, wal=wal)
    for index in range(n_entries):
        response = bus.handle_line(
            f"postEvent seen down b{index % 8},v,1 e{index}"
        )
        assert response.startswith("OK")
    bus.close()
    wal.close()

    def recover() -> float:
        twin_db, twin_engine = build_stack(8)
        twin_bus = EventBus(twin_engine, process_after_post=True)
        replay_wal = WriteAheadLog(tmp_path / "wal")
        started = time.perf_counter()
        replayed = 0
        for entry in replay_wal.entries_after(twin_db.wal_seq):
            twin_bus.apply_journal_entry(entry)
            replayed += 1
        elapsed = time.perf_counter() - started
        assert replayed == n_entries
        # recovered state: every block carries the last arg posted to it
        last = dict(
            twin_db.get(OID(f"b{(n_entries - 1) % 8}", "v", 1)).properties.items()
        )["last"]
        assert last == f"e{n_entries - 1}"
        twin_bus.close()
        replay_wal.close()
        return elapsed

    elapsed = recover()
    benchmark.pedantic(recover, rounds=1 if QUICK else 3, iterations=1)
    record_bench(
        BENCH_PATH,
        "recovery",
        f"{n_entries}_entries",
        {
            "entries": n_entries,
            "seconds": round(elapsed, 4),
            "entries_per_sec": round(n_entries / elapsed),
        },
    )
    report = ExperimentReport("crash-journal", "recovery replay")
    report.add_table(
        ["journal entries", "replay time", "entries/sec"],
        [(n_entries, f"{elapsed * 1e3:.1f} ms", f"{n_entries / elapsed:,.0f}")],
    )
    report_printer(report)


def test_bench_push_latency_with_journal(
    benchmark, tmp_path, report_printer, record_bench
):
    """STALE-push latency with the journal on: p50 and p99.

    The append (and its barrier) happens before the wave, so the push
    path itself gains no disk wait — the p99 should sit at wave + wire
    latency, not at fsync latency stacked per subscriber.
    """
    db, engine = build_stack(1)
    wal = WriteAheadLog(tmp_path / "wal")
    samples = 5 if QUICK else 40
    latencies: list[float] = []
    with ProjectServer(engine, wal=wal) as server:
        assert wait_for_port(server.host, server.port)
        client = BlueprintClient(host=server.host, port=server.port)
        with client.subscribe() as subscription:

            def flip_and_wait() -> None:
                posted_at = time.perf_counter()
                client.post_event("outofdate", "b0,v,1", "down")
                note = subscription.next(timeout=10.0)
                latencies.append(time.perf_counter() - posted_at)
                assert note.verb == "STALE"
                client.post_event("ckin", "b0,v,1", "down")
                assert subscription.next(timeout=10.0).verb == "FRESH"

            # collect the sample population ourselves: pedantic rounds
            # do not execute under --benchmark-disable (CI smoke)
            for _ in range(samples - 1):
                flip_and_wait()
            benchmark.pedantic(flip_and_wait, rounds=1, iterations=1)
    wal.close()
    assert latencies
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    record_bench(
        BENCH_PATH,
        "push_latency_journaled",
        "single_subscriber",
        {
            "samples": len(latencies),
            "p50_ms": round(p50 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
        },
    )
    report = ExperimentReport("crash-journal", "push latency, journal on")
    report.add_table(
        ["samples", "p50", "p99"],
        [(len(latencies), f"{p50 * 1e3:.2f} ms", f"{p99 * 1e3:.2f} ms")],
    )
    report_printer(report)
