"""Async transport — what multiplexed framing and pipelining buy.

ISSUE 7's acceptance is quantitative: journaled throughput with 16
persistent *pipelined* clients on the framed transport must beat the
plain (unjournaled) line-protocol baseline recorded in ``BENCH_6.json``
by at least 5×.  The line dialect pays one round trip AND one fsync
barrier per event; frames keep a window of requests in flight, so the
round trips overlap and the durability gate shares one barrier across
the whole window.  This module measures:

* wire events/sec at 1, 8 and 16 concurrent persistent clients, the
  full matrix {lines, frames} × {journal on, journal off} — frames use
  ``post_many`` (windowed pipelining), lines post one-at-a-time, which
  IS the comparison: same server, same durability, different wire
  discipline;
* fsync barriers per request on the journaled framed burst (the gauge
  behind the speedup — should be ≪ 1);
* push-notification latency p50/p99 with 1, 16 and 64 subscribers on
  the framed transport, where a slow subscriber coalesces instead of
  disconnecting.

With ``DAMOCLES_BENCH_RECORD=1`` results are merge-written to
``BENCH_7.json`` at the repo root.
``DAMOCLES_BENCH_QUICK=1`` runs a smoke pass: tiny bursts, no JSON
write, no timing assertions.
"""

import json
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
from repro.network.async_server import AsyncProjectServer
from repro.network.client import BlueprintClient
from repro.network.server import wait_for_port
from repro.network.wal import WriteAheadLog

QUICK = os.environ.get("DAMOCLES_BENCH_QUICK") == "1"

ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = ROOT / "BENCH_7.json"
BASELINE_PATH = ROOT / "BENCH_6.json"

SOURCE = """\
blueprint benchasync
view v
  property uptodate default true
  property last default none
  when outofdate do uptodate = false done
  when ckin do uptodate = true done
  when seen do last = $arg done
endview
endblueprint
"""

#: ISSUE 7 acceptance: journaled frames throughput at 16 pipelined
#: clients ≥ SPEEDUP_FLOOR × the plain line-protocol baseline.
SPEEDUP_FLOOR = 5.0


def baseline_plain_16() -> float | None:
    """The PR-6 line-protocol plain rate at 16 clients, if recorded."""
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    try:
        return float(data["throughput"]["16_clients"]["plain_events_per_sec"])
    except (KeyError, TypeError, ValueError):
        return None


def build_stack(n_blocks: int):
    db = MetaDatabase()
    engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), trace_limit=0)
    for index in range(n_blocks):
        db.create_object(OID(f"b{index}", "v", 1))
    return db, engine


def timed_burst(
    server: AsyncProjectServer, n_clients: int, posts_each: int, transport: str
) -> float:
    """Persistent-connection burst; returns events/sec.

    Frames clients pipeline the whole burst through ``post_many``
    (window 64); lines clients pay a round trip per event.  All
    clients park on a barrier first so the measured window is pure
    post traffic.
    """
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def worker(index: int) -> None:
        try:
            client = BlueprintClient(
                host=server.host,
                port=server.port,
                persistent=True,
                transport=transport,
            )
            with client:
                barrier.wait()
                if transport == "frames":
                    seqs = client.post_many(
                        [
                            ("seen", f"b{index},v,1", "down", str(n))
                            for n in range(posts_each)
                        ],
                        window=64,
                    )
                    assert len(seqs) == posts_each
                else:
                    for n in range(posts_each):
                        client.post_event(
                            "seen", f"b{index},v,1", "down", arg=str(n)
                        )
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
    assert not errors, errors[:1]
    return n_clients * posts_each / elapsed


@pytest.mark.parametrize("transport", ["lines", "frames"])
@pytest.mark.parametrize("n_clients", [1, 8, 16])
def test_bench_wire_throughput(
    benchmark, n_clients, transport, tmp_path, report_printer, record_bench
):
    """Events/sec over the async server: the transport × journal grid."""
    posts_each = 10 if QUICK else max(125, 2000 // n_clients)
    rounds = 1 if QUICK else 3
    plain_rates: list[float] = []
    journal_rates: list[float] = []
    barriers = requests = 0
    for round_no in range(rounds):
        db, engine = build_stack(n_clients)
        with AsyncProjectServer(engine) as server:
            assert wait_for_port(server.host, server.port)
            plain_rates.append(
                timed_burst(server, n_clients, posts_each, transport)
            )
        db, engine = build_stack(n_clients)
        wal = WriteAheadLog(tmp_path / f"wal-{transport}-{round_no}")
        with AsyncProjectServer(engine, wal=wal) as server:
            assert wait_for_port(server.host, server.port)
            journal_rates.append(
                timed_burst(server, n_clients, posts_each, transport)
            )
            assert wal.last_seq == n_clients * posts_each  # all journaled
            barriers, requests = wal.sync_barriers, wal.last_seq
        wal.close()
    # register the journaled burst as the pytest-benchmark measurement
    db, engine = build_stack(n_clients)
    wal = WriteAheadLog(tmp_path / "wal-bench")
    with AsyncProjectServer(engine, wal=wal) as server:
        assert wait_for_port(server.host, server.port)
        benchmark.pedantic(
            timed_burst,
            args=(server, n_clients, posts_each, transport),
            rounds=1,
            iterations=1,
        )
    wal.close()
    plain = statistics.median(plain_rates)
    journaled = statistics.median(journal_rates)
    record_bench(
        BENCH_PATH,
        "throughput",
        f"{n_clients}_clients_{transport}",
        {
            "posts_per_client": posts_each,
            "rounds": rounds,
            "plain_events_per_sec": round(plain),
            "journaled_events_per_sec": round(journaled),
            "journal_barriers_per_request": round(barriers / requests, 4),
        },
    )
    report = ExperimentReport("async-server", "wire throughput")
    report.add_table(
        ["clients", "transport", "plain ev/s", "journaled ev/s", "barriers/req"],
        [
            (
                n_clients,
                transport,
                f"{plain:,.0f}",
                f"{journaled:,.0f}",
                f"{barriers / requests:.3f}",
            )
        ],
    )
    report_printer(report)
    if not QUICK and transport == "frames" and n_clients >= 16:
        # Pipelining must actually amortise the barrier: far fewer
        # fsyncs than requests on the journaled burst.
        assert barriers * 10 <= requests, (
            f"{barriers} barriers for {requests} requests — "
            "group commit is not amortising under pipelining"
        )
        baseline = baseline_plain_16()
        if baseline:
            # ISSUE 7 acceptance: ≥5× the PR-6 plain line baseline,
            # WITH durability on.
            assert journaled >= SPEEDUP_FLOOR * baseline, (
                f"journaled frames {journaled:,.0f} ev/s < "
                f"{SPEEDUP_FLOOR}× plain lines baseline {baseline:,.0f}"
            )


@pytest.mark.parametrize("n_subscribers", [1, 16, 64])
def test_bench_push_latency_fanout(
    benchmark, n_subscribers, tmp_path, report_printer, record_bench
):
    """Framed push latency p50/p99 as subscriber fan-out grows.

    One measured subscriber; the other N-1 consume the same stream
    concurrently.  The journal is ON — the barrier lands before the
    wave, so fan-out latency must not scale with fsync cost.
    """
    db, engine = build_stack(1)
    wal = WriteAheadLog(tmp_path / "wal")
    samples = 5 if QUICK else 40
    stop = threading.Event()
    side_threads: list[threading.Thread] = []
    with AsyncProjectServer(engine, wal=wal) as server:
        assert wait_for_port(server.host, server.port)

        def consume() -> None:
            client = BlueprintClient(
                host=server.host, port=server.port, transport="frames"
            )
            with client.subscribe() as sub:
                while not stop.is_set():
                    try:
                        sub.next(timeout=0.2)
                    except Exception:
                        if stop.is_set():
                            return

        for _ in range(n_subscribers - 1):
            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            side_threads.append(thread)
        poster = BlueprintClient(
            host=server.host, port=server.port, transport="frames"
        )
        measured = BlueprintClient(
            host=server.host, port=server.port, transport="frames"
        )
        latencies: list[float] = []
        with measured.subscribe() as sub:

            def flip_and_wait() -> None:
                stale = len(latencies) % 2 == 0
                verb = "outofdate" if stale else "ckin"
                started = time.perf_counter()
                poster.post_event(verb, "b0,v,1", "down" if stale else "up")
                note = sub.next(timeout=10)
                latencies.append(time.perf_counter() - started)
                assert note.verb == ("STALE" if stale else "FRESH")

            for _ in range(samples):
                flip_and_wait()
            benchmark.pedantic(flip_and_wait, rounds=3, iterations=1)
        stop.set()
        for thread in side_threads:
            thread.join(timeout=5)
    wal.close()
    latencies.sort()
    p50 = statistics.median(latencies)
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    record_bench(
        BENCH_PATH,
        "push_latency_frames",
        f"{n_subscribers}_subscribers",
        {
            "p50_ms": round(p50 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "samples": len(latencies),
        },
    )
    report = ExperimentReport("async-server", "push fan-out latency")
    report.add_table(
        ["subscribers", "p50", "p99"],
        [(n_subscribers, f"{p50 * 1e3:.2f} ms", f"{p99 * 1e3:.2f} ms")],
    )
    report_printer(report)
