"""Per-layer metrics from a traced run's spans and exact counters.

Spans come from ``trace_boot.py``; a layer's self time is its span's
duration minus the part its child spans cover.  Counts come from the
server's ``health``/``status`` answers and ``LazySqliteStore.stats()``,
taken right before and right after the timed window.

``LAYERS`` names each per-layer metric's unit and layer; ``PREDICTIONS``
records, for each layer, the end-to-end metric it should move, on which
workload, and the workload that bypasses it.
"""

from __future__ import annotations

import math
import statistics

#: layer -> (the end-to-end metric its metrics should move, on which
#: workload; the workload that bypasses it, where the prediction is no
#: change).  Every predicted move names a workload BENCHMARK.json lists,
#: so it points at a gated run: the wire, admission, WAL, policy and
#: checkpoint layers carry every post of eco_propagation.  A bypass may
#: name signoff_pipelined, which runs but is not listed.
PREDICTIONS = {
    "network.framing + network.protocol": (
        "post_eps on eco_propagation; read_p50_ms on designer_queries",
        "notify_* on eco_propagation",
    ),
    "network.async_server": (
        "post_eps on eco_propagation",
        "reads on designer_queries",
    ),
    "network.wal": (
        "post_eps, eco_p50_ms on eco_propagation",
        "reads on designer_queries",
    ),
    "cli checkpointer -> save_database / lazy flush": (
        "post_eps, eco_p99_ms on eco_propagation",
        "designer_queries (lazy flush writes dirty shards only)",
    ),
    "core.policy": (
        "post_eps on eco_propagation",
        "reads on designer_queries",
    ),
    "core.engine (+ rules, expressions, events)": (
        "eco_p50_ms, eco_p99_ms on eco_propagation",
        "signoff_pipelined (1 delivery per wave)",
    ),
    "metadb.indexes / metadb.database": (
        "notify_p99_ms on eco_propagation",
        "signoff_pipelined (no transitions)",
    ),
    "network.bus": (
        "notify_p50_ms, notify_p99_ms on eco_propagation",
        "signoff_pipelined (no subscriber)",
    ),
    "core.state + metadb.query": (
        "pending_p50_ms, read_p99_ms, write_p99_ms on designer_queries",
        "signoff_pipelined, eco_propagation",
    ),
    "metadb.store + metadb.sqlite_store (lazy)": (
        "read_p99_ms, pending_p50_ms, write_p99_ms on designer_queries",
        "eager workloads (all zero)",
    ),
    "process": (
        "run validity",
        "-",
    ),
}

#: per-layer metric -> (unit, layer)
LAYERS = {
    "wire.decode_us": ("us", "network.framing + network.protocol"),
    "wire.encode_us": ("us", "network.framing + network.protocol"),
    "wire.writes_per_resp": ("count", "network.framing + network.protocol"),
    "server.admit_us": ("us", "network.async_server"),
    "server.gate_wait_ms": ("ms", "network.async_server"),
    "server.busy_rejections": ("count", "network.async_server"),
    "wal.append_us": ("us", "network.wal"),
    "wal.sync_ms": ("ms", "network.wal"),
    "wal.barriers_per_post": ("count", "network.wal"),
    "wal.bytes_per_post": ("bytes", "network.wal"),
    "ckpt.count": ("count", "cli checkpointer -> save_database / lazy flush"),
    "ckpt.p50_ms": ("ms", "cli checkpointer -> save_database / lazy flush"),
    "ckpt.max_ms": ("ms", "cli checkpointer -> save_database / lazy flush"),
    "ckpt.busy_frac": ("ratio", "cli checkpointer -> save_database / lazy flush"),
    "ckpt.bytes": ("bytes", "cli checkpointer -> save_database / lazy flush"),
    "policy.eval_us": ("us", "core.policy"),
    "policy.evals": ("count", "core.policy"),
    "policy.denials": ("count", "core.policy"),
    "audit.appends": ("count", "core.policy"),
    "engine.waves": ("count", "core.engine (+ rules, expressions, events)"),
    "engine.deliveries_per_wave": ("count", "core.engine (+ rules, expressions, events)"),
    "engine.wave_self_us": ("us", "core.engine (+ rules, expressions, events)"),
    "engine.us_per_delivery": ("us", "core.engine (+ rules, expressions, events)"),
    "index.stale_transitions": ("count", "metadb.indexes / metadb.database"),
    "index.stale_cb_us": ("us", "metadb.indexes / metadb.database"),
    "bus.pushes": ("count", "network.bus"),
    "bus.pushes_per_eco": ("count", "network.bus"),
    "bus.publish_us": ("us", "network.bus"),
    "bus.push_coalesced": ("count", "network.bus"),
    "state.pending_ms": ("ms", "core.state + metadb.query"),
    "state.status_ms": ("ms", "core.state + metadb.query"),
    "state.scanned_per_result": ("count", "core.state + metadb.query"),
    "store.faults": ("count", "metadb.store + metadb.sqlite_store (lazy)"),
    "store.evictions": ("count", "metadb.store + metadb.sqlite_store (lazy)"),
    "store.faults_per_read": ("count", "metadb.store + metadb.sqlite_store (lazy)"),
    "store.fault_share": ("ratio", "metadb.store + metadb.sqlite_store (lazy)"),
    "store.cold_scan_ms": ("ms", "metadb.store + metadb.sqlite_store (lazy)"),
    "server.cpu_frac": ("ratio", "process"),
    "gen.cpu_frac": ("ratio", "process"),
    "gen.lag_p99_ms": ("ms", "process"),
    "trace.overhead_frac": ("ratio", "process"),
    "host.steal_frac": ("ratio", "process"),
    "error_frac": ("ratio", "process"),
}

LOOP_THREAD = "blueprint-async-server"


def _self_times(
    rows: list, start: float, end: float
) -> list[tuple[str, float, float, float]]:
    """(name, start, duration, self time) of every span inside [start, end]."""
    rows = [row or ("open", 0.0, 0.0, -1) for row in rows]  # unfinished at exit
    child_time = [0.0] * len(rows)
    for name, begun, ended, parent in rows:
        if parent >= 0:
            child_time[parent] += ended - begun
    return [
        (name, begun, ended - begun, ended - begun - child_time[index])
        for index, (name, begun, ended, parent) in enumerate(rows)
        if start <= begun and ended <= end
    ]


def _mean(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(phase, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced phase, plus notes and check problems."""
    trace = phase.trace
    samples = phase.samples
    first, last = trace["snapshots"][0], trace["snapshots"][-1]
    start, end = first["t"], last["t"]
    wall = end - start
    count = {
        key: last["counts"].get(key, 0) - first["counts"].get(key, 0)
        for key in set(last["counts"]) | set(first["counts"])
    }
    store = {"faults": 0, "evictions": 0}
    for key in store:
        store[key] = sum(s[key] for s in last["store"]) - sum(s[key] for s in first["store"])

    totals: dict[str, list[float]] = {}  # name -> [calls, duration, self]
    durations: dict[str, list[float]] = {}
    scans: list[tuple[float, float]] = []  # (start, duration) of each pending
    fault_starts: list[float] = []
    loop_self = loop_idle = 0.0
    barriers: list[float] = []  # wal.sync off the loop: the gate's fsyncs
    for thread, rows in trace["spans"].items():
        on_loop = thread.startswith(LOOP_THREAD)
        for name, begun, duration, self_time in _self_times(rows, start, end):
            if name == "wal.sync" and not on_loop:
                barriers.append(duration)
            elif name == "state.pending":
                scans.append((begun, duration))
            elif name == "store.fault":
                fault_starts.append(begun)
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            durations.setdefault(name, []).append(duration)
            if on_loop:
                if name == "idle":
                    loop_idle += duration
                else:
                    loop_self += self_time

    def calls(name):
        return int(totals.get(name, [0])[0])

    def self_total(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def dur_total(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    before, after = phase.before, phase.after

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    posts = len(samples.acks)
    requests_in = count.get("frames_in", 0) + count.get("lines_in", 0)
    messages_out = count.get("frames_out", 0) + count.get("lines_in", 0)
    ckpts = sorted(durations.get("ckpt", []))
    ckpt_bytes = [b for t, b in trace["ckpt_bytes"] if start <= t <= end]
    waits = [w for t, w in trace["gate_waits"] if start <= t <= end]
    # The first ``pending`` is the cold full scan: it faults in every
    # lineage and pins it, so the LRU window works only before it.
    scans.sort()
    cold_at, cold_s = scans[0] if scans else (end, 0.0)
    prescan_faults = sum(1 for begun in fault_starts if begun < cold_at)
    prescan_requests = (
        samples.prescan_requests if samples.prescan_requests is not None
        else samples.attempted
    )
    warm_scans = [duration for _, duration in scans[1:]]
    waves = delta("waves")
    deliveries = delta("deliveries")
    busy = wall - loop_idle
    values = {
        "wire.decode_us": _mean(self_total("wire.decode"), requests_in, 1e6),
        "wire.encode_us": _mean(self_total("wire.encode"), calls("wire.encode"), 1e6),
        "wire.writes_per_resp": _mean(count.get("sends", 0), messages_out),
        "server.admit_us": _mean(self_total("server.admit"), calls("server.admit"), 1e6),
        "server.gate_wait_ms": _mean(sum(waits), len(waits), 1e3),
        "server.busy_rejections": delta("busy_rejections"),
        "wal.append_us": _mean(self_total("wal.append"), calls("wal.append"), 1e6),
        "wal.sync_ms": _mean(sum(barriers), len(barriers), 1e3),
        "wal.barriers_per_post": _mean(delta("journal_barriers"), posts),
        "wal.bytes_per_post": _mean(count.get("wal_bytes", 0), delta("journal_appends")),
        "ckpt.count": delta("checkpoints"),
        "ckpt.p50_ms": statistics.median(ckpts) * 1e3 if ckpts else 0.0,
        "ckpt.max_ms": ckpts[-1] * 1e3 if ckpts else 0.0,
        "ckpt.busy_frac": sum(ckpts) / wall,
        "ckpt.bytes": _mean(sum(ckpt_bytes), len(ckpt_bytes)),
        "policy.eval_us": _mean(self_total("policy.eval"), calls("policy.eval"), 1e6),
        "policy.evals": calls("policy.eval"),
        "policy.denials": delta("policy_denials"),
        "audit.appends": delta("audit_seq"),
        "engine.waves": waves,
        "engine.deliveries_per_wave": _mean(deliveries, waves),
        "engine.wave_self_us": _mean(self_total("engine.run"), calls("engine.run"), 1e6),
        "engine.us_per_delivery": _mean(dur_total("engine.run"), deliveries, 1e6),
        "index.stale_transitions": calls("index.stale_cb"),
        "index.stale_cb_us": _mean(self_total("index.stale_cb"), calls("index.stale_cb"), 1e6),
        "bus.pushes": samples.pushes,
        "bus.pushes_per_eco": _mean(samples.pushes, len(samples.eco_ms)),
        "bus.publish_us": _mean(self_total("bus.publish"), calls("bus.publish"), 1e6),
        "bus.push_coalesced": samples.coalesced,
        "state.pending_ms": _mean(sum(warm_scans), len(warm_scans), 1e3),
        "state.status_ms": _mean(dur_total("state.status"), calls("state.status"), 1e3),
        "state.scanned_per_result": _mean(
            after.get("objects", 0) * len(samples.pending_results),
            sum(samples.pending_results),
        ),
        "store.faults": store["faults"],
        "store.evictions": store["evictions"],
        "store.faults_per_read": _mean(prescan_faults, prescan_requests),
        "store.fault_share": _mean(dur_total("store.fault"), busy),
        "store.cold_scan_ms": cold_s * 1e3,
        "server.cpu_frac": phase.server_cpu_s / samples.seconds,
        "gen.cpu_frac": phase.gen_cpu_s / samples.seconds,
        "gen.lag_p99_ms": _lag_p99(samples.lag_ms),
        "trace.overhead_frac": overhead,
        "host.steal_frac": phase.steal_frac,
        "error_frac": samples.failed / max(1, samples.attempted),
    }
    metrics = {
        name: {"value": float(values[name]), "unit": LAYERS[name][0]}
        for name in LAYERS
    }
    notes = {
        "window_s": round(wall, 3),
        "loop_busy_s": round(busy, 3),
        "loop_span_self_s": round(loop_self, 3),
        "span_coverage_of_busy": round(loop_self / busy, 3) if busy > 0 else 0.0,
        "problems": [],
    }
    # Self times on the loop thread partition its busy time; more than
    # the busy time means spans overlap, i.e. the trace is wrong.
    if loop_self > busy * 1.01 + 1e-3:
        notes["problems"].append(
            f"loop-thread span self times {loop_self:.3f}s exceed busy time {busy:.3f}s"
        )
    return metrics, notes


def _lag_p99(lags: list[float]) -> float:
    """Nearest-rank p99 of the generator's lateness: from due time on the
    open loop, from reading the enabling answer on closed loops."""
    if not lags:
        return 0.0
    return sorted(lags)[math.ceil(0.99 * len(lags)) - 1]
