"""Start ``damocles serve`` with span recorders around layer entry points.

    python perfbench/trace_boot.py SPANS.json serve DB FLOW.bp [serve options]

Wraps public entry points of each layer (and the lazy store's fault-in)
before calling ``repro.cli.main``; nothing under ``src/`` changes.  Each
span records its name, start, end and the span that was open on the
same thread when it began.  Spans stay in memory and are written to
SPANS.json when the server exits.  Counters that need no timing are
snapshotted whenever the server answers ``health``, which the load
generator asks right before and right after its timed window.
"""

from __future__ import annotations

import functools
import json
import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread name -> [name, start, end, parent index] rows
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.gate_waits: list[tuple[float, float]] = []  # (release time, wait s)
        self.ckpt_bytes: list[tuple[float, int]] = []
        self.snapshots: list[dict] = []
        self.stores: list = []
        self._admitted: dict[int, float] = {}

    def _rows(self) -> tuple[list, list]:
        local = self._local
        rows = getattr(local, "rows", None)
        if rows is None:
            rows = local.rows = []
            local.stack = []
            with self._lock:
                self.spans[f"{threading.current_thread().name}#{threading.get_ident()}"] = rows
        return rows, local.stack

    def count(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + by

    def span(self, name: str, function, after=None):
        """*function* wrapped so every call records a span."""

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            rows, stack = self._rows()
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                rows[index] = (name, started, ended, parent)
            if after is not None:
                after(result, args, ended)
            return result

        return recorded

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), after))

    # -- per-entry-point extras ------------------------------------------

    def frames_in(self, result, args, ended) -> None:
        self.count("frames_in", len(result))

    def line_in(self, result, args, ended) -> None:
        self.count("lines_in")

    def frame_out(self, result, args, ended) -> None:
        self.count("frames_out")

    def admitted(self, result, args, ended) -> None:
        if isinstance(result, tuple):
            self._admitted[result[0].seq] = ended

    def released(self, result, args, ended) -> None:
        started = self._admitted.pop(args[1].seq, None)
        if started is not None:
            self.gate_waits.append((ended, ended - started))

    def wal_bytes(self, result, args, ended) -> None:
        self.count("wal_bytes", len(result.to_json()) + 1)

    def snapshot(self, result, args, ended) -> None:
        with self._lock:
            counts = dict(self.counts)
        self.snapshots.append({
            "t": ended,
            "counts": counts,
            "store": [store.stats() for store in self.stores],
        })

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "gate_waits": self.gate_waits,
            "ckpt_bytes": self.ckpt_bytes,
            "snapshots": self.snapshots,
        }
        Path(path).write_text(json.dumps(payload))


def _written_bytes() -> int:
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return 0


def install(recorder: Recorder) -> None:
    import repro.cli as cli
    import repro.core.state as state
    import repro.network.async_server as async_server
    import repro.network.bus as bus
    from repro.core.engine import BlueprintEngine
    from repro.core.policy import GovernedPolicy
    from repro.metadb.database import MetaDatabase
    from repro.metadb.indexes import IndexRegistry
    from repro.metadb.store import LazySqliteStore
    from repro.network.bus import EventBus
    from repro.network.framing import FrameDecoder
    from repro.network.wal import WriteAheadLog

    span = recorder.wrap
    span(FrameDecoder, "feed", "wire.decode", recorder.frames_in)
    span(bus, "parse_command", "wire.decode", recorder.line_in)
    span(async_server, "encode_frame", "wire.encode", recorder.frame_out)
    span(EventBus, "handle_command", "server.handle")
    span(EventBus, "admit_durable", "server.admit", recorder.admitted)
    span(EventBus, "apply_admitted", "server.apply")
    span(EventBus, "ensure_durable", "server.release", recorder.released)
    span(EventBus, "publish", "bus.publish")
    span(EventBus, "status_counters", "state.status")
    span(EventBus, "health_counters", "server.health", recorder.snapshot)
    span(WriteAheadLog, "append_event", "wal.append", recorder.wal_bytes)
    span(WriteAheadLog, "sync", "wal.sync")
    span(WriteAheadLog, "checkpoint", "wal.checkpoint")
    span(GovernedPolicy, "evaluate", "policy.eval")
    span(BlueprintEngine, "run", "engine.run")
    span(state, "pending_work", "state.pending")
    span(state, "project_status", "state.project_status")
    span(cli, "save_database", "ckpt.save")
    span(MetaDatabase, "flush", "ckpt.flush")
    span(LazySqliteStore, "_fault_lineage", "store.fault")

    run_checkpoint = EventBus.run_checkpoint

    def checkpoint_with_bytes(self):
        before = _written_bytes()
        try:
            return run_checkpoint(self)
        finally:
            recorder.ckpt_bytes.append((clock(), _written_bytes() - before))

    EventBus.run_checkpoint = recorder.span("ckpt", checkpoint_with_bytes)

    on_stale_change = IndexRegistry.on_stale_change

    def traced_listener(self, listener):
        on_stale_change(self, recorder.span("index.stale_cb", listener))

    IndexRegistry.on_stale_change = traced_listener

    store_init = LazySqliteStore.__init__

    def remembered_store(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        recorder.stores.append(self)

    LazySqliteStore.__init__ = remembered_store

    send = socket.socket.send

    def counted_send(self, *args, **kwargs):
        recorder.count("sends")
        return send(self, *args, **kwargs)

    socket.socket.send = counted_send

    import selectors

    selector = selectors.DefaultSelector
    selector.select = recorder.span("idle", selector.select)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
