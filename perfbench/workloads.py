"""The three load shapes, driven from one thread over at most two
connections, and the output check that every run must pass.

* ``signoff_pipelined`` — closed loop on one framed connection, at most
  ``WINDOW`` posts in flight (what ``BlueprintClient.post_many`` does).
* ``eco_propagation`` — closed loop, one ECO at a time, on a framed
  poster plus a framed subscriber: post the change, wait for its STALE
  pushes, re-check-in every staled view pipelined (``RECHECK_WINDOW`` in
  flight) in flow order, and wait for the last FRESH.
* ``designer_queries`` — open loop at fixed rates: a line connection
  reads, a framed connection writes; every request is timed from the
  moment it was due.
"""

from __future__ import annotations

import select
import selectors
import time
from dataclasses import dataclass, field

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network.framing import command_to_request, event_to_payload
from repro.network.protocol import (
    parse_command,
    parse_pending_response,
    parse_query_response,
    parse_stale_response,
    parse_status_response,
)

from perfbench.inputs import TOP_ECO_EVERY, Stream
from perfbench.wire import FramedConn, LineConn

#: Posts in flight on a pipelined connection (``post_many``'s default).
WINDOW = 64
#: Re-check-ins in flight during an ECO.  With 64, each checkpoint stall
#: delays 64 posts at once and the p99 of post latency is set by the
#: three or four longest checkpoints of a run; 16 spreads it over ~15.
RECHECK_WINDOW = 16
#: eco_propagation reads the server's peak RSS when this many ECOs are
#: done (ten runs of ``TOP_ECO_EVERY``, each with one top-level ECO;
#: reached in 10-16 s on a 2-vCPU host).  The server's memory grows with
#: every post, so peak RSS at the end of a closed-loop window would rise
#: with throughput, and a faster server would read as a larger one.
RSS_AT_ECOS = 10 * TOP_ECO_EVERY
#: A response or push that has not arrived after this long fails the run.
STALL_TIMEOUT = 30.0


class RunFailed(RuntimeError):
    """The server stalled, closed a connection or answered garbage."""


@dataclass
class Samples:
    """Everything the generator observed during the timed window."""

    post_ms: list[float] = field(default_factory=list)  # send -> ack
    write_ms: list[float] = field(default_factory=list)  # due -> ack
    eco_ms: list[float] = field(default_factory=list)
    notify_ms: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    pending_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    #: how far past its timeout each sleep in ``select`` ran (the host
    #: woke the generator late; on a shared host up to ~30 ms)
    oversleep_ms: list[float] = field(default_factory=list)
    pending_results: list[int] = field(default_factory=list)
    #: (read index, answer body) of every OK read; parsed and checked
    #: after the window, so parsing a scan's answer (~10 ms) never makes
    #: the generator late
    answers: list[tuple[int, str]] = field(default_factory=list)
    reads: int = 0
    attempted: int = 0
    failed: int = 0
    pushes: int = 0
    coalesced: int = 0
    units_sent: int = 0
    #: (unit index, post index, engine seq) of every acknowledged post
    acks: list[tuple[int, int, int]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    view: set[str] = field(default_factory=set)  # rebuilt from pushes
    started: float = 0.0
    ended: float = 0.0
    last_ack: float = 0.0
    #: a closed loop ran out of stream before its window ended
    exhausted: bool = False
    #: eco_propagation: server peak RSS (MiB) after ``RSS_AT_ECOS`` ECOs
    rss_mb: float | None = None
    #: designer_queries: requests sent before the first ``pending`` (the
    #: cold full scan), or None when the window holds no ``pending``
    prescan_requests: int | None = None

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def post_payload(post: tuple) -> dict:
    name, oid, direction, arg, user = post
    event = EventMessage(
        name=name, direction=Direction.parse(direction), target=OID.parse(oid),
        arg=arg, user=user,
    )
    return {"cmd": "post", "event": event_to_payload(event)}


class Session:
    """The generator's connections and the one loop that serves them."""

    def __init__(self, host: str, port: int, *, subscriber: bool, reader: bool) -> None:
        self.poster = FramedConn(host, port)
        self.subscriber = FramedConn(host, port) if subscriber else None
        self.reader = LineConn(host, port) if reader else None
        self.selector = selectors.DefaultSelector()
        for conn in (self.poster, self.subscriber, self.reader):
            if conn is not None:
                self.selector.register(conn, selectors.EVENT_READ, conn)
        self.samples = Samples()
        self._inflight: dict[int, tuple[int, int, float, float]] = {}
        self._replies: dict[int, str] = {}
        self._on_push = None
        self._on_line = None
        #: when the loop last read traffic (closed-loop lateness base)
        self.woke = 0.0
        #: the last sleep that ran past its timeout: (timeout end, wake)
        self.overslept = (0.0, 0.0)
        #: reads the server's peak RSS in MiB (set by the caller)
        self.peak_rss = None
        if self.subscriber is not None:
            tag = self.subscriber.send({"cmd": "subscribe"})
            while True:
                frames = self._wait_frames(self.subscriber)
                if any(f.get("id") == tag for f in frames):
                    break

    def close(self) -> None:
        self.selector.close()
        for conn in (self.poster, self.subscriber, self.reader):
            if conn is not None:
                conn.close()

    def _wait_frames(self, conn: FramedConn) -> list[dict]:
        deadline = time.perf_counter() + STALL_TIMEOUT
        while time.perf_counter() < deadline:
            frames = conn.read()
            if frames:
                return frames
            select.select([conn], [], [], 0.5)
        raise RunFailed("no answer from the server")

    # -- posting ----------------------------------------------------------

    def send_post(
        self, unit: int, index: int, payload: dict, due: float,
        lag_from: float | None = None,
    ) -> None:
        """Send one post.  A closed loop passes *lag_from*, the moment
        the answer that let this post go was read, to time its lateness."""
        sent = time.perf_counter()
        if lag_from is not None:
            self.samples.lag_ms.append((sent - lag_from) * 1e3)
        tag = self.poster.send(dict(payload))
        self._inflight[tag] = (unit, index, sent, due)
        self.samples.attempted += 1

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def request(self, line: str) -> str:
        """One framed request outside the timed window (checks, gauges)."""
        tag = self.poster.send(command_to_request(parse_command(line), 0))
        deadline = time.perf_counter() + STALL_TIMEOUT
        while tag not in self._replies:
            if time.perf_counter() > deadline:
                raise RunFailed(f"no answer to {line!r}")
            self.pump(0.5)
        return self._replies.pop(tag)

    # -- the loop ---------------------------------------------------------

    def lateness_ms(self, since: float, now: float) -> float:
        """Generator lateness from *since* to *now*, less any part of it
        the generator spent overslept in ``select``: the host's delay in
        waking a sleeping process is not time the generator was busy."""
        start, end = self.overslept
        overlap = max(0.0, min(now, end) - max(since, start))
        return (now - since - overlap) * 1e3

    def pump(self, timeout: float) -> None:
        """Wait up to *timeout* for traffic and dispatch all of it."""
        timeout = max(0.0, timeout)
        slept = time.perf_counter()
        ready = self.selector.select(timeout)
        woke = time.perf_counter()
        if woke > slept + timeout:
            self.overslept = (slept + timeout, woke)
            self.samples.oversleep_ms.append((woke - slept - timeout) * 1e3)
        for key, _ in ready:
            conn = key.data
            try:
                items = conn.read()
            except (ConnectionError, OSError) as exc:
                raise RunFailed(f"connection lost: {exc}") from exc
            now = self.woke = time.perf_counter()
            if conn is self.reader:
                for line in items:
                    self._on_line(line, now)
                continue
            for frame in items:
                if "push" in frame:
                    self._push(frame, now)
                elif "error" in frame:
                    raise RunFailed(f"server: {frame['error']}")
                elif "id" in frame:
                    self._response(frame["id"], str(frame.get("response", "")), now)

    def wait_until(self, done, what: str) -> None:
        deadline = time.perf_counter() + STALL_TIMEOUT
        while not done():
            if time.perf_counter() > deadline:
                raise RunFailed(f"timed out waiting for {what}")
            self.pump(0.5)

    def _response(self, tag: int, response: str, now: float) -> None:
        entry = self._inflight.pop(tag, None)
        if entry is None:
            self._replies[tag] = response
            return
        unit, index, sent, due = entry
        samples = self.samples
        if not response.startswith("OK"):
            samples.failed += 1
            samples.problems.append(f"post {unit}/{index} answered {response!r}")
            return
        samples.acks.append((unit, index, int(response[2:].strip() or 0)))
        samples.last_ack = now
        samples.post_ms.append((now - sent) * 1e3)
        samples.write_ms.append((now - due) * 1e3)

    def _push(self, frame: dict, now: float) -> None:
        verb, _, oid = str(frame["push"]).partition(" ")
        samples = self.samples
        samples.pushes += 1
        samples.coalesced += bool(frame.get("coalesced"))
        if verb == "STALE":
            samples.view.add(oid)
        else:
            samples.view.discard(oid)
        if self._on_push is not None:
            self._on_push(verb, oid, now)


def run_signoff(session: Session, stream: Stream, seconds: float) -> None:
    payloads = [post_payload(unit.posts[0]) for unit in stream.units]
    samples = session.samples
    samples.started = session.woke = time.perf_counter()
    stop_at = samples.started + seconds
    sent = 0
    while True:
        now = time.perf_counter()
        while sent < len(payloads) and session.inflight < WINDOW and now < stop_at:
            session.send_post(sent, 0, payloads[sent], now, session.woke)
            sent += 1
        if session.inflight == 0:
            samples.exhausted = now < stop_at
            break
        if sent < len(payloads) and now < stop_at:
            session.wait_until(lambda: session.inflight < WINDOW, "sign-off acks")
        else:
            session.wait_until(lambda: session.inflight == 0, "sign-off acks")
    samples.ended = time.perf_counter()
    samples.units_sent = sent


def run_eco(session: Session, stream: Stream, seconds: float) -> None:
    samples = session.samples
    state = {"first": 0.0, "stale": set(), "fresh": set(), "last": 0.0}

    def on_push(verb: str, oid: str, now: float) -> None:
        if verb == "STALE":
            if oid in state["stale"]:
                state["stale"].discard(oid)
                samples.notify_ms.append((now - state["first"]) * 1e3)
        elif oid in state["fresh"]:
            state["fresh"].discard(oid)
            state["last"] = now

    session._on_push = on_push
    all_payloads = [[post_payload(post) for post in unit.posts] for unit in stream.units]
    samples.started = session.woke = time.perf_counter()
    stop_at = samples.started + seconds
    done = 0
    for index, unit in enumerate(stream.units):
        if index == RSS_AT_ECOS and session.peak_rss is not None:
            samples.rss_mb = session.peak_rss()
        # Stop only between whole runs of TOP_ECO_EVERY units, each of
        # which holds exactly one top-level ECO: a top-level ECO is most
        # of a run's posts, so a window cut inside a run would swing
        # post_eps by up to one top-level ECO's share.
        if time.perf_counter() >= stop_at and index % TOP_ECO_EVERY == 0:
            break
        payloads = all_payloads[index]
        state["stale"] = set(unit.stale)
        state["fresh"] = set(unit.fresh)
        state["first"] = first = time.perf_counter()
        session.send_post(index, 0, payloads[0], first, session.woke)
        session.wait_until(
            lambda: session.inflight == 0 and not state["stale"], "ECO STALE pushes"
        )
        for post_index in range(1, len(payloads)):
            if session.inflight >= RECHECK_WINDOW:
                session.wait_until(
                    lambda: session.inflight < RECHECK_WINDOW, "re-check-in acks"
                )
            session.send_post(
                index, post_index, payloads[post_index], time.perf_counter(), session.woke
            )
        session.wait_until(lambda: session.inflight == 0, "re-check-in acks")
        session.wait_until(lambda: not state["fresh"], "ECO FRESH pushes")
        samples.eco_ms.append((state["last"] - first) * 1e3)
        done += 1
    samples.ended = time.perf_counter()
    samples.exhausted = samples.ended < stop_at
    samples.units_sent = done
    session._on_push = None


def run_designer(session: Session, stream: Stream, seconds: float) -> None:
    samples = session.samples
    units = stream.units
    payloads = [post_payload(unit.posts[0]) for unit in units]
    reads = stream.reads
    reader = {"busy": None, "free_at": 0.0}

    def on_line(line: str, now: float) -> None:
        busy = reader["busy"]
        if busy is None:
            samples.problems.append(f"unexpected line {line!r}")
            return
        index, due = busy
        reader["busy"] = None
        reader["free_at"] = now
        command = reads[index][1]
        if not line.startswith("OK"):
            samples.failed += 1
            samples.problems.append(f"{command!r} answered {line[:80]!r}")
            return
        latency = (now - due) * 1e3
        if command == "pending":
            samples.pending_ms.append(latency)
        else:
            samples.read_ms.append(latency)
        samples.answers.append((index, line))

    session._on_line = on_line
    start = samples.started = time.perf_counter()
    next_read = next_write = 0
    while True:
        now = time.perf_counter()
        if reader["busy"] is None and next_read < len(reads):
            due = start + reads[next_read][0]
            if due <= now:
                # lateness the generator added: the connection was free
                # (or the request not yet due) and still nothing was sent
                samples.lag_ms.append(
                    session.lateness_ms(max(due, reader["free_at"]), now)
                )
                reader["busy"] = (next_read, due)
                if reads[next_read][1] == "pending" and samples.prescan_requests is None:
                    samples.prescan_requests = samples.attempted
                session.reader.send(reads[next_read][1])
                samples.attempted += 1
                samples.reads += 1
                next_read += 1
        # open loop: writes go out when due, however many are unanswered
        while next_write < len(units):
            due = start + units[next_write].due
            if due > now:
                break
            samples.lag_ms.append(session.lateness_ms(due, now))
            session.send_post(next_write, 0, payloads[next_write], due)
            next_write += 1
        if (
            next_read >= len(reads) and next_write >= len(units)
            and reader["busy"] is None and session.inflight == 0
        ):
            break
        wake = [0.5]
        if reader["busy"] is None and next_read < len(reads):
            wake.append(start + reads[next_read][0] - now)
        if next_write < len(units):
            wake.append(start + units[next_write].due - now)
        session.pump(min(wake))
        if time.perf_counter() - now > STALL_TIMEOUT:
            raise RunFailed("designer loop stalled")
    samples.ended = time.perf_counter()
    samples.units_sent = next_write
    session._on_line = None


DRIVERS = {
    "signoff_pipelined": run_signoff,
    "eco_propagation": run_eco,
    "designer_queries": run_designer,
}


def counters(session: Session) -> dict[str, int]:
    """``health`` and ``status`` gauges in one dict (outside timing)."""
    gauges = parse_status_response(session.request("health")[2:].strip())
    for name, value in parse_status_response(session.request("status")[2:].strip()).items():
        gauges.setdefault(name, value)
    return gauges


def check_answers(samples: Samples, stream: Stream) -> list[str]:
    """Parse the designer reads' answers; check ``query`` against the twin."""
    problems = []
    for index, line in samples.answers:
        _, command, expect = stream.reads[index]
        body = line[2:].strip()
        try:
            if command == "pending":
                samples.pending_results.append(len(parse_pending_response(body)))
            elif command == "stale":
                parse_stale_response(body)
            elif command == "status":
                parse_status_response(body)
            elif expect is not None and parse_query_response(body) != expect:
                problems.append(f"{command!r} answered {body!r}, twin {expect!r}")
        except ValueError as exc:
            problems.append(f"{command!r} answered {body[:80]!r}: {exc}")
    return problems


def check_outputs(
    session: Session, stream: Stream, before: dict[str, int], after: dict[str, int]
) -> list[str]:
    """The output check: every mismatch against the twin, as text."""
    samples = session.samples
    problems = list(samples.problems) + check_answers(samples, stream)
    prefix = samples.units_sent
    expected_stale, expected_answers = stream.expected(prefix)
    server_stale = {
        oid.wire()
        for oid in parse_stale_response(session.request("stale")[2:].strip())
    }
    if server_stale != expected_stale:
        problems.append(
            f"stale set: server has {len(server_stale)}, twin "
            f"{len(expected_stale)} (differ on "
            f"{sorted(server_stale ^ expected_stale)[:5]})"
        )
    if session.subscriber is not None and samples.view != server_stale:
        problems.append(
            f"subscriber view of {len(samples.view)} != server stale "
            f"{len(server_stale)}"
        )
    posted = sum(len(unit.posts) for unit in stream.units[:prefix])
    if len(samples.acks) != posted:
        problems.append(f"{len(samples.acks)} posts acknowledged OK of {posted}")
    seqs = [seq for _, _, seq in sorted(samples.acks)]
    if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
        problems.append("post seqs are not strictly increasing in send order")
    gated = after["audit_seq"] - before["audit_seq"]
    if gated != posted:
        problems.append(f"audit_seq moved by {gated} for {posted} gated posts")
    if after["policy_denials"] != 0:
        problems.append(f"policy_denials = {after['policy_denials']}")
    if after["journal_durable"] != after["journal_seq"]:
        problems.append(
            f"journal_durable {after['journal_durable']} != journal_seq "
            f"{after['journal_seq']}"
        )
    for oid, answer in sorted(expected_answers.items()):
        got = parse_query_response(session.request(f"query {oid}")[2:].strip())
        if got != answer:
            problems.append(f"query {oid}: server {got}, twin {answer}")
    return problems
