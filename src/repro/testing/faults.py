"""Fault injection: named crash points, flaky sockets, faulty SQLite.

The crash-recovery suite (``tests/network/test_crash_recovery.py``)
asserts that a ``damocles serve --journal`` process killed at the worst
possible moments restarts into exactly the state of a never-crashed
run.  "Worst possible moment" is made reproducible by *named crash
points*: zero-cost markers compiled into the durability-critical paths
(``crash_point("mid-journal-append")`` between the two halves of a
journal write, ``crash_point("mid-wave")`` between the durable append
and the engine wave, ``crash_point("mid-flush")`` between the database
checkpoint and the journal truncation, ``crash_point("mid-checkpoint-write")``
inside a SQLite save's write transaction before it commits,
``crash_point("mid-policy-apply")`` between a policy lifecycle
command's validation and its journal entry,
``crash_point("mid-audit-append")`` inside the governed policy's audit
append).  A production process never arms them; a test arms them either

* in process — :func:`install_crash_point` makes the Nth hit raise
  :class:`InjectedCrash` (a ``BaseException``, so no ``except
  Exception`` recovery path can accidentally swallow the "crash"); or
* across a process boundary — the environment variable
  ``DAMOCLES_CRASH_POINTS="mid-wave:2,mid-flush"`` (``name[:nth-hit]``)
  is parsed at import, and an armed hit calls ``os._exit(137)``: no
  atexit handlers, no buffer flushing, no save-back — the closest a
  test can get to SIGKILL while choosing the instruction it lands on.

Crash points model a process dying; *fault points* model a component
failing while the process lives on.  :func:`fault_point` markers sit in
code that promises fail-closed behaviour (``fault_point("policy-eval")``
inside the governed policy's rule evaluation); arming one with
:func:`install_fault_point` makes the next N hits raise
:class:`InjectedFault` — a plain ``Exception`` on purpose, because the
assertion under test is precisely that the surrounding code converts an
unexpected evaluation error into an audited deny rather than a grant.

The rest of the module wraps the two I/O dependencies the server has:

* :class:`FlakySocket` — a socket proxy injecting send/recv failures,
  partial writes, delays and connection drops on a per-call schedule
  (drives the self-healing client's retry/reconnect paths);
* :class:`FaultyConnection` — a ``sqlite3.Connection`` proxy that
  raises ``sqlite3.OperationalError`` ("disk I/O error") on the Nth
  execute, or on statements matching a substring (drives the
  checkpoint-failure and save-back-failure paths).
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass, field


class InjectedCrash(BaseException):
    """An in-process stand-in for a process kill at a crash point.

    Derives from ``BaseException`` so the engine/bus ``except
    Exception`` error paths cannot convert a simulated crash into a
    handled error.
    """


class InjectedFault(Exception):
    """A recoverable injected failure (socket hiccup, disk error)."""


# ---------------------------------------------------------------------------
# named crash points
# ---------------------------------------------------------------------------

_EXIT_CODE = 137  # what a SIGKILLed process reports (128 + 9)


@dataclass
class _CrashPoint:
    name: str
    remaining: int  # crashes when this reaches 0 on a hit
    action: str  # "raise" | "exit"
    hits: int = 0


#: Armed crash points by name.  Empty in production: the fast path of
#: :func:`crash_point` is one dict ``get`` on an empty dict.
_armed: dict[str, _CrashPoint] = {}


def crash_point(name: str) -> None:
    """Marker called from durability-critical code; no-op unless armed."""
    point = _armed.get(name)
    if point is None:
        return
    point.hits += 1
    point.remaining -= 1
    if point.remaining > 0:
        return
    del _armed[name]
    if point.action == "exit":
        os._exit(_EXIT_CODE)
    raise InjectedCrash(f"crash point {name!r} (hit {point.hits})")


def install_crash_point(
    name: str, *, nth: int = 1, action: str = "raise"
) -> None:
    """Arm *name* to fire on its *nth* hit.

    ``action="raise"`` raises :class:`InjectedCrash` in the hitting
    thread (in-process tests); ``action="exit"`` kills the whole
    process with ``os._exit`` (subprocess tests).
    """
    if nth < 1:
        raise ValueError(f"nth must be >= 1, got {nth}")
    if action not in ("raise", "exit"):
        raise ValueError(f"unknown crash action {action!r}")
    _armed[name] = _CrashPoint(name=name, remaining=nth, action=action)


def clear_crash_points() -> None:
    """Disarm everything (test teardown)."""
    _armed.clear()


def armed_crash_points() -> dict[str, int]:
    """Remaining-hit counts by name (diagnostics)."""
    return {name: point.remaining for name, point in _armed.items()}


def load_crash_points_from_env(value: str | None = None) -> int:
    """Arm crash points from ``DAMOCLES_CRASH_POINTS``.

    Format: comma-separated ``name`` or ``name:nth`` items.  Points
    armed from the environment always use ``action="exit"`` — the
    variable exists so a *subprocess* can be killed mid-operation.
    Returns the number of points armed.
    """
    if value is None:
        value = os.environ.get("DAMOCLES_CRASH_POINTS", "")
    count = 0
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, nth_text = item.partition(":")
        install_crash_point(
            name.strip(), nth=int(nth_text) if nth_text else 1, action="exit"
        )
        count += 1
    return count


# Arm from the environment at import: the serve subprocess a crash test
# launches picks its kill schedule up without any code path changes.
load_crash_points_from_env()


# ---------------------------------------------------------------------------
# named fault points (recoverable failures, not process deaths)
# ---------------------------------------------------------------------------


@dataclass
class _FaultPoint:
    name: str
    remaining: int  # -1 = fire on every hit
    hits: int = 0


#: Armed fault points by name; same empty-dict fast path as crash points.
_fault_points: dict[str, _FaultPoint] = {}


def fault_point(name: str) -> None:
    """Marker in fail-closed code paths; raises when armed.

    Unlike :func:`crash_point`, the injected error is a regular
    :class:`InjectedFault` (``Exception``) — the point is to prove the
    caller's ``except Exception`` path degrades safely (audited deny,
    error response) instead of granting or crashing.
    """
    point = _fault_points.get(name)
    if point is None:
        return
    point.hits += 1
    if point.remaining == 0:
        return
    if point.remaining > 0:
        point.remaining -= 1
        if point.remaining == 0:
            del _fault_points[name]
    raise InjectedFault(f"fault point {name!r} (hit {point.hits})")


def install_fault_point(name: str, *, times: int = 1) -> None:
    """Arm *name* to raise on its next *times* hits (-1 = every hit)."""
    if times == 0 or times < -1:
        raise ValueError(f"times must be positive or -1, got {times}")
    _fault_points[name] = _FaultPoint(name=name, remaining=times)


def clear_fault_points() -> None:
    """Disarm every fault point (test teardown)."""
    _fault_points.clear()


def armed_fault_points() -> dict[str, int]:
    """Remaining-raise counts by name (diagnostics)."""
    return {name: point.remaining for name, point in _fault_points.items()}


# ---------------------------------------------------------------------------
# flaky sockets
# ---------------------------------------------------------------------------


@dataclass
class SocketFaultPlan:
    """What should go wrong, and when (counts are per wrapped socket).

    ``fail_sends`` / ``fail_recvs``: the first N calls raise ``OSError``
    (``ECONNRESET``-style).  ``partial_first_send``: the first send
    writes only that many bytes before raising, modelling a torn write.
    ``drop_after_sends``: after N successful sends the connection is
    shut down, so the peer sees EOF.  ``delay_seconds`` sleeps before
    every operation (slow-network / slow-subscriber shaping).
    """

    fail_sends: int = 0
    fail_recvs: int = 0
    partial_first_send: int | None = None
    drop_after_sends: int | None = None
    delay_seconds: float = 0.0


class FlakySocket:
    """A socket proxy that misbehaves according to a fault plan.

    Wraps a connected socket; everything not listed here delegates to
    the real socket (``fileno`` keeps ``select`` working, ``makefile``
    keeps buffered readers working — reads through a makefile are not
    fault-injected, use ``recv`` paths to exercise read faults).
    """

    def __init__(self, sock, plan: SocketFaultPlan | None = None) -> None:
        self._sock = sock
        self.plan = plan or SocketFaultPlan()
        self.sends = 0
        self.recvs = 0
        self.injected: list[str] = []

    def __getattr__(self, name: str):
        return getattr(self._sock, name)

    def __enter__(self) -> "FlakySocket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._sock.close()

    def _delay(self) -> None:
        if self.plan.delay_seconds:
            time.sleep(self.plan.delay_seconds)

    def sendall(self, data: bytes) -> None:
        self._delay()
        if self.plan.fail_sends > 0:
            self.plan.fail_sends -= 1
            self.injected.append("send-fail")
            raise OSError(104, "injected connection reset on send")
        if self.plan.partial_first_send is not None:
            cut = self.plan.partial_first_send
            self.plan.partial_first_send = None
            self._sock.sendall(data[:cut])
            self.injected.append("partial-send")
            raise OSError(32, f"injected broken pipe after {cut} bytes")
        self._sock.sendall(data)
        self.sends += 1
        if (
            self.plan.drop_after_sends is not None
            and self.sends >= self.plan.drop_after_sends
        ):
            self.plan.drop_after_sends = None
            self.injected.append("drop")
            try:
                self._sock.shutdown(2)  # SHUT_RDWR
            except OSError:
                pass

    def send(self, data: bytes) -> int:
        self.sendall(data)
        return len(data)

    def recv(self, bufsize: int) -> bytes:
        self._delay()
        if self.plan.fail_recvs > 0:
            self.plan.fail_recvs -= 1
            self.injected.append("recv-fail")
            raise OSError(104, "injected connection reset on recv")
        data = self._sock.recv(bufsize)
        self.recvs += 1
        return data


# ---------------------------------------------------------------------------
# faulty SQLite connections
# ---------------------------------------------------------------------------


@dataclass
class SqliteFaultPlan:
    """When the wrapped connection should report disk trouble.

    ``fail_after_statements``: statements before this index succeed,
    everything after raises.  ``fail_matching``: any statement whose SQL
    contains this substring raises (e.g. ``"INSERT INTO objects"`` to
    fail mid-flush).  ``operational_errors``: how many times to raise
    before recovering (-1 = forever).
    """

    fail_after_statements: int | None = None
    fail_matching: str | None = None
    operational_errors: int = -1
    message: str = "injected disk I/O error"
    statements: int = 0
    raised: int = 0

    def should_fail(self, sql: str) -> bool:
        self.statements += 1
        if self.operational_errors == 0:
            return False
        armed = False
        if (
            self.fail_after_statements is not None
            and self.statements > self.fail_after_statements
        ):
            armed = True
        if self.fail_matching is not None and self.fail_matching in sql:
            armed = True
        if armed:
            if self.operational_errors > 0:
                self.operational_errors -= 1
            self.raised += 1
        return armed


class FaultyConnection:
    """A ``sqlite3.Connection`` proxy that injects ``OperationalError``.

    Only ``execute`` / ``executemany`` / ``executescript`` are guarded;
    transaction control and everything else pass through, so the store's
    ``with connection:`` blocks keep their rollback semantics while the
    statements inside them blow up on schedule.
    """

    def __init__(
        self, connection: sqlite3.Connection, plan: SqliteFaultPlan | None = None
    ) -> None:
        self._connection = connection
        self.plan = plan or SqliteFaultPlan()

    def __getattr__(self, name: str):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        return self._connection.__exit__(*exc_info)

    def _check(self, sql: str) -> None:
        if self.plan.should_fail(sql):
            raise sqlite3.OperationalError(self.plan.message)

    def execute(self, sql: str, *args):
        self._check(sql)
        return self._connection.execute(sql, *args)

    def executemany(self, sql: str, *args):
        self._check(sql)
        return self._connection.executemany(sql, *args)

    def executescript(self, script: str):
        self._check(script)
        return self._connection.executescript(script)
