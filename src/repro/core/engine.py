"""The BluePrint run-time engine (paper, sections 3.1–3.2).

The engine owns the FIFO event queue of Figure 1 and processes each event
with the paper's algorithm:

    When the BluePrint receives an event X which is targeted at an OID Y
    ... The run-time engine starts by finding the target OID Y in the
    meta-database, and the corresponding view and run-time rules in the
    BluePrint.  [1] Any run-time rules with assign actions are then
    executed and [2] all continuous assignments of the OID are
    reevaluated.  [3] The next step consists in invoking the scripts
    which are listed in the exec run-time rules.  [4] Finally, the
    run-time rules which post new events are executed.  Having executed
    all three types of run-time rules, [5] the run-time engine can
    proceed in propagating the event X as well as any new event which was
    posted by a post-type run-time rule.

Design decisions documented in DESIGN.md:

* Within one wave an OID processes a given event *name* at most once
  (cycle protection; guarantees termination on arbitrary link graphs).
* A ``post EVENT dir`` action (no ``to``) propagates from the current OID
  without re-processing it; ``post EVENT dir to VIEW`` delivers to the
  nearest linked OIDs of that view (fallback: the latest version of the
  same block in that view).
* Exec failures are recorded, never allowed to abort the wave.
"""

from __future__ import annotations

import shlex
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

from repro.core.blueprint import Blueprint
from repro.core.events import EventMessage, EventQueue
from repro.core.expressions import Value, interpolate
from repro.core.lang.ast import ExecAction, PostAction
from repro.metadb.database import MetaDatabase
from repro.metadb.links import Direction
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID


class EngineError(RuntimeError):
    """Raised in strict mode for unknown targets or runaway waves."""


@dataclass
class ExecRequest:
    """One wrapper-program invocation requested by an exec rule."""

    script: str
    args: list[str]
    oid: OID
    event: EventMessage

    def command_line(self) -> str:
        """The request as a copy-pasteable shell line.

        Arguments are escaped with :func:`shlex.quote`, so embedded
        quotes, backslashes and whitespace survive a real shell.
        """
        return " ".join(shlex.quote(token) for token in [self.script, *self.args])


#: Executor signature: run the wrapper, return anything (recorded).
Executor = Callable[[ExecRequest], object]
#: Notifier signature: deliver a message to users.
Notifier = Callable[[str], None]


@dataclass
class EngineMetrics:
    """Counters the analysis layer and benchmarks read."""

    events_posted: int = 0
    waves: int = 0
    deliveries: int = 0
    propagation_hops: int = 0
    rules_fired: int = 0
    assigns: int = 0
    lets_evaluated: int = 0
    execs: int = 0
    exec_failures: int = 0
    notifies: int = 0
    posts: int = 0
    unknown_targets: int = 0
    untracked_views: int = 0
    max_wave_deliveries: int = 0
    per_event: dict[str, int] = field(default_factory=dict)

    def count_event(self, name: str) -> None:
        self.per_event[name] = self.per_event.get(name, 0) + 1

    def snapshot(self) -> dict[str, int]:
        data = {
            key: value
            for key, value in self.__dict__.items()
            if isinstance(value, int)
        }
        return data


@dataclass
class TraceRecord:
    """One trace line: what the engine did and where."""

    seq: int
    kind: str  # deliver / assign / let / exec / notify / post / propagate / skip
    oid: OID | None
    event: str
    detail: str = ""

    def __str__(self) -> str:
        where = self.oid.dotted() if self.oid is not None else "-"
        return f"[{self.seq:>5}] {self.kind:<9} {where:<28} {self.event:<12} {self.detail}"


class EvalEnvironment:
    """Expression environment: event builtins over OID properties.

    Builtins (section 3.2's "built-in environment variable[s]"): ``$oid``
    and ``$OID`` (the target, dotted), ``$block`` / ``$view`` /
    ``$version``, ``$arg``, ``$user``, ``$event`` and ``$date`` (logical
    database clock — deterministic runs beat wall-clock realism here).
    Everything else resolves against the target OID's properties.
    """

    def __init__(
        self, engine: "BlueprintEngine", obj: MetaObject, event: EventMessage
    ) -> None:
        self._obj = obj
        self._builtins: dict[str, Value] = {
            "oid": obj.oid.dotted(),
            "OID": obj.oid.dotted(),
            "block": obj.oid.block,
            "view": obj.oid.view,
            "version": obj.oid.version,
            "arg": event.arg,
            "user": event.user,
            "event": event.name,
            "date": f"t{engine.db.clock}",
        }

    def lookup(self, name: str) -> Value | None:
        if name in self._builtins:
            return self._builtins[name]
        return self._obj.properties.get(name)


@dataclass
class _Delivery:
    """One pending delivery inside a wave."""

    target: OID
    event: EventMessage
    process: bool  # False for propagate-only origins (post without 'to')


def _null_executor(request: ExecRequest) -> object:
    """Default executor: record-only (the engine logs the request)."""
    return None


class BlueprintEngine:
    """Event-driven run-time engine bound to one database and blueprint."""

    def __init__(
        self,
        db: MetaDatabase,
        blueprint: Blueprint,
        *,
        executor: Executor | None = None,
        notifier: Notifier | None = None,
        strict: bool = False,
        auto_link: bool = True,
        max_wave_deliveries: int = 100_000,
        trace_limit: int = 10_000,
    ) -> None:
        self.db = db
        self.blueprint = blueprint
        self.queue = EventQueue()
        self.metrics = EngineMetrics()
        self.executor: Executor = executor or _null_executor
        self.notifier: Notifier | None = notifier
        self.strict = strict
        self.auto_link = auto_link
        self.max_wave_deliveries = max_wave_deliveries
        #: Ring of the last *trace_limit* records (0 disables tracing).
        self.trace: deque[TraceRecord] = deque(maxlen=max(trace_limit, 0))
        self.trace_limit = trace_limit
        self.notifications: list[str] = []
        self.exec_log: list[ExecRequest] = []
        self._trace_seq = 0
        self._running = False
        self._attach_hooks()

    @classmethod
    def from_saved(
        cls,
        path,
        blueprint: Blueprint,
        *,
        backend: str | None = None,
        lazy: bool = False,
        blocks: set[str] | None = None,
        views: set[str] | None = None,
        **kwargs,
    ) -> "BlueprintEngine":
        """An engine over a previously persisted meta-database.

        *path* dispatches on suffix to the JSON or SQLite backend unless
        *backend* names one; the loaded database arrives fully indexed,
        so the engine's hot paths (adjacency, stale set) are warm from
        the first event.

        ``lazy=True`` (SQLite only) serves events against a
        demand-faulting database: a wave over one subsystem faults in
        just the shards it touches, and *blocks* / *views* bound the
        faultable window, so the engine's footprint is O(window) even
        over a hundred-thousand-object project.
        """
        from repro.metadb.persistence import load_database

        db, _registry = load_database(
            path, backend=backend, lazy=lazy, blocks=blocks, views=views
        )
        return cls(db, blueprint, **kwargs)

    # ------------------------------------------------------------------
    # hooks / blueprint swapping
    # ------------------------------------------------------------------

    def _attach_hooks(self) -> None:
        # Closures read self.blueprint at call time so swap_blueprint()
        # re-initialises behaviour without re-registering hooks.
        def object_hook(obj: MetaObject) -> None:
            self.blueprint.apply_object_template(self.db, obj, auto_link=self.auto_link)

        def link_hook(link) -> None:
            self.blueprint.apply_link_template(link)

        self.db.on_object_created(object_hook)
        self.db.on_link_created(link_hook)

    def swap_blueprint(self, blueprint: Blueprint) -> None:
        """Re-initialise with a new blueprint (new phase of the project).

        Pending queued events are processed under the new rules, which is
        what re-reading the ASCII file on a live server did.
        """
        self.blueprint = blueprint

    def attach_governor(self, governor) -> None:
        """Bind a :class:`~repro.core.policy.GovernedPolicy` to the engine.

        The governor owns the active policy document and swaps this
        engine's blueprint on every activation/rollback; attaching it
        here lets engine-side consumers (the tool scheduler, wrappers)
        route permission checks through the same audited, fail-closed
        evaluator the network bus uses.
        """
        self.governor = governor

    def check_tool(self, tool: str, inputs: list) -> object:
        """Audited tool-permission check against the attached governor.

        With no governor attached this *grants* — standalone engines
        (tests, notebooks) keep their historical behaviour; fail-closed
        applies once governance is wired in, and then every decision
        lands in the governor's audit log.
        """
        governor = getattr(self, "governor", None)
        if governor is None:
            from repro.core.policy import Decision

            return Decision(granted=True)
        return governor.check_tool(self.db, tool, inputs)

    def on_stale_change(self, listener: Callable[[OID, bool], None]) -> None:
        """Register *listener(oid, is_stale)* on stale-set transitions.

        Convenience passthrough to the database's incremental stale set:
        the project server subscribes here so a wave re-bucketing an
        object pushes a notification the moment the property flips.
        """
        self.db.on_stale_change(listener)

    # ------------------------------------------------------------------
    # posting
    # ------------------------------------------------------------------

    def post(
        self,
        name: str,
        target: OID | str,
        direction: Direction | str = Direction.DOWN,
        arg: str = "",
        user: str = "",
    ) -> EventMessage:
        """Build, stamp and enqueue an event; returns the queued message."""
        target = OID.parse(target) if isinstance(target, str) else target
        direction = (
            Direction.parse(direction) if isinstance(direction, str) else direction
        )
        event = EventMessage(
            name=name, direction=direction, target=target, arg=arg, user=user
        )
        return self.post_message(event)

    def post_message(self, event: EventMessage) -> EventMessage:
        stamped = self.queue.post(event)
        self.metrics.events_posted += 1
        return stamped

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process one queued event (one wave); False when queue empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        self._wave(event)
        return True

    def run(self, max_events: int | None = None) -> int:
        """Process queued events FIFO until empty (or *max_events*).

        Re-entrant calls (a wrapper invoked by an exec rule checks data in
        and its transport calls ``run`` again) return immediately: the
        outer loop drains the queue, preserving strict FIFO wave order.
        """
        if self._running:
            return 0
        self._running = True
        processed = 0
        try:
            while self.queue:
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
        finally:
            self._running = False
        return processed

    # ------------------------------------------------------------------
    # wave machinery
    # ------------------------------------------------------------------

    def _wave(self, root: EventMessage) -> None:
        self.metrics.waves += 1
        self.metrics.count_event(root.name)
        # The visited key includes the direction: a rule may legitimately
        # post the same event name both up and down from one OID (the
        # bidirectional-hierarchy pattern), and each orientation is its
        # own sub-wave.  Keys are finite, so termination still holds.
        visited: set[tuple[OID, str, Direction]] = set()
        pending: deque[_Delivery] = deque(
            [_Delivery(target=root.target, event=root, process=True)]
        )
        wave_deliveries = 0
        while pending:
            delivery = pending.popleft()
            key = (delivery.target, delivery.event.name, delivery.event.direction)
            if key in visited:
                continue
            visited.add(key)
            wave_deliveries += 1
            if wave_deliveries > self.max_wave_deliveries:
                message = (
                    f"wave for {root} exceeded {self.max_wave_deliveries} "
                    f"deliveries; aborting (check PROPAGATE lists for storms)"
                )
                self._record("abort", None, root.name, message)
                if self.strict:
                    raise EngineError(message)
                break
            if delivery.process:
                pending.extend(self._deliver(delivery.target, delivery.event))
            else:
                self._record(
                    "origin", delivery.target, delivery.event.name, "propagate-only"
                )
            # step 5: propagate across qualifying links
            if self.db.find(delivery.target) is None:
                continue
            for link, other in self.db.neighbours(
                delivery.target, delivery.event.direction
            ):
                if not link.allows(delivery.event.name):
                    continue
                self.metrics.propagation_hops += 1
                self._record(
                    "propagate",
                    other,
                    delivery.event.name,
                    f"via link {link.link_id} from {delivery.target.dotted()}",
                )
                pending.append(
                    _Delivery(
                        target=other,
                        event=delivery.event.retargeted(other),
                        process=True,
                    )
                )
        self.metrics.max_wave_deliveries = max(
            self.metrics.max_wave_deliveries, wave_deliveries
        )

    def _deliver(self, target: OID, event: EventMessage) -> list[_Delivery]:
        """Steps 1–4 of the algorithm at one OID; returns new deliveries."""
        self.metrics.deliveries += 1
        obj = self.db.find(target)
        if obj is None:
            self.metrics.unknown_targets += 1
            self._record("skip", target, event.name, "unknown target OID")
            if self.strict:
                raise EngineError(f"event {event} targets unknown OID {target}")
            return []
        view = self.blueprint.effective(obj.view)
        if view is None:
            self.metrics.untracked_views += 1
            self._record("skip", target, event.name, f"view {obj.view!r} untracked")
            return []
        self._record("deliver", target, event.name, event.arg)
        env = EvalEnvironment(self, obj, event)
        # The dispatch table pre-partitions the matching rules' actions into
        # the three phases, so no per-delivery isinstance scan over rules.
        dispatch = view.dispatch(event.name)
        self.metrics.rules_fired += len(dispatch.rules)

        # step 1: assign actions of every matching rule
        for action in dispatch.assigns:
            value = action.value.evaluate(env)
            obj.set(action.name, value)
            self.metrics.assigns += 1
            self._record(
                "assign", target, event.name, f"{action.name} = {value!r}"
            )

        # step 2: re-evaluate all continuous assignments of the OID
        for let_name, expr in obj.continuous.items():
            value = expr.evaluate(env)
            obj.set(let_name, value)
            self.metrics.lets_evaluated += 1
            self._record("let", target, event.name, f"{let_name} = {value!r}")

        # step 3: invoke scripts (exec and notify are both script-phase)
        for action in dispatch.scripts:
            if isinstance(action, ExecAction):
                self._execute(action, obj, event, env)
            else:
                message = interpolate(action.message, env)
                self.notifications.append(message)
                self.metrics.notifies += 1
                self._record("notify", target, event.name, message)
                if self.notifier is not None:
                    self.notifier(message)

        # step 4: post new events
        new_deliveries: list[_Delivery] = []
        for action in dispatch.posts:
            new_deliveries.extend(self._post_action(action, obj, event, env))
        return new_deliveries

    def _execute(
        self,
        action: ExecAction,
        obj: MetaObject,
        event: EventMessage,
        env: EvalEnvironment,
    ) -> None:
        request = ExecRequest(
            script=action.script,
            args=[interpolate(arg, env) for arg in action.args],
            oid=obj.oid,
            event=event,
        )
        self.exec_log.append(request)
        self.metrics.execs += 1
        self._record("exec", obj.oid, event.name, request.command_line())
        try:
            self.executor(request)
        except Exception as exc:  # a failing tool must not kill the wave
            self.metrics.exec_failures += 1
            self._record(
                "execfail", obj.oid, event.name, f"{request.script}: {exc}"
            )

    def _post_action(
        self,
        action: PostAction,
        obj: MetaObject,
        event: EventMessage,
        env: EvalEnvironment,
    ) -> list[_Delivery]:
        arg = interpolate(action.arg, env) if action.arg is not None else ""
        new_event = EventMessage(
            name=action.event,
            direction=action.direction,
            target=obj.oid,
            arg=arg,
            user=event.user,
            seq=event.seq,
        )
        self.metrics.posts += 1
        if action.to_view is None:
            # "directly propagated from the current OID": the origin does
            # not re-process the event, it only fans it out
            self._record("post", obj.oid, action.event, f"{action.direction} (fan-out)")
            return [_Delivery(target=obj.oid, event=new_event, process=False)]
        targets = self._resolve_post_targets(obj.oid, action)
        if not targets:
            self._record(
                "post", obj.oid, action.event, f"to {action.to_view}: no target found"
            )
            return []
        deliveries = []
        for target in targets:
            self._record(
                "post", target, action.event, f"to view {action.to_view}"
            )
            deliveries.append(
                _Delivery(
                    target=target, event=new_event.retargeted(target), process=True
                )
            )
        return deliveries

    def _resolve_post_targets(self, origin: OID, action: PostAction) -> list[OID]:
        """Nearest linked OIDs of ``action.to_view`` in the post direction.

        The breadth-first search crosses links regardless of PROPAGATE —
        this is an explicit, administrator-written post, not passive
        propagation.  Expansion stops at matches (nearest wins).  When the
        graph yields nothing, fall back to the latest version of the same
        block in the named view.
        """
        matches: list[OID] = []
        seen: set[OID] = {origin}
        frontier: deque[OID] = deque([origin])
        while frontier and not matches:
            next_frontier: list[OID] = []
            while frontier:
                here = frontier.popleft()
                for _link, other in self.db.neighbours(here, action.direction):
                    if other in seen:
                        continue
                    seen.add(other)
                    if other.view == action.to_view:
                        matches.append(other)
                    else:
                        next_frontier.append(other)
            frontier.extend(next_frontier)
        if matches:
            return sorted(matches)
        fallback = self.db.latest_version(origin.block, action.to_view)
        if fallback is not None:
            return [fallback.oid]
        return []

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def _record(self, kind: str, oid: OID | None, event: str, detail: str) -> None:
        if self.trace_limit <= 0:
            return
        self._trace_seq += 1
        self.trace.append(TraceRecord(self._trace_seq, kind, oid, event, detail))

    def trace_text(self, last: int | None = None) -> str:
        records = self.trace
        if last is not None:
            records = islice(records, max(len(records) - last, 0), None)
        return "\n".join(str(record) for record in records)
