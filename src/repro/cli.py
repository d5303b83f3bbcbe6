"""``damocles`` — the command-line front end.

Subcommands mirror what a 1995 project administrator did at the shell,
plus the modern conveniences (lint, dashboards, journals)::

    damocles check FLOW.bp                 # parse + compile + lint
    damocles format FLOW.bp                # canonical pretty-print
    damocles views FLOW.bp                 # list tracked views & events
    damocles dot FLOW.bp                   # Graphviz flow graph
    damocles status DB.json FLOW.bp        # per-view health table
    damocles pending DB.json FLOW.bp       # what blocks the planned state
    damocles query DB.json BLOCK,VIEW,VER  # one OID's properties
    damocles dashboard DB.json FLOW.bp OUT.html
    damocles replay JOURNAL.jsonl FLOW.bp OUT-DB.json
    damocles convert DB.json DB.sqlite   # cross-backend conversion
    damocles serve DB.json FLOW.bp       # TCP project server (push mode)

``damocles serve`` starts the project server: wrapper scripts post with
the ``postEvent`` console command, designers ``query``/``stale``/
``pending``/``status`` over the same line protocol, and ``subscribe``
turns a connection into a push channel that receives ``STALE <oid>`` /
``FRESH <oid>`` the moment a change wave re-buckets an object.

Database paths dispatch on suffix: ``.json`` uses the JSON backend,
``.sqlite`` / ``.sqlite3`` / ``.db`` the SQLite backend (persisted
indexes, partial load); ``--backend`` overrides the guess wherever a
database is read or written.

Every subcommand is a plain function taking parsed args and returning an
exit code, so tests drive them directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

from repro.core.blueprint import Blueprint
from repro.core.lang.parser import parse_blueprint
from repro.core.lang.printer import print_blueprint
from repro.core.lang.tokens import BlueprintSyntaxError
from repro.core.lint import Severity, lint_blueprint
from repro.core.state import project_status
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, replace_durably, save_database


def _load_blueprint(path: str) -> Blueprint:
    return Blueprint.from_file(path)


def _csv_set(text: str | None) -> set[str] | None:
    if text is None:
        return None
    return {item.strip() for item in text.split(",") if item.strip()}


def _load_db(args: argparse.Namespace):
    """Load the database named by *args*, honouring ``--backend`` and the
    lazy/window options (``--lazy``, ``--blocks``, ``--views``)."""
    return load_database(
        args.database,
        backend=getattr(args, "backend", None),
        lazy=getattr(args, "lazy", False),
        blocks=_csv_set(getattr(args, "blocks", None)),
        views=_csv_set(getattr(args, "views", None)),
    )


#: Governance checkpoint sidecar, kept next to the journal segments.
#: Holds ``{"seq": <watermark>, "policy": <snapshot_payload>}`` so a
#: restart restores the active/pending/previous documents and the audit
#: counters without replaying the whole journal.
POLICY_SIDECAR = "POLICY"


def _write_policy_sidecar(journal_dir: Path, seq: int, policy) -> None:
    """Atomically persist the governance snapshot at watermark *seq*.

    Same tmp + ``os.replace`` + directory-fsync dance as the journal's
    own CHECKPOINT file: a crash mid-write leaves the previous sidecar
    intact, never a torn one.
    """
    tmp = journal_dir / (POLICY_SIDECAR + ".tmp")
    payload = {"seq": seq, "policy": policy.snapshot_payload()}
    tmp.write_text(json.dumps(payload, sort_keys=True), "utf-8")
    replace_durably(tmp, journal_dir / POLICY_SIDECAR)


def _restore_policy_sidecar(journal_dir: Path, policy) -> int:
    """Restore governance state from the sidecar; returns its watermark.

    Fail-closed: a missing sidecar is fine (fresh governance, watermark
    0 — the journal replays any lifecycle entries), but a corrupt one
    marks the policy faulted so the server starts up denying everything
    rather than silently serving under the wrong rules.
    """
    path = journal_dir / POLICY_SIDECAR
    if not path.exists():
        return 0
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        seq = int(payload["seq"])
        snapshot = payload["policy"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        policy.mark_faulted(f"corrupt policy checkpoint: {exc}")
        return 0
    if not policy.restore(snapshot):
        return 0  # restore() already marked the policy faulted
    return seq


def cmd_check(args: argparse.Namespace) -> int:
    """Parse, compile and lint a blueprint; exit 1 on errors."""
    try:
        blueprint = _load_blueprint(args.blueprint)
    except BlueprintSyntaxError as exc:
        print(f"syntax error: {exc}")
        return 1
    findings = lint_blueprint(blueprint)
    for finding in findings:
        print(finding)
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    print(
        f"{blueprint.name}: {len(blueprint.tracked_views())} views, "
        f"{len(findings)} finding(s), {errors} error(s)"
    )
    return 1 if errors else 0


def cmd_format(args: argparse.Namespace) -> int:
    """Pretty-print a blueprint in canonical form (stdout or in place)."""
    try:
        ast = parse_blueprint(Path(args.blueprint).read_text())
    except BlueprintSyntaxError as exc:
        print(f"syntax error: {exc}")
        return 1
    formatted = print_blueprint(ast)
    if args.in_place:
        Path(args.blueprint).write_text(formatted)
        print(f"formatted {args.blueprint}")
    else:
        print(formatted, end="")
    return 0


def cmd_views(args: argparse.Namespace) -> int:
    """List tracked views with their handled events and links."""
    blueprint = _load_blueprint(args.blueprint)
    from repro.viz.ascii_flow import render_flow

    print(render_flow(blueprint))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Emit the Graphviz flow graph of a blueprint."""
    from repro.viz.dot import blueprint_to_dot

    print(blueprint_to_dot(_load_blueprint(args.blueprint)), end="")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Print the per-view health table of a saved database."""
    from repro.viz.ascii_flow import render_status

    db, _registry = _load_db(args)
    blueprint = _load_blueprint(args.blueprint)
    print(render_status(project_status(db, blueprint)))
    return 0


def cmd_pending(args: argparse.Namespace) -> int:
    """Print what still blocks the planned state; exit 1 if anything."""
    from repro.core.state import pending_work
    from repro.viz.ascii_flow import render_pending

    db, _registry = _load_db(args)
    blueprint = _load_blueprint(args.blueprint)
    print(render_pending(db, blueprint))
    return 1 if pending_work(db, blueprint) else 0


def cmd_query(args: argparse.Namespace) -> int:
    """Print one OID's design state."""
    from repro.metadb.properties import value_to_text

    db, _registry = _load_db(args)
    oid = OID.parse(args.oid)
    if getattr(args, "explain", False):
        from repro.metadb.query import Query

        plan = Query(db).block(oid.block).view(oid.view).explain()
        print(f"plan: {plan.describe()}")
    obj = db.find(oid)
    if obj is None:
        print(f"unknown OID {args.oid}")
        return 1
    for name in sorted(obj.properties):
        print(f"{name} = {value_to_text(obj.properties[name])}")
    return 0


def cmd_find(args: argparse.Namespace) -> int:
    """Select OIDs by a blueprint-language expression."""
    from repro.core.expressions import ExpressionError
    from repro.core.state import find_objects_explained

    db, _registry = _load_db(args)
    try:
        matches, plan = find_objects_explained(
            db, args.expression, latest_only=not args.all_versions
        )
    except ExpressionError as exc:
        print(f"bad expression: {exc}")
        return 2
    if getattr(args, "explain", False):
        # Pushdown vs resident-index vs scan, observable without a debugger.
        print(f"plan: {plan.describe()}")
    for obj in matches:
        print(obj.oid.dotted())
    print(f"{len(matches)} match(es)")
    return 0 if matches else 1


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Write the HTML dashboard for a saved database."""
    from repro.viz.html import write_dashboard

    db, _registry = _load_db(args)
    blueprint = _load_blueprint(args.blueprint)
    path = write_dashboard(db, blueprint, args.output)
    print(f"wrote {path}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Rebuild a database from an event journal."""
    from repro.core.journal import Journal, replay

    journal = Journal.load(args.journal)
    blueprint = _load_blueprint(args.blueprint)
    db, _engine = replay(journal, blueprint)
    save_database(db, args.output, backend=getattr(args, "backend", None))
    print(
        f"replayed {len(journal)} entries -> {db.object_count} objects, "
        f"{db.link_count} links -> {args.output}"
    )
    return 0


#: One stop event per running ``damocles serve`` loop: per-invocation
#: events avoid the cross-talk a shared global would have (one serve's
#: startup clearing another's stop signal).
_serve_stops: list[threading.Event] = []


def stop_serving() -> None:
    """Stop every running ``damocles serve`` loop in this process
    without waiting out ``--serve-seconds`` (used by tests and
    embedders; Ctrl-C works too)."""
    for event in list(_serve_stops):
        event.set()


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a database + blueprint over TCP (the project-server mode).

    With ``--journal DIR`` the server is crash-safe: every admitted
    event is fsync'd to a write-ahead journal *before* its wave runs,
    periodic checkpoints persist the database and truncate the covered
    journal tail, and startup replays whatever the last crash left
    past the database's durable watermark (``db.wal_seq``).
    """
    from repro.core.engine import BlueprintEngine
    from repro.network.server import ProjectServer
    from repro.testing.faults import crash_point

    windowed = getattr(args, "blocks", None) or getattr(args, "views", None)
    journal_path = getattr(args, "journal", None)
    if journal_path and windowed:
        # Replayed events may target objects outside the shard window;
        # recovery against a partial database would silently diverge.
        print(
            "damocles: --journal cannot be combined with --blocks/--views "
            "(recovery needs the whole database)"
        )
        return 2

    db, registry = _load_db(args)
    blueprint = _load_blueprint(args.blueprint)
    engine = BlueprintEngine(db, blueprint)

    policy = None
    policy_file = getattr(args, "policy", None)
    if policy_file:
        from repro.core.policy import GovernedPolicy

        # from_file is fail-closed: an unreadable/corrupt document still
        # yields a policy — one marked faulted, denying every write.
        policy = GovernedPolicy.from_file(engine, policy_file)
        if policy.fault_reason is not None:
            print(f"damocles: policy FAULTED ({policy.fault_reason}); "
                  "serving fail-closed until a valid revision activates")

    wal = None
    checkpointer = None
    policy_seq = 0
    if journal_path:
        from repro.network.wal import WriteAheadLog

        wal = WriteAheadLog(journal_path)
        journal_dir = Path(journal_path)
        if (journal_dir / POLICY_SIDECAR).exists():
            # A previous checkpoint's governance state supersedes any
            # --policy seed: the sidecar reflects revisions proposed and
            # approved over the wire since that file was written.
            if policy is None:
                from repro.core.policy import GovernedPolicy

                policy = GovernedPolicy(engine)
            policy_seq = _restore_policy_sidecar(journal_dir, policy)
            if policy.fault_reason is not None:
                print(
                    f"damocles: policy FAULTED ({policy.fault_reason}); "
                    "serving fail-closed until a valid revision activates"
                )

        def checkpointer() -> bool:
            # Ordering is the whole game: capture the watermark, persist
            # the database carrying it, only then truncate the journal.
            # A crash between the save and the truncate re-replays
            # nothing (the saved wal_seq fences replay); a failure
            # leaves the journal intact — never shorter than the DB.
            # The watermark is the bus's APPLIED seq, not wal.last_seq:
            # under group commit an entry can be journaled while its
            # wave is still waiting its turn, and a checkpoint must not
            # claim database coverage for a wave that has not run.
            seq = server.bus.applied_seq
            db.wal_seq = seq
            try:
                # Incremental for a SQLite database (eager or lazy): only
                # what changed since the last checkpoint is written.
                save_database(
                    db, args.database, registry, backend=getattr(args, "backend", None)
                )
                _write_policy_sidecar(
                    Path(journal_path), seq, server.bus.policy
                )
                crash_point("mid-flush")
                wal.checkpoint(seq)
            except Exception as exc:  # noqa: BLE001 — keep serving, keep journal
                print(f"damocles: checkpoint failed ({exc}); journal kept")
                return False
            return True

    stop = threading.Event()
    _serve_stops.append(stop)  # before the port opens: an early stop_serving() must see it
    transport = getattr(args, "transport", "lines") or "lines"
    if transport == "lines":
        server = ProjectServer(
            engine,
            host=args.host,
            port=args.port,
            wal=wal,
            busy_limit=getattr(args, "busy_limit", None),
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpointer=checkpointer,
            policy=policy,
        )
    else:
        # frames/auto: the asyncio server (multiplexed framing with a
        # line compat shim on the same port when transport == "auto").
        from repro.network.async_server import AsyncProjectServer

        server = AsyncProjectServer(
            engine,
            host=args.host,
            port=args.port,
            wal=wal,
            busy_limit=getattr(args, "busy_limit", None),
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpointer=checkpointer,
            transport=transport,
            policy=policy,
        )
    if wal is not None:
        # Replay the tail the last process lost: entries past the
        # database's durable watermark (data) and the policy sidecar's
        # watermark (governance), through the same admission code the
        # wire uses — deny tombstones feed back as forced denials, so
        # governance replays to the exact live decision log.  Runs
        # before the port opens, so clients never observe
        # half-recovered state.
        replayed = server.bus.recover(
            wal.entries_after(min(db.wal_seq, policy_seq)),
            db_watermark=db.wal_seq,
            policy_watermark=policy_seq,
        )
        if replayed or wal.recovered_torn_line:
            torn = " (repaired a torn tail line)" if wal.recovered_torn_line else ""
            print(
                f"damocles: recovered {replayed} journaled event(s) "
                f"past seq {db.wal_seq}{torn}",
                flush=True,
            )
    server.start()
    print(
        f"damocles: serving {blueprint.name!r} "
        f"({db.object_count} objects) on {server.host}:{server.port}",
        flush=True,
    )
    print(
        "commands: postEvent | batch | query OID | stale | pending | "
        "status | health | policy ... | audit | subscribe | ping | quit",
        flush=True,
    )
    try:
        stop.wait(args.serve_seconds)  # None waits until set
    except KeyboardInterrupt:
        pass
    finally:
        _serve_stops.remove(stop)
        server.stop()
    exit_code = 0
    if not args.no_save:
        if windowed and not getattr(args, "lazy", False):
            # An eager partial load holds only the window; saving it back
            # would overwrite DATABASE with the subset and destroy the
            # rest.  Lazy windows are safe: they write back incrementally.
            print(
                "damocles: NOT saving back — --blocks/--views loaded a "
                "partial database (use --lazy for incremental write-back, "
                "or --no-save to silence this)"
            )
        elif wal is not None:
            # A final checkpoint both saves the database and truncates
            # the covered journal.  If the save fails the journal is
            # kept untouched — it still holds every admitted event, so
            # nothing is lost; the next start replays it.
            if server.bus.run_checkpoint():
                print(
                    f"damocles: saved {db.object_count} objects back to "
                    f"{args.database} (journal checkpointed at "
                    f"{wal.checkpoint_seq})"
                )
            else:
                print(
                    "damocles: shutdown save FAILED — journal retained at "
                    f"{journal_path}; restart will recover posted events"
                )
                exit_code = 1
        else:
            # The database IS the project state: events posted over the
            # wire would otherwise be lost the moment the server exits.
            try:
                save_database(
                    db, args.database, registry, backend=getattr(args, "backend", None)
                )
            except Exception as exc:  # noqa: BLE001 — report, don't crash out
                print(f"damocles: shutdown save FAILED ({exc})")
                exit_code = 1
            else:
                print(
                    f"damocles: saved {db.object_count} objects back to {args.database}"
                )
    if wal is not None:
        wal.close()
    return exit_code


def _wire_client(args: argparse.Namespace):
    from repro.network.client import BlueprintClient

    return BlueprintClient(
        host=args.host,
        port=args.port,
        transport=getattr(args, "transport", "lines") or "lines",
    )


def cmd_policy(args: argparse.Namespace) -> int:
    """Governed policy control against a running project server.

    ::

        damocles policy status --port N
        damocles policy propose CLASS OP ARGS... --port N
        damocles policy approve VERSION --port N
        damocles policy rollback --port N

    ``propose`` ops: ``loosen VIEW[,VIEW...]`` | ``require TOOL COND
    [VIEW]`` | ``drop TOOL COND [VIEW]``.  CLASS is the *declared*
    change class (``additive`` or ``breaking``); the server classifies
    the structural diff itself and refuses a mismatch.
    """
    from repro.network.client import ClientError

    action = args.action
    params = list(args.params)
    try:
        with _wire_client(args) as client:
            if action == "status":
                if params:
                    print("damocles: policy status takes no arguments")
                    return 2
                for name, value in client.policy_status().items():
                    print(f"{name} = {value}")
            elif action == "propose":
                if len(params) < 2:
                    print(
                        "damocles: policy propose needs CLASS OP [ARGS...]"
                    )
                    return 2
                print(client.policy_propose(params[0], params[1], *params[2:]))
            elif action == "approve":
                if len(params) != 1:
                    print("damocles: policy approve needs exactly VERSION")
                    return 2
                print(client.policy_approve(params[0]))
            else:  # rollback
                if params:
                    print("damocles: policy rollback takes no arguments")
                    return 2
                print(client.policy_rollback())
    except ClientError as exc:
        print(f"damocles: {exc}")
        return 1
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Print the server's policy decision log tail, oldest first."""
    from repro.core.policy import AuditRecord
    from repro.network.client import ClientError

    try:
        with _wire_client(args) as client:
            records = client.audit(args.limit)
    except ClientError as exc:
        print(f"damocles: {exc}")
        return 1
    for payload in records:
        print(AuditRecord.from_payload(payload).wire())
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert a saved database between persistence backends."""
    db, registry = load_database(args.database, backend=args.from_backend)
    save_database(db, args.output, registry, backend=args.to_backend)
    print(
        f"converted {args.database} -> {args.output} "
        f"({db.object_count} objects, {db.link_count} links)"
    )
    return 0


def _add_backend_option(subparser: argparse.ArgumentParser) -> None:
    from repro.metadb.persistence import backend_names

    subparser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="persistence backend (default: guessed from the path suffix)",
    )


def _add_window_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--lazy", action="store_true",
        help="open the database demand-faulting (sqlite only): objects "
        "page in on first touch, volume queries push down to SQL",
    )
    subparser.add_argument(
        "--blocks", default=None, metavar="A,B,...",
        help="restrict the shard window to these blocks",
    )
    subparser.add_argument(
        "--views", default=None, metavar="X,Y,...",
        help="restrict the shard window to these view types",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="damocles",
        description="DAMOCLES project BluePrint tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="parse + compile + lint")
    check.add_argument("blueprint")
    check.set_defaults(func=cmd_check)

    fmt = subparsers.add_parser("format", help="canonical pretty-print")
    fmt.add_argument("blueprint")
    fmt.add_argument("--in-place", action="store_true")
    fmt.set_defaults(func=cmd_format)

    views = subparsers.add_parser("views", help="list views and rules")
    views.add_argument("blueprint")
    views.set_defaults(func=cmd_views)

    dot = subparsers.add_parser("dot", help="Graphviz flow graph")
    dot.add_argument("blueprint")
    dot.set_defaults(func=cmd_dot)

    status = subparsers.add_parser("status", help="per-view health")
    status.add_argument("database")
    status.add_argument("blueprint")
    status.set_defaults(func=cmd_status)

    pending = subparsers.add_parser("pending", help="pending work list")
    pending.add_argument("database")
    pending.add_argument("blueprint")
    pending.set_defaults(func=cmd_pending)

    query = subparsers.add_parser("query", help="one OID's properties")
    query.add_argument("database")
    query.add_argument("oid", help="BLOCK,VIEW,VERSION")
    query.add_argument(
        "--explain", action="store_true",
        help="print the query plan (sql-pushdown / resident-index / scan)",
    )
    query.set_defaults(func=cmd_query)

    find = subparsers.add_parser(
        "find", help="select OIDs by expression, e.g. '$uptodate == false'"
    )
    find.add_argument("database")
    find.add_argument("expression")
    find.add_argument("--all-versions", action="store_true")
    find.add_argument(
        "--explain", action="store_true",
        help="print the query plan (sql-pushdown / resident-index / scan)",
    )
    find.set_defaults(func=cmd_find)

    dashboard = subparsers.add_parser("dashboard", help="HTML dashboard")
    dashboard.add_argument("database")
    dashboard.add_argument("blueprint")
    dashboard.add_argument("output")
    dashboard.set_defaults(func=cmd_dashboard)

    replay_cmd = subparsers.add_parser("replay", help="rebuild from journal")
    replay_cmd.add_argument("journal")
    replay_cmd.add_argument("blueprint")
    replay_cmd.add_argument("output")
    _add_backend_option(replay_cmd)
    replay_cmd.set_defaults(func=cmd_replay)

    convert = subparsers.add_parser(
        "convert", help="convert a database between persistence backends"
    )
    convert.add_argument("database")
    convert.add_argument("output")
    from repro.metadb.persistence import backend_names

    convert.add_argument(
        "--from-backend", choices=backend_names(), default=None,
        help="source backend (default: guessed from the path suffix)",
    )
    convert.add_argument(
        "--to-backend", choices=backend_names(), default=None,
        help="destination backend (default: guessed from the path suffix)",
    )
    convert.set_defaults(func=cmd_convert)

    serve = subparsers.add_parser(
        "serve",
        help="TCP project server: postEvent/batch posts, stale/pending/"
        "status queries, subscribe for STALE/FRESH push notifications",
        description="Serve a database + blueprint over TCP. Wrapper "
        "scripts post with the postEvent console command (or the batch "
        "form for atomic multi-event posts); designers run query OID, "
        "stale, pending and status over the same line protocol; "
        "subscribe turns a connection into a push channel receiving "
        "STALE <oid> / FRESH <oid> the moment a change wave re-buckets "
        "an object.",
    )
    serve.add_argument("database")
    serve.add_argument("blueprint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: pick a free one and print it)",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="stop after this many seconds (default: run until Ctrl-C)",
    )
    serve.add_argument(
        "--no-save", action="store_true",
        help="do not write posted events back to DATABASE on shutdown",
    )
    serve.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead journal directory: every admitted event is "
        "fsync'd before its wave runs, and startup replays whatever a "
        "crash left past the database's durable watermark",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=256, metavar="N",
        help="checkpoint (save database + truncate journal) after every "
        "N admitted events (default 256; only meaningful with --journal)",
    )
    serve.add_argument(
        "--busy-limit", type=int, default=None, metavar="N",
        help="shed load with 'ERR busy' when the engine queue or the "
        "writer backlog reaches N (default: never)",
    )
    serve.add_argument(
        "--transport", choices=("lines", "frames", "auto"), default="lines",
        help="wire dialect: 'lines' is the classic threaded line-protocol "
        "server; 'frames' is the asyncio frame transport (multiplexed "
        "requests, pipelined group commit, credit-based subscriber "
        "backpressure); 'auto' runs the async server classifying each "
        "connection from its first byte, so both dialects share one "
        "port (default: lines)",
    )
    serve.add_argument(
        "--policy", default=None, metavar="FILE",
        help="versioned policy document (JSON, see PolicyDocument) to "
        "govern event admission and tool permission; unreadable or "
        "corrupt documents serve FAIL-CLOSED (every write denied and "
        "audited) rather than ungoverned.  A POLICY checkpoint sidecar "
        "in --journal DIR supersedes this seed on restart.",
    )
    serve.set_defaults(func=cmd_serve)

    policy_cmd = subparsers.add_parser(
        "policy",
        help="governed policy control against a running server: "
        "status | propose | approve | rollback",
        description="Query and revise the running server's governed "
        "policy.  propose CLASS OP ARGS... submits a revision (ops: "
        "loosen VIEW[,VIEW...] | require TOOL COND [VIEW] | drop TOOL "
        "COND [VIEW]); additive revisions auto-activate, breaking ones "
        "wait for approve VERSION; rollback restores the previous "
        "document's content as a new version.",
    )
    policy_cmd.add_argument(
        "action", choices=("status", "propose", "approve", "rollback")
    )
    policy_cmd.add_argument("params", nargs="*")
    policy_cmd.add_argument("--host", default="127.0.0.1")
    policy_cmd.add_argument("--port", type=int, required=True)
    policy_cmd.add_argument(
        "--transport", choices=("lines", "frames"), default="lines"
    )
    policy_cmd.set_defaults(func=cmd_policy)

    audit_cmd = subparsers.add_parser(
        "audit",
        help="tail of the running server's policy decision log",
        description="Print the policy audit trail (event admissions, "
        "tool checks, lifecycle transitions), oldest first.",
    )
    audit_cmd.add_argument("limit", nargs="?", type=int, default=None)
    audit_cmd.add_argument("--host", default="127.0.0.1")
    audit_cmd.add_argument("--port", type=int, required=True)
    audit_cmd.add_argument(
        "--transport", choices=("lines", "frames"), default="lines"
    )
    audit_cmd.set_defaults(func=cmd_audit)

    for database_command in (status, pending, query, find, dashboard, serve):
        _add_backend_option(database_command)
    # The lazy/window options make the server and the read-side commands
    # O(window) over a large SQLite database (demand faulting).
    for windowed_command in (serve, status, pending, find, query):
        _add_window_options(windowed_command)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.metadb.errors import PersistenceError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PersistenceError as exc:
        print(f"error: {exc}")
        return 1
    except BrokenPipeError:
        # output piped into head/less which closed early — not an error;
        # detach stdout so the interpreter's flush-at-exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
