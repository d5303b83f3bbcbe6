"""SQLite persistence backend with persisted indexes and partial load.

Where the JSON backend writes one blob and rebuilds everything on load,
this backend normalises the meta-database into relational tables and
persists the secondary-index structure as SQL indexes:

* ``objects(block, view, version, ...)`` — indexed by block and by view
  (the on-disk image of the in-memory by_block / by_view indexes);
* ``properties(block, view, version, name, value, value_type)`` — one row
  per property, indexed on ``(name, value)`` so an on-disk "all stale
  layout views" query is an index seek, not a file parse;
* ``links(...)`` — indexed by source and dest (the adjacency index);
* ``configurations(...)`` — registry snapshots as JSON columns.

That normalisation is what enables **partial load**
(:meth:`SqliteBackend.load_partial`): a project with a hundred thousand
objects can materialise just the blocks or views a tool run touches,
with links restricted to the loaded subgraph — the base for the sharding
work the roadmap names.

Property values are stored as ``(value_type, text)`` pairs so booleans,
ints, floats and strings round-trip losslessly through SQL ``TEXT``.

Saving a database back to the file it was loaded from (or last saved
to) is an incremental write-back of what changed since (see
:mod:`repro.metadb.store`); any other save is a full rewrite into a
temporary file that atomically replaces the target, so a crash
mid-save leaves the old file intact.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from pathlib import Path
from typing import Callable

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError
from repro.metadb.oid import OID
from repro.metadb.persistence import replace_durably
from repro.metadb.store import (
    DEFAULT_CACHE_LINEAGES,
    FORMAT_VERSION,
    LINK_COLUMNS,
    LazySqliteStore,
    _decode_value,
    link_fields,
    window_clause,
    write_rows,
)

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE objects (
    block          TEXT NOT NULL,
    view           TEXT NOT NULL,
    version        INTEGER NOT NULL,
    created_seq    INTEGER NOT NULL,
    checked_out_by TEXT,
    PRIMARY KEY (block, view, version)
);
CREATE INDEX idx_objects_block ON objects(block);
CREATE INDEX idx_objects_view  ON objects(view);
CREATE TABLE properties (
    block      TEXT NOT NULL,
    view       TEXT NOT NULL,
    version    INTEGER NOT NULL,
    name       TEXT NOT NULL,
    value      TEXT NOT NULL,
    value_type TEXT NOT NULL,
    PRIMARY KEY (block, view, version, name)
);
CREATE INDEX idx_properties_name_value ON properties(name, value);
CREATE TABLE links (
    id         INTEGER PRIMARY KEY,
    src_block  TEXT NOT NULL,
    src_view   TEXT NOT NULL,
    src_version INTEGER NOT NULL,
    dst_block  TEXT NOT NULL,
    dst_view   TEXT NOT NULL,
    dst_version INTEGER NOT NULL,
    class      TEXT NOT NULL,
    propagates TEXT NOT NULL,
    type       TEXT,
    move       INTEGER NOT NULL
);
CREATE INDEX idx_links_source ON links(src_block, src_view, src_version);
CREATE INDEX idx_links_dest   ON links(dst_block, dst_view, dst_version);
CREATE TABLE configurations (
    name          TEXT PRIMARY KEY,
    description   TEXT NOT NULL,
    created_clock INTEGER NOT NULL,
    oids          TEXT NOT NULL,
    link_ids      TEXT NOT NULL
);
"""


class SqliteBackend:
    """The SQLite store (see module docstring)."""

    name = "sqlite"
    suffixes = (".sqlite", ".sqlite3", ".db")

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------

    def save(
        self,
        db: MetaDatabase,
        path: Path | str,
        registry: ConfigurationRegistry | None = None,
    ) -> Path:
        path = Path(path)
        store = db.store
        if store.writes_back_to(path):
            # Saving back to the file the store mirrors is an incremental
            # write-back of the dirty rows, not a full rewrite (which, for
            # a lazy store, would first fault the whole database in).
            store.flush(registry)
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.unlink(missing_ok=True)  # a previous crash's leftover
        try:
            with closing(sqlite3.connect(tmp)) as connection:
                connection.executescript(_SCHEMA)
                write_rows(connection, db, registry, full=True)
            replace_durably(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if not store.lazy:
            store.synced(path)
        return path

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load(self, path: Path | str) -> tuple[MetaDatabase, ConfigurationRegistry]:
        """Load the full database (indexes rebuild via normal mutators).

        The loaded database remembers *path*: saving it back there
        writes only what changed since.
        """
        db, registry = self.load_partial(path)
        db.store.synced(Path(path))
        return db, registry

    def load_partial(
        self,
        path: Path | str,
        *,
        blocks: set[str] | None = None,
        views: set[str] | None = None,
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        """Load a subset of the database.

        *blocks* / *views* restrict the objects materialised (None = all);
        only links whose **both** endpoints made it in are loaded, and
        configurations are intersected with the loaded subgraph.  With no
        restriction this is a full load, byte-identical (via
        ``database_to_dict``) to what the JSON backend reconstructs.
        """
        path = Path(path)
        if not path.exists():
            raise PersistenceError(f"no database file at {path}")
        connection = sqlite3.connect(path)
        try:
            return self._load(connection, blocks=blocks, views=views)
        except sqlite3.DatabaseError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc
        finally:
            connection.close()

    def _load(
        self,
        connection: sqlite3.Connection,
        *,
        blocks: set[str] | None,
        views: set[str] | None,
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        meta = _read_meta(connection)
        db = MetaDatabase(name=meta.get("name", "project"))

        clause, params = window_clause(blocks, views)
        where = f" WHERE {clause}" if clause else ""
        rows = connection.execute(
            "SELECT block, view, version, created_seq, checked_out_by "
            f"FROM objects{where} ORDER BY block, view, version",
            params,
        ).fetchall()
        for block, view, version, created_seq, checked_out_by in rows:
            obj = db.create_object(OID(block, view, version), fire_hooks=False)
            obj.created_seq = created_seq
            obj.checked_out_by = checked_out_by
        prop_rows = connection.execute(
            "SELECT block, view, version, name, value, value_type "
            f"FROM properties{where}",
            params,
        ).fetchall()
        for block, view, version, name, text, value_type in prop_rows:
            obj = db.find(OID(block, view, version))
            if obj is not None:
                obj.set(name, _decode_value(value_type, text))

        for row in connection.execute(
            f"SELECT {LINK_COLUMNS} FROM links ORDER BY id"
        ).fetchall():
            fields = link_fields(row)
            if fields["source"] not in db or fields["dest"] not in db:
                continue  # endpoint outside the partial-load window
            # Keep the stored id: incremental write-back addresses rows by it.
            db._next_link_id = fields.pop("link_id")
            db.add_link(**fields, fire_hooks=False)

        registry = _load_configurations(
            connection, db, db.__contains__, db._links.__contains__
        )
        # Restore the persisted counters (see ``save``); ``max`` guards
        # files written before they were stored and partial loads whose
        # replayed mutations already advanced past the stored values.
        db._seq = max(db._seq, int(meta.get("clock", 0)))
        db._next_link_id = max(db._next_link_id, int(meta.get("next_link_id", 1)))
        db.wal_seq = int(meta.get("wal_seq", 0))
        return db, registry

    # ------------------------------------------------------------------
    # lazy open
    # ------------------------------------------------------------------

    def open_lazy(
        self,
        path: Path | str,
        *,
        blocks: set[str] | None = None,
        views: set[str] | None = None,
        cache_lineages: int = DEFAULT_CACHE_LINEAGES,
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        """A demand-faulting database over *path* (O(window) footprint).

        Nothing is materialised up front: objects, properties and link
        adjacency fault in on first touch, sharded by ``(block, view)``,
        and volume queries answer for the non-resident remainder by SQL
        pushdown.  *blocks* / *views* restrict the faultable window with
        the same semantics as :meth:`load_partial` (links need both
        endpoints inside); *cache_lineages* bounds resident clean shards
        (LRU).  Mutations write back on ``db.flush()`` / ``db.close()``
        or a ``save_database`` to the same path.
        """
        path = Path(path)
        store = LazySqliteStore(
            path, blocks=blocks, views=views, cache_lineages=cache_lineages
        )
        try:
            return self._open_lazy(store)
        except Exception:
            store._closed = True  # release the connection, skip the flush
            store._connection.close()
            raise

    def _open_lazy(
        self, store: LazySqliteStore
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        path = store.path
        try:
            connection = store._connection
            meta = _read_meta(connection)
            db = MetaDatabase(name=meta.get("name", "project"), store=store)
            if "clock" in meta:
                db._seq = int(meta["clock"])
            else:  # pre-fix file: never stamp below an existing object
                (max_seq,) = connection.execute(
                    "SELECT COALESCE(MAX(created_seq), 0) FROM objects"
                ).fetchone()
                db._seq = max_seq
            if "next_link_id" in meta:
                db._next_link_id = int(meta["next_link_id"])
            else:  # pre-fix file: never reuse an existing link id
                (max_id,) = connection.execute(
                    "SELECT COALESCE(MAX(id), 0) FROM links"
                ).fetchone()
                db._next_link_id = max_id + 1
            db.wal_seq = int(meta.get("wal_seq", 0))
            registry = self._load_configurations_lazy(connection, db, store)
            return db, registry
        except sqlite3.DatabaseError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc

    @staticmethod
    def _load_configurations_lazy(
        connection: sqlite3.Connection,
        db: MetaDatabase,
        store: LazySqliteStore,
    ) -> ConfigurationRegistry:
        """Configurations load eagerly (they are lightweight address
        sets) but membership checks go through the store's no-fault
        existence probe so a big configuration cannot page the window
        full at open time."""
        link_window: dict[int, bool] = {}
        if store.blocks is not None or store.views is not None:
            for row in connection.execute(
                "SELECT id, src_block, src_view, dst_block, dst_view FROM links"
            ):
                link_window[row[0]] = store._in_window(
                    row[1], row[2]
                ) and store._in_window(row[3], row[4])
        return _load_configurations(
            connection, db, store.has_object, lambda i: link_window.get(i, True)
        )


def _read_meta(connection: sqlite3.Connection) -> dict[str, str]:
    meta = dict(connection.execute("SELECT key, value FROM meta"))
    if meta.get("format") != str(FORMAT_VERSION):
        raise PersistenceError(
            f"unsupported format version {meta.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return meta


def _load_configurations(
    connection: sqlite3.Connection,
    db: MetaDatabase,
    has_oid: Callable[[OID], bool],
    has_link: Callable[[int], bool],
) -> ConfigurationRegistry:
    """The stored configurations, each intersected with what *db* holds."""
    registry = ConfigurationRegistry(db)
    for name, description, created_clock, oids, link_ids in connection.execute(
        "SELECT name, description, created_clock, oids, link_ids "
        "FROM configurations ORDER BY name"
    ).fetchall():
        registry.save(
            Configuration(
                name=name,
                description=description,
                oids=frozenset(filter(has_oid, map(OID.parse, json.loads(oids)))),
                link_ids=frozenset(filter(has_link, json.loads(link_ids))),
                created_clock=created_clock,
            )
        )
    return registry
