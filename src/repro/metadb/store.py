"""Object stores: the residency layer underneath :class:`MetaDatabase`.

The database's mutators and indexes were written against five plain
dicts (objects, links, outgoing/incoming adjacency, lineages).  This
module turns that implicit contract into the **ObjectStore protocol**:

* :class:`InMemoryStore` — the default; adopts the database's plain
  dicts untouched, so the eager path keeps today's semantics;
* :class:`LazySqliteStore` — a demand-faulting store over the SQLite
  backend's normalised tables.  Objects, properties and link adjacency
  are *faulted in on first touch* from the on-disk SQL indexes, in
  shards keyed by ``(block, view)`` — one lineage at a time — so a
  change wave over one subsystem never pages in the rest of the chip.

Faulting invariants (the pushdown layer and the equivalence tests both
lean on these):

1. **Residency is all-or-nothing per lineage.**  A lineage is either
   fully resident (every version, with properties, indexed) or fully
   on disk.  ``_resident`` is the single source of truth.
2. **Memory is authoritative for resident lineages; SQL for the rest.**
   Dirty shards are pinned (never evicted before :meth:`flush`), so a
   non-resident lineage's disk rows are always current.  This is what
   lets :class:`~repro.metadb.indexes.IndexRegistry` answer
   ``by_property`` / ``stale`` / ``latest`` for non-resident objects by
   pushing the lookup down to SQL and unioning with the resident
   indexes.
3. **The observer channel reports logical transitions only.**  Faulting
   a stale object in (or evicting one) moves it between the SQL side
   and the resident side of the stale set without changing the logical
   set, so stale listeners do *not* fire for residency changes — only
   for real property flips.
4. **Full scans pin.**  Iterating ``db.objects()`` (or ``force_scan``
   queries, or ``check_integrity``) materialises everything and
   disables eviction for the rest of the session; the LRU window
   applies to index/pushdown-served workloads, which is where the
   O(window) footprint matters.

Write-back is dirty-tracking for both stores.  Each store carries a
:class:`DirtySet` that the database's mutators report into (object
create/remove, property changes, check-out via ``touch``, link
create/remove/retarget), and :func:`write_rows` replaces just those
rows — plus the ``meta`` bookkeeping: logical clock, next link id,
journal watermark — in one SQL transaction, so a checkpoint costs what
changed, not what exists.  The lazy store writes back to the file it
faults from; the eager store to the SQLite file it was loaded from or
last fully saved to (``InMemoryStore.path``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.metadb.errors import PersistenceError
from repro.metadb.links import Link, LinkClass
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.properties import PropertyChange, Value
from repro.testing.faults import crash_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.metadb.configurations import ConfigurationRegistry
    from repro.metadb.database import MetaDatabase

#: Default bound on concurrently resident lineages in a lazy store.
DEFAULT_CACHE_LINEAGES = 1024

#: The SQLite file format (``meta.format``); loaders refuse others.
FORMAT_VERSION = 1


@runtime_checkable
class ObjectStore(Protocol):
    """What sits between a :class:`MetaDatabase` and its five dicts.

    ``bind`` is called once from ``MetaDatabase.__post_init__``; a lazy
    store replaces the database's maps with faulting views and installs
    itself as the index registry's pushdown provider.  ``dirty`` is the
    write-notification channel the database's mutators report into;
    ``flush`` writes it back to the SQLite file at ``path`` (when
    ``writes_back_to`` that file) and ``close`` releases the store.
    """

    name: str
    lazy: bool
    dirty: "DirtySet"
    path: Path | None

    def bind(self, db: "MetaDatabase") -> None: ...

    def writes_back_to(self, path: Path) -> bool: ...

    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None: ...

    def close(self) -> None: ...


class DirtySet:
    """What changed since a store last matched its SQLite file.

    ``objects`` holds OIDs whose rows are replaced whole (created,
    removed or checked out); ``props`` maps other OIDs to the value each
    changed property had before its first change (``None``: absent), so
    a write-back rewrites only the property rows whose value really
    differs from the disk — a view staled and re-checked-in between two
    checkpoints writes nothing.  ``links`` are links to rewrite,
    ``deleted_links`` links whose rows must go.  An inactive set (an
    eager database with no SQLite file yet) records nothing.
    ``rows_written`` counts the rows every save and write-back so far
    wrote (the ``checkpoint_rows`` gauge).
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.objects: set[OID] = set()
        self.props: dict[OID, dict[str, Value | None]] = {}
        self.links: set[int] = set()
        self.deleted_links: set[int] = set()
        self.rows_written = 0

    def object(self, oid: OID) -> None:
        if self.active:
            self.objects.add(oid)

    def prop(self, oid: OID, change: PropertyChange) -> None:
        if self.active:
            olds = self.props.get(oid)
            if olds is None:
                self.props[oid] = {change.name: change.old}
            elif change.name not in olds:
                olds[change.name] = change.old

    def link(self, link_id: int) -> None:
        if self.active:
            self.links.add(link_id)
            self.deleted_links.discard(link_id)

    def unlink(self, link_id: int) -> None:
        if self.active:
            self.links.discard(link_id)
            self.deleted_links.add(link_id)

    def lineages(self) -> set[tuple[str, str]]:
        """Lineages holding dirt (a lazy store pins them)."""
        return {oid.lineage for oid in (*self.objects, *self.props)}

    def clear(self) -> None:
        self.objects.clear()
        self.props.clear()
        self.links.clear()
        self.deleted_links.clear()


def write_rows(
    connection: sqlite3.Connection,
    db: "MetaDatabase",
    registry: "ConfigurationRegistry | None" = None,
    *,
    full: bool = False,
) -> None:
    """Write *db* into an SQLite meta-database in one transaction.

    ``full`` inserts every object and link (a save into a freshly
    created file); otherwise only the rows ``db.store.dirty`` names are
    replaced, and the dirty set is cleared once the transaction
    commits.  The ``meta`` rows travel in the same transaction as the
    data: the journal watermark (``wal_seq``) must never claim coverage
    the rows do not have, and the logical clock and link-id counter are
    database state a reload must not regress or reuse.  Configurations
    are rewritten when *registry* is given.
    """
    dirty = db.store.dirty
    property_rows: list[tuple] = []  # inserted, or upserted over a stale row
    drops: list[tuple] = []
    if full:
        objs = sorted(db.objects(), key=lambda obj: obj.oid.sort_key())
        links = sorted(db.links(), key=lambda link: link.link_id)
    else:
        # Raw dict reads: a lazy store pins dirty shards, so nothing
        # here may fault (a miss is a removal, not a non-resident row).
        oids = sorted(dirty.objects, key=OID.sort_key)
        objs = [dict.get(db._objects, oid) for oid in oids]
        objs = [obj for obj in objs if obj is not None]
        links = [dict.get(db._links, i) for i in sorted(dirty.links)]
        links = [link for link in links if link is not None]
        for oid, olds in dirty.props.items():
            obj = dict.get(db._objects, oid)
            if obj is None or oid in dirty.objects:
                continue  # rewritten whole (or removed) above
            for name, old in olds.items():
                new = obj.properties.get(name)
                if new is None:
                    if old is not None:
                        drops.append((*oid.sort_key(), name))
                elif old is None or _encode_value(new) != _encode_value(old):
                    property_rows.append((*oid.sort_key(), name, *_encode_row(new)))
    object_rows = []
    for obj in objs:
        key = obj.oid.sort_key()
        object_rows.append((*key, obj.created_seq, obj.checked_out_by))
        for name, value in sorted(obj.properties.items()):
            property_rows.append((*key, name, *_encode_row(value)))
    link_rows = [
        (
            link.link_id,
            link.source.block, link.source.view, link.source.version,
            link.dest.block, link.dest.view, link.dest.version,
            link.link_class.value,
            json.dumps(sorted(link.propagates)),
            link.link_type,
            1 if link.move else 0,
        )
        for link in links
    ]
    config_rows = [
        (
            config.name,
            config.description,
            config.created_clock,
            json.dumps(sorted(oid.wire() for oid in config.oids)),
            json.dumps(sorted(config.link_ids)),
        )
        for config in map(registry.get, registry.names())
    ] if registry is not None else []
    with connection:
        if not full:
            keys = [oid.sort_key() for oid in oids]
            for table in ("objects", "properties"):
                connection.executemany(
                    f"DELETE FROM {table} "
                    "WHERE block = ? AND view = ? AND version = ?",
                    keys,
                )
            connection.executemany(
                "DELETE FROM properties "
                "WHERE block = ? AND view = ? AND version = ? AND name = ?",
                drops,
            )
            connection.executemany(
                "DELETE FROM links WHERE id = ?",
                [(i,) for i in sorted(dirty.links | dirty.deleted_links)],
            )
        connection.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            [
                ("format", str(FORMAT_VERSION)),
                ("name", db.name),
                ("clock", str(db.clock)),
                ("next_link_id", str(db._next_link_id)),
                ("wal_seq", str(db.wal_seq)),
            ],
        )
        connection.executemany(
            "INSERT INTO objects VALUES (?, ?, ?, ?, ?)", object_rows
        )
        connection.executemany(
            "INSERT INTO properties VALUES (?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(block, view, version, name) DO UPDATE SET "
            "value = excluded.value, value_type = excluded.value_type",
            property_rows,
        )
        connection.executemany(
            "INSERT INTO links VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", link_rows
        )
        if registry is not None:
            connection.execute("DELETE FROM configurations")
            connection.executemany(
                "INSERT INTO configurations VALUES (?, ?, ?, ?, ?)", config_rows
            )
        crash_point("mid-checkpoint-write")
    if not full:
        dirty.clear()
    dirty.rows_written += sum(
        map(len, (object_rows, property_rows, drops, link_rows, config_rows))
    )


#: The ``links`` columns :func:`link_fields` decodes, in order.
LINK_COLUMNS = (
    "id, src_block, src_view, src_version, "
    "dst_block, dst_view, dst_version, class, propagates, type, move"
)


def link_fields(row: tuple) -> dict:
    """A ``links`` row as :class:`Link` keyword arguments."""
    (link_id, sb, sv, sn, tb, tv, tn, link_class, propagates, link_type,
     move) = row
    return dict(
        link_id=link_id,
        source=OID(sb, sv, sn),
        dest=OID(tb, tv, tn),
        link_class=LinkClass(link_class),
        propagates=set(json.loads(propagates)),
        link_type=link_type,
        move=bool(move),
    )


def window_clause(
    blocks: Iterable[str] | None, views: Iterable[str] | None
) -> tuple[str, list[str]]:
    """SQL condition (and parameters) restricting rows to a shard window."""
    clauses: list[str] = []
    params: list[str] = []
    for column, names in (("block", blocks), ("view", views)):
        if names is not None:
            clauses.append(f"{column} IN ({', '.join('?' for _ in names)})")
            params.extend(sorted(names))
    return " AND ".join(clauses), params


def _file_stamp(path: Path) -> tuple[int, int, int] | None:
    stat = os.stat(path) if os.path.exists(path) else None
    return stat and (stat.st_ino, stat.st_size, stat.st_mtime_ns)


class InMemoryStore:
    """The default store: the database's own dicts, unchanged.

    ``bind`` adopts the dicts as they are.  The store's only state is
    the :class:`DirtySet` of mutations since the database last matched
    ``path`` — the SQLite file it was loaded from or last fully saved
    to — so a save back to that file writes only what changed.  The
    file's stamp (inode, size, mtime) is remembered after every write:
    if anything else rewrote the file since, :meth:`writes_back_to`
    refuses and the save falls back to a full rewrite.
    """

    name = "memory"
    lazy = False

    def __init__(self) -> None:
        self.dirty = DirtySet(active=False)
        self.path: Path | None = None
        self._stamp: tuple[int, int, int] | None = None

    def bind(self, db: "MetaDatabase") -> None:
        self.db = db

    def synced(self, path: Path) -> None:
        """The database now matches the SQLite file *path* exactly."""
        self.path = Path(path)
        self.dirty.clear()
        self.dirty.active = True
        self._stamp = _file_stamp(self.path)

    def writes_back_to(self, path: Path) -> bool:
        return (
            self._stamp is not None
            and _file_stamp(path) == self._stamp
            and os.path.samefile(path, self.path)
        )

    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None:
        """Write the dirty rows back to ``path`` (no-op without one)."""
        if self.path is None:
            return
        with closing(sqlite3.connect(self.path)) as connection:
            write_rows(connection, self.db, registry)
        self._stamp = _file_stamp(self.path)

    def close(self) -> None:
        pass


class _FaultingMap(dict):
    """A dict that faults missing entries in from a backing store.

    Lookup misses call *fault_key* (which admits the entry via raw
    ``dict.__setitem__`` if it exists on disk); whole-map operations
    (iteration, ``items``/``keys``/``values``) call *fault_all* first.
    ``__len__`` reports the *logical* size via *length* when given —
    resident plus on-disk — without materialising anything.

    Insertions through the normal mapping protocol invoke *on_set* so
    the store can track residency; the store's own fault path writes
    through ``dict.__setitem__`` and therefore never re-enters it.
    """

    def __init__(
        self,
        fault_key: Callable[[object], None],
        fault_all: Callable[[], None],
        length: Callable[[], int] | None = None,
        on_set: Callable[[object, object], None] | None = None,
    ) -> None:
        super().__init__()
        self._fault_key = fault_key
        self._fault_all = fault_all
        self._length = length
        self._on_set = on_set

    # -- lookups fault --------------------------------------------------

    def __missing__(self, key):
        self._fault_key(key)
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        if dict.__contains__(self, key):
            return True
        self._fault_key(key)
        return dict.__contains__(self, key)

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def setdefault(self, key, default=None):
        if key in self:  # faulting containment
            return dict.__getitem__(self, key)
        self[key] = default
        return default

    def pop(self, key, *default):
        if key in self:  # faulting containment
            value = dict.__getitem__(self, key)
            del self[key]
            return value
        if default:
            return default[0]
        raise KeyError(key)

    # -- mutations notify ------------------------------------------------

    def __setitem__(self, key, value) -> None:
        if self._on_set is not None:
            self._on_set(key, value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        if key not in self:  # faulting containment
            raise KeyError(key)
        dict.__delitem__(self, key)

    # -- whole-map operations materialise -------------------------------

    def __iter__(self):
        self._fault_all()
        return dict.__iter__(self)

    def keys(self):
        self._fault_all()
        return dict.keys(self)

    def values(self):
        self._fault_all()
        return dict.values(self)

    def items(self):
        self._fault_all()
        return dict.items(self)

    def __len__(self) -> int:
        if self._length is not None:
            return self._length()
        return dict.__len__(self)

    def resident_len(self) -> int:
        """Entries actually in memory (the faulted window)."""
        return dict.__len__(self)


def _encode_value(value: Value) -> tuple[str, str]:
    """(value_type, text) encoding shared with the SQLite backend."""
    if isinstance(value, bool):
        return ("bool", "true" if value else "false")
    if isinstance(value, int):
        return ("int", str(value))
    if isinstance(value, float):
        return ("float", repr(value))
    return ("str", value)


def _encode_row(value: Value) -> tuple[str, str]:
    """(text, value_type): the column order of a ``properties`` row."""
    value_type, text = _encode_value(value)
    return text, value_type


def _decode_value(value_type: str, text: str) -> Value:
    if value_type == "bool":
        return text == "true"
    if value_type == "int":
        return int(text)
    if value_type == "float":
        return float(text)
    if value_type == "str":
        return text
    raise PersistenceError(f"unknown property value type {value_type!r}")


def equal_encodings(value: Value) -> list[tuple[str, str]]:
    """Every on-disk ``(value_type, text)`` encoding that compares equal
    to *value* under Python ``==`` — the query layer's equality.

    The property index buckets by Python equality (``0 == False``,
    ``1 == 1.0``), so a SQL pushdown for ``uptodate == False`` must
    match bool ``false``, int ``0`` and float ``0.0`` rows alike, or it
    would return fewer candidates than the resident index does.
    """
    encodings = [_encode_value(value)]
    if isinstance(value, bool) or (
        isinstance(value, (int, float)) and value in (0, 1)
    ):
        flag = bool(value)
        encodings = [
            ("bool", "true" if flag else "false"),
            ("int", "1" if flag else "0"),
            ("float", repr(1.0 if flag else 0.0)),
        ]
    elif isinstance(value, int):
        encodings.append(("float", repr(float(value))))
    elif isinstance(value, float) and value.is_integer():
        encodings.append(("int", str(int(value))))
    return encodings


def _locked(method):
    """Serialise a LazySqliteStore method on the store's I/O lock.

    Faults mutate the residency bookkeeping *and* read the (single,
    shared) sqlite connection; the project server triggers them from
    concurrent handler threads.  The lock is re-entrant so faults may
    nest (fault-all → fault-lineage).
    """
    import functools

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._io_lock:
            return method(self, *args, **kwargs)

    return wrapper


class LazySqliteStore:
    """Demand-faulting store over a SQLite meta-database file.

    Parameters:
        path: the ``.sqlite`` file written by the SQLite backend.
        blocks / views: optional shard window.  When given, only
            lineages inside the window are faultable — everything else
            behaves as absent, exactly like the eager
            ``SqliteBackend.load_partial`` semantics (links need both
            endpoints inside the window).
        cache_lineages: LRU bound on resident *clean* lineages.  Dirty
            shards are pinned until :meth:`flush`; a full scan pins
            everything (see module docstring).
    """

    name = "lazy-sqlite"
    lazy = True

    def __init__(
        self,
        path: Path | str,
        *,
        blocks: Iterable[str] | None = None,
        views: Iterable[str] | None = None,
        cache_lineages: int = DEFAULT_CACHE_LINEAGES,
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(f"no database file at {self.path}")
        self.blocks = frozenset(blocks) if blocks is not None else None
        self.views = frozenset(views) if views is not None else None
        self.cache_lineages = cache_lineages
        # The project server faults from its handler threads; sqlite
        # connections are thread-bound unless told otherwise, and all
        # store I/O (plus the residency bookkeeping around it) is
        # serialised by _io_lock instead.
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._io_lock = threading.RLock()
        self.db: "MetaDatabase | None" = None
        self._closed = False
        # residency / dirt -------------------------------------------------
        self._resident: dict[tuple[str, str], None] = {}  # insertion = LRU order
        self.dirty = DirtySet()
        self._adj_resident: set[OID] = set()
        self._disk_link_ids_loaded: set[int] = set()
        self._all_objects = False
        self._all_links = False
        # counters (exposed via stats() for benchmarks/diagnostics) --------
        self.faults = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------

    def bind(self, db: "MetaDatabase") -> None:
        self.db = db
        self._objects = _FaultingMap(
            lambda key: self._fault_lineage(key.lineage)
            if isinstance(key, OID)
            else None,
            self._fault_all_objects,
            length=self._object_count,
        )
        self._lineages = _FaultingMap(
            self._fault_lineage,
            self._fault_all_objects,
            length=self._lineage_count,
            on_set=self._lineage_set,
        )
        self._links = _FaultingMap(
            self._fault_link, self._fault_all_links, length=self._link_count
        )
        self._outgoing = _FaultingMap(self._fault_adjacency, self._fault_all_links)
        self._incoming = _FaultingMap(self._fault_adjacency, self._fault_all_links)
        db._objects = self._objects
        db._lineages = self._lineages
        db._links = self._links
        db._outgoing = self._outgoing
        db._incoming = self._incoming
        db._indexes.pushdown = self

    # ------------------------------------------------------------------
    # window helpers
    # ------------------------------------------------------------------

    def _in_window(self, block: str, view: str) -> bool:
        if self.blocks is not None and block not in self.blocks:
            return False
        if self.views is not None and view not in self.views:
            return False
        return True

    def _lineage_set(self, lineage: tuple[str, str], versions) -> None:
        # A created object's lineage becomes resident (pinned by its dirt).
        if lineage not in self._resident:
            self._resident[lineage] = None

    def writes_back_to(self, path: Path) -> bool:
        return path.exists() and path.resolve() == self.path.resolve()

    # ------------------------------------------------------------------
    # faulting
    # ------------------------------------------------------------------

    def _require_open(self) -> sqlite3.Connection:
        if self._closed:
            raise PersistenceError(f"lazy store over {self.path} is closed")
        return self._connection

    @_locked
    def _fault_lineage(self, lineage: tuple[str, str]) -> None:
        if lineage in self._resident:
            return
        block, view = lineage
        if not isinstance(block, str) or not isinstance(view, str):
            return  # malformed probe key; nothing on disk to fault
        if not self._in_window(block, view):
            return
        connection = self._require_open()
        rows = connection.execute(
            "SELECT version, created_seq, checked_out_by FROM objects "
            "WHERE block = ? AND view = ? ORDER BY version",
            (block, view),
        ).fetchall()
        if not rows:
            return
        self.faults += 1
        self._resident[lineage] = None
        versions = [row[0] for row in rows]
        dict.__setitem__(self._lineages, lineage, versions)
        props: dict[int, list[tuple[str, str, str]]] = {}
        for version, name, text, value_type in connection.execute(
            "SELECT version, name, value, value_type FROM properties "
            "WHERE block = ? AND view = ? ORDER BY version, name",
            (block, view),
        ):
            props.setdefault(version, []).append((name, text, value_type))
        admitted: list[MetaObject] = []
        for version, created_seq, checked_out_by in rows:
            obj = MetaObject(oid=OID(block, view, version), created_seq=created_seq)
            for name, text, value_type in props.get(version, ()):
                obj.properties.set(name, _decode_value(value_type, text))
            obj.checked_out_by = checked_out_by
            dict.__setitem__(self._objects, obj.oid, obj)
            admitted.append(obj)
        for obj in admitted:
            # Progressive latest (the version itself, ascending), exactly
            # like eager creation order: handing every call the final
            # head would make _set_latest early-return on the head's own
            # admission and skip its stale evaluation.
            self.db._index_faulted(obj, obj.oid.version)
        self._maybe_evict(protect=lineage)

    @_locked
    def _fault_all_objects(self) -> None:
        if self._all_objects:
            return
        self._all_objects = True  # set first: faulting must not re-enter
        clause, params = window_clause(self.blocks, self.views)
        where = f" WHERE {clause}" if clause else ""
        lineages = self._require_open().execute(
            f"SELECT DISTINCT block, view FROM objects{where}", params
        ).fetchall()
        for block, view in lineages:
            self._fault_lineage((block, view))

    def _admit_link_row(self, row) -> Link | None:
        """Materialise one disk link row; None when outside the window,
        deleted this session, or superseded by a resident instance."""
        link_id = row[0]
        if link_id in self.dirty.deleted_links:
            return None
        if dict.__contains__(self._links, link_id):
            return dict.__getitem__(self._links, link_id)
        if not (self._in_window(row[1], row[2]) and self._in_window(row[4], row[5])):
            return None
        link = Link(**link_fields(row))
        dict.__setitem__(self._links, link_id, link)
        self._disk_link_ids_loaded.add(link_id)
        return link

    @_locked
    def _fault_link(self, link_id: int) -> None:
        if not isinstance(link_id, int) or link_id in self.dirty.deleted_links:
            return
        row = self._require_open().execute(
            f"SELECT {LINK_COLUMNS} FROM links WHERE id = ?", (link_id,)
        ).fetchone()
        if row is not None:
            self._admit_link_row(row)

    @_locked
    def _fault_adjacency(self, oid: OID) -> None:
        if oid in self._adj_resident or not isinstance(oid, OID):
            return
        if not self._in_window(oid.block, oid.view):
            return
        self._adj_resident.add(oid)
        connection = self._require_open()
        out_ids: set[int] = set()
        in_ids: set[int] = set()
        rows = connection.execute(
            f"SELECT {LINK_COLUMNS} FROM links "
            "WHERE (src_block = ? AND src_view = ? AND src_version = ?) "
            "OR (dst_block = ? AND dst_view = ? AND dst_version = ?)",
            (oid.block, oid.view, oid.version) * 2,
        ).fetchall()
        for row in rows:
            link = self._admit_link_row(row)
            if link is None:
                continue
            # Membership follows the live endpoints, not the disk row: a
            # resident link may have been retargeted since it was saved.
            if link.source == oid:
                out_ids.add(link.link_id)
            if link.dest == oid:
                in_ids.add(link.link_id)
        # Dirty links may have no disk row yet (created or retargeted
        # since the last flush): recover membership from the residents.
        for link_id in self.dirty.links:
            link = dict.get(self._links, link_id)
            if link is None:
                continue
            if link.source == oid:
                out_ids.add(link_id)
            if link.dest == oid:
                in_ids.add(link_id)
        dict.__setitem__(self._outgoing, oid, out_ids)
        dict.__setitem__(self._incoming, oid, in_ids)

    @_locked
    def _fault_all_links(self) -> None:
        if self._all_links:
            return
        self._all_links = True
        for row in self._require_open().execute(
            f"SELECT {LINK_COLUMNS} FROM links ORDER BY id"
        ):
            link = self._admit_link_row(row)
            if link is None:
                continue
            self._fault_adjacency(link.source)
            self._fault_adjacency(link.dest)
            # Post-fault links (created this session) already maintain
            # their endpoints' sets; disk links admitted here must too.
            dict.setdefault(self._outgoing, link.source, set()).add(link.link_id)
            dict.setdefault(self._incoming, link.dest, set()).add(link.link_id)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def _maybe_evict(self, protect: tuple[str, str] | None = None) -> None:
        if self._all_objects or self.db is None or self.db._txn_log is not None:
            return
        if len(self._resident) <= self.cache_lineages:
            return
        pinned = self.dirty.lineages()
        for lineage in list(self._resident):
            if len(self._resident) <= self.cache_lineages:
                break
            if lineage in pinned:
                continue  # dirty shards are pinned until flush
            if lineage == protect:
                # Never evict the shard being faulted in right now: its
                # caller has not read the admitted objects yet (with
                # every older shard dirty, it would otherwise be the
                # next clean victim and the fault would yield nothing).
                continue
            self._evict(lineage)

    def _evict(self, lineage: tuple[str, str]) -> None:
        versions = dict.get(self._lineages, lineage, [])
        objs = []
        for version in versions:
            oid = OID(lineage[0], lineage[1], version)
            obj = dict.get(self._objects, oid)
            if obj is not None:
                objs.append(obj)
        self.db._evict_shard(objs)
        for obj in objs:
            dict.__delitem__(self._objects, obj.oid)
            self._evict_adjacency(obj.oid)
        if dict.__contains__(self._lineages, lineage):
            dict.__delitem__(self._lineages, lineage)
        del self._resident[lineage]
        self.evictions += 1

    def _evict_adjacency(self, oid: OID) -> None:
        """Page out *oid*'s adjacency entries and any clean incident
        links, so link-dense workloads stay O(window) too.

        Dirty and deleted links are pinned (their disk rows are stale);
        a clean link is disk-backed by definition, so dropping it is
        safe even while the other endpoint's adjacency set still names
        its id — ``_links`` refaults individual links by id on access.
        """
        self._adj_resident.discard(oid)
        out_ids = dict.pop(self._outgoing, oid, None) or set()
        in_ids = dict.pop(self._incoming, oid, None) or set()
        for link_id in out_ids | in_ids:
            if link_id in self.dirty.links or link_id in self.dirty.deleted_links:
                continue
            if dict.__contains__(self._links, link_id):
                dict.__delitem__(self._links, link_id)
                self._disk_link_ids_loaded.discard(link_id)

    # ------------------------------------------------------------------
    # logical sizes
    # ------------------------------------------------------------------

    @_locked
    def _disk_lineage_sizes(self) -> dict[tuple[str, str], int]:
        clause, params = window_clause(self.blocks, self.views)
        where = f" WHERE {clause}" if clause else ""
        return {
            (block, view): count
            for block, view, count in self._require_open().execute(
                f"SELECT block, view, COUNT(*) FROM objects{where} "
                "GROUP BY block, view",
                params,
            )
        }

    def _object_count(self) -> int:
        count = dict.__len__(self._objects)
        for lineage, size in self._disk_lineage_sizes().items():
            if lineage not in self._resident:
                count += size
        return count

    def _lineage_count(self) -> int:
        count = dict.__len__(self._lineages)
        for lineage in self._disk_lineage_sizes():
            if lineage not in self._resident:
                count += 1
        return count

    @_locked
    def _link_count(self) -> int:
        if self.blocks is None and self.views is None:
            (disk_total,) = self._require_open().execute(
                "SELECT COUNT(*) FROM links"
            ).fetchone()
        else:
            disk_total = 0
            for row in self._require_open().execute(
                f"SELECT {LINK_COLUMNS} FROM links"
            ):
                if self._in_window(row[1], row[2]) and self._in_window(row[4], row[5]):
                    disk_total += 1
        return dict.__len__(self._links) + disk_total - len(
            self._disk_link_ids_loaded
        )

    # ------------------------------------------------------------------
    # pushdown lookups (IndexRegistry's non-resident half)
    # ------------------------------------------------------------------
    #
    # Every pushdown excludes resident lineages in Python: memory is
    # authoritative there (invariant 2), and dirty state must never be
    # shadowed by stale disk rows.

    def _non_resident(self, rows: Iterable[tuple[str, str, int]]) -> set[OID]:
        return {
            OID(block, view, version)
            for block, view, version in rows
            if (block, view) not in self._resident
            and self._in_window(block, view)
        }

    @_locked
    def property_oids(self, name: str, value: Value) -> set[OID]:
        """Non-resident OIDs whose property *name* Python-equals *value*."""
        if self._all_objects:
            return set()
        encodings = equal_encodings(value)
        match = " OR ".join("(value_type = ? AND value = ?)" for _ in encodings)
        params: list[str] = [name]
        for value_type, text in encodings:
            params.extend((value_type, text))
        rows = self._require_open().execute(
            "SELECT block, view, version FROM properties "
            f"WHERE name = ? AND ({match})",
            params,
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def property_values(self, name: str) -> set[Value]:
        """Distinct on-disk values of property *name* (window-filtered)."""
        if self._all_objects:
            return set()
        clause, params = window_clause(self.blocks, self.views)
        where = f" AND {clause}" if clause else ""
        return {
            _decode_value(value_type, text)
            for text, value_type in self._require_open().execute(
                "SELECT DISTINCT value, value_type FROM properties "
                f"WHERE name = ?{where}",
                [name, *params],
            )
        }

    @_locked
    def view_oids(self, view: str) -> set[OID]:
        if self._all_objects:
            return set()
        rows = self._require_open().execute(
            "SELECT block, view, version FROM objects WHERE view = ?", (view,)
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def block_oids(self, block: str) -> set[OID]:
        if self._all_objects:
            return set()
        rows = self._require_open().execute(
            "SELECT block, view, version FROM objects WHERE block = ?", (block,)
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def latest_oids(self) -> set[OID]:
        """Non-resident lineage heads."""
        if self._all_objects:
            return set()
        clause, params = window_clause(self.blocks, self.views)
        where = f" WHERE {clause}" if clause else ""
        rows = self._require_open().execute(
            f"SELECT block, view, MAX(version) FROM objects{where} "
            "GROUP BY block, view",
            params,
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def stale_oids(self, stale_property: str) -> set[OID]:
        """Non-resident lineage heads whose stale property equals False."""
        if self._all_objects:
            return set()
        encodings = equal_encodings(False)
        match = " OR ".join(
            "(p.value_type = ? AND p.value = ?)" for _ in encodings
        )
        params: list[str] = [stale_property]
        for value_type, text in encodings:
            params.extend((value_type, text))
        rows = self._require_open().execute(
            "SELECT o.block, o.view, o.version FROM objects o "
            "JOIN (SELECT block, view, MAX(version) AS version FROM objects "
            "      GROUP BY block, view) m "
            "ON o.block = m.block AND o.view = m.view AND o.version = m.version "
            "JOIN properties p ON p.block = o.block AND p.view = o.view "
            "AND p.version = o.version "
            f"WHERE p.name = ? AND ({match})",
            params,
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def blocks_of_view(self, view: str) -> set[str]:
        if self._all_objects:
            return set()
        return {
            block
            for (block,) in self._require_open().execute(
                "SELECT DISTINCT block FROM objects WHERE view = ?", (view,)
            )
            if self._in_window(block, view)
        }

    @_locked
    def views_of_block(self, block: str) -> set[str]:
        if self._all_objects:
            return set()
        return {
            view
            for (view,) in self._require_open().execute(
                "SELECT DISTINCT view FROM objects WHERE block = ?", (block,)
            )
            if self._in_window(block, view)
        }

    @_locked
    def has_object(self, oid: OID) -> bool:
        """Existence check that does not fault (configuration loading)."""
        if dict.__contains__(self._objects, oid):
            return True
        if oid.lineage in self._resident or not self._in_window(oid.block, oid.view):
            return False
        row = self._require_open().execute(
            "SELECT 1 FROM objects WHERE block = ? AND view = ? AND version = ?",
            (oid.block, oid.view, oid.version),
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------

    @_locked
    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None:
        """Write dirty shards, links and bookkeeping back to the file.

        One SQL transaction (:func:`write_rows`); clean shards are
        untouched.
        """
        if self.blocks is not None or self.views is not None:
            # A windowed session only ever saw window-intersected
            # configurations; rewriting the table from them would
            # silently strip every out-of-window member.  Leave the
            # stored configurations untouched.
            registry = None
        # The disk will mirror every flushed link; account it as loaded.
        flushed = {i for i in self.dirty.links if dict.__contains__(self._links, i)}
        deleted = set(self.dirty.deleted_links)
        write_rows(self._require_open(), self.db, registry)
        self._disk_link_ids_loaded |= flushed
        self._disk_link_ids_loaded -= deleted

    @_locked
    def close(self) -> None:
        """Flush and release the connection.  Idempotent."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._connection.close()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "resident_objects": self._objects.resident_len(),
            "resident_lineages": len(self._resident),
            "resident_links": self._links.resident_len(),
            "dirty_lineages": len(self.dirty.lineages()),
            "faults": self.faults,
            "evictions": self.evictions,
        }
