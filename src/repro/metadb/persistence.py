"""Persistence for the meta-database: backend protocol + JSON backend.

The 1995 DAMOCLES server kept its meta-database in a proprietary store;
we persist through a small backend protocol so projects can pick the
store that fits their scale:

* :class:`JsonBackend` — a single documented JSON file; human-diffable,
  version-controllable test fixtures (the original seed format);
* :class:`~repro.metadb.sqlite_store.SqliteBackend` — a SQLite database
  that also persists the secondary indexes (as SQL indexes over a
  properties table) and supports *partial load* of selected blocks/views.

``save_database`` / ``load_database`` stay the one-call entry points:
they dispatch on the path suffix (``.json`` → JSON; ``.sqlite`` /
``.sqlite3`` / ``.db`` → SQLite) unless an explicit ``backend=`` name is
given.  The JSON format is versioned; loading an unknown version fails
loudly rather than guessing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID

FORMAT_VERSION = 1


def database_to_dict(
    db: MetaDatabase, registry: ConfigurationRegistry | None = None
) -> dict:
    """Serialise *db* (and optionally its configurations) to plain data."""
    objects = []
    for obj in sorted(db.objects(), key=lambda o: o.oid.sort_key()):
        objects.append(
            {
                "oid": obj.oid.wire(),
                "properties": obj.properties.as_dict(),
                "created_seq": obj.created_seq,
                "checked_out_by": obj.checked_out_by,
            }
        )
    links = []
    for link in sorted(db.links(), key=lambda l: l.link_id):
        links.append(
            {
                "id": link.link_id,
                "source": link.source.wire(),
                "dest": link.dest.wire(),
                "class": link.link_class.value,
                "propagates": sorted(link.propagates),
                "type": link.link_type,
                "move": link.move,
            }
        )
    configurations = []
    if registry is not None:
        for name in registry.names():
            config = registry.get(name)
            configurations.append(
                {
                    "name": config.name,
                    "description": config.description,
                    "oids": sorted(oid.wire() for oid in config.oids),
                    "link_ids": sorted(config.link_ids),
                    "created_clock": config.created_clock,
                }
            )
    return {
        "format": FORMAT_VERSION,
        "name": db.name,
        # Counters that are database state, not derivable from the rows:
        # dropping them on a round-trip reused link ids after deletions
        # and regressed the logical clock configurations compare by.
        "clock": db.clock,
        "next_link_id": db._next_link_id,
        "wal_seq": db.wal_seq,
        "objects": objects,
        "links": links,
        "configurations": configurations,
    }


def database_from_dict(
    data: dict,
) -> tuple[MetaDatabase, ConfigurationRegistry]:
    """Rebuild a database (and configuration registry) from plain data.

    Creation hooks do **not** fire during a load: the stored state already
    reflects every template application, so re-firing would double-apply
    blueprint rules.  Secondary indexes rebuild as a side effect of the
    normal mutators, so a loaded database is fully indexed.
    """
    if not isinstance(data, dict):
        raise PersistenceError("database file must contain a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {data.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    db = MetaDatabase(name=data.get("name", "project"))
    try:
        for record in data["objects"]:
            obj = db.create_object(
                OID.parse(record["oid"]),
                record.get("properties") or {},
                fire_hooks=False,
            )
            obj.created_seq = record.get("created_seq", obj.created_seq)
            obj.checked_out_by = record.get("checked_out_by")
        id_map: dict[int, int] = {}
        for record in data["links"]:
            link = db.add_link(
                OID.parse(record["source"]),
                OID.parse(record["dest"]),
                LinkClass(record["class"]),
                propagates=record.get("propagates", ()),
                link_type=record.get("type"),
                move=record.get("move", False),
                fire_hooks=False,
            )
            id_map[record["id"]] = link.link_id
        registry = ConfigurationRegistry(db)
        for record in data.get("configurations", ()):
            registry.save(
                Configuration(
                    name=record["name"],
                    description=record.get("description", ""),
                    oids=frozenset(
                        OID.parse(text) for text in record.get("oids", ())
                    ),
                    link_ids=frozenset(
                        id_map[link_id]
                        for link_id in record.get("link_ids", ())
                        if link_id in id_map
                    ),
                    created_clock=record.get("created_clock", 0),
                )
            )
    except KeyError as exc:
        raise PersistenceError(f"missing field in database file: {exc}") from exc
    # Restore persisted counters; ``max`` keeps files from before they
    # were stored (where replayed mutations already advanced them) valid.
    db._seq = max(db._seq, int(data.get("clock", 0)))
    db._next_link_id = max(db._next_link_id, int(data.get("next_link_id", 1)))
    db.wal_seq = int(data.get("wal_seq", 0))
    return db, registry


def replace_durably(tmp: Path, path: Path) -> None:
    """Atomically replace *path* with the finished file *tmp*.

    fsync the data, rename, fsync the directory: a process killed
    mid-save (checkpoint under fault injection, power loss) leaves
    either the old file or the new one, never a truncated half-write.
    """
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        directory = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync; best effort
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


# ---------------------------------------------------------------------------
# backend protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class PersistenceBackend(Protocol):
    """What a meta-database store must provide.

    Backends are stateless: ``save`` writes everything, ``load`` rebuilds
    a fully indexed in-memory database.  Backends with richer capability
    (partial load, persisted indexes) expose it as extra methods; the
    protocol is the lowest common denominator the CLI and workspace rely
    on.
    """

    name: str
    suffixes: tuple[str, ...]

    def save(
        self,
        db: MetaDatabase,
        path: Path | str,
        registry: ConfigurationRegistry | None = None,
    ) -> Path: ...

    def load(
        self, path: Path | str
    ) -> tuple[MetaDatabase, ConfigurationRegistry]: ...


class JsonBackend:
    """The single-JSON-file store (the original seed format)."""

    name = "json"
    suffixes = (".json",)

    def save(
        self,
        db: MetaDatabase,
        path: Path | str,
        registry: ConfigurationRegistry | None = None,
    ) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = database_to_dict(db, registry)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), "utf-8")
        replace_durably(tmp, path)
        return path

    def load(self, path: Path | str) -> tuple[MetaDatabase, ConfigurationRegistry]:
        path = Path(path)
        if not path.exists():
            raise PersistenceError(f"no database file at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc
        return database_from_dict(data)


def _sqlite_backend() -> PersistenceBackend:
    from repro.metadb.sqlite_store import SqliteBackend

    return SqliteBackend()


_BACKEND_FACTORIES: dict[str, Callable[[], PersistenceBackend]] = {
    "json": JsonBackend,
    "sqlite": _sqlite_backend,
}


def register_backend(name: str, factory: Callable[[], PersistenceBackend]) -> None:
    """Register a custom backend under *name* (overrides allowed)."""
    _BACKEND_FACTORIES[name] = factory


def backend_names() -> list[str]:
    return sorted(_BACKEND_FACTORIES)


def get_backend(name: str) -> PersistenceBackend:
    """Instantiate the backend registered under *name*."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise PersistenceError(
            f"unknown persistence backend {name!r} "
            f"(available: {', '.join(backend_names())})"
        ) from None
    return factory()


def backend_for_path(path: Path | str) -> PersistenceBackend:
    """Pick a backend by matching the path suffix against each registered
    backend's declared ``suffixes`` (default: JSON)."""
    suffix = Path(path).suffix.lower()
    for factory in _BACKEND_FACTORIES.values():
        backend = factory()
        if suffix in getattr(backend, "suffixes", ()):
            return backend
    return get_backend("json")


# ---------------------------------------------------------------------------
# one-call entry points
# ---------------------------------------------------------------------------


def save_database(
    db: MetaDatabase,
    path: Path | str,
    registry: ConfigurationRegistry | None = None,
    *,
    backend: str | None = None,
) -> Path:
    """Write *db* to *path*; returns the path written.

    The store format follows the path suffix unless *backend* names one
    explicitly.
    """
    chosen = get_backend(backend) if backend else backend_for_path(path)
    return chosen.save(db, path, registry)


def load_database(
    path: Path | str,
    *,
    backend: str | None = None,
    lazy: bool = False,
    blocks: set[str] | None = None,
    views: set[str] | None = None,
    cache_lineages: int | None = None,
) -> tuple[MetaDatabase, ConfigurationRegistry]:
    """Load a database previously written by :func:`save_database`.

    ``lazy=True`` opens a demand-faulting database over the SQLite
    backend (objects page in on first touch, O(window) footprint)
    instead of materialising everything; *blocks* / *views* restrict the
    shard window either way (lazy faulting window, or eager
    ``load_partial``).  Lazy opens require a backend with ``open_lazy``
    — the SQLite store — and fail loudly otherwise.
    """
    chosen = get_backend(backend) if backend else backend_for_path(path)
    if lazy:
        opener = getattr(chosen, "open_lazy", None)
        if opener is None:
            raise PersistenceError(
                f"backend {chosen.name!r} cannot open lazily "
                "(demand faulting needs the sqlite backend)"
            )
        kwargs: dict = {"blocks": blocks, "views": views}
        if cache_lineages is not None:
            kwargs["cache_lineages"] = cache_lineages
        return opener(path, **kwargs)
    if blocks is not None or views is not None:
        partial = getattr(chosen, "load_partial", None)
        if partial is None:
            raise PersistenceError(
                f"backend {chosen.name!r} cannot load a block/view window"
            )
        return partial(path, blocks=blocks, views=views)
    return chosen.load(path)
