"""The DAMOCLES meta-database.

The central store of meta-data objects (:class:`~repro.metadb.objects.
MetaObject`), links and configurations, with the indexes the run-time
engine needs for event propagation (links by endpoint) and the version
manager needs for inheritance (versions by lineage).

DAMOCLES is an *observer* system: design activities mutate the database
(create objects, create links) and interested parties — the project
BluePrint above all — subscribe to creation hooks to apply template rules.
The database itself enforces only structural integrity.

Every mutation also maintains the secondary indexes of
:class:`~repro.metadb.indexes.IndexRegistry` (by block, by view, by
property value, latest-version, the incremental stale set and the link
adjacency cache), and mutations performed inside :meth:`MetaDatabase.
transaction` are undone — indexes included — when the block raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.metadb.errors import (
    DuplicateLinkError,
    DuplicateOIDError,
    MetaDBError,
    UnknownLinkError,
    UnknownOIDError,
)
from repro.metadb.indexes import DEFAULT_STALE_PROPERTY, IndexRegistry
from repro.metadb.links import Direction, Link, LinkClass
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.properties import PropertyChange
from repro.metadb.store import InMemoryStore, ObjectStore

ObjectHook = Callable[[MetaObject], None]
LinkHook = Callable[[Link], None]


class TransactionError(MetaDBError):
    """Raised for invalid transaction usage (e.g. nesting)."""


@dataclass
class MetaDatabase:
    """In-memory meta-database with endpoint, lineage and secondary indexes.

    The database assigns a monotonically increasing sequence number to
    every created object and link; the sequence doubles as a logical
    clock for configurations and the analysis layer.
    """

    name: str = "project"
    stale_property: str = DEFAULT_STALE_PROPERTY
    _objects: dict[OID, MetaObject] = field(default_factory=dict)
    _links: dict[int, Link] = field(default_factory=dict)
    _outgoing: dict[OID, set[int]] = field(default_factory=dict)
    _incoming: dict[OID, set[int]] = field(default_factory=dict)
    _lineages: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    _seq: int = 0
    _next_link_id: int = 1
    #: Sequence number of the last write-ahead-log entry whose effects
    #: are durably included in this database's persisted state.  The
    #: project server's recovery replays only journal entries *after*
    #: this watermark, so it must travel with every save/flush (all
    #: backends persist it alongside the clock).
    wal_seq: int = 0
    object_hooks: list[ObjectHook] = field(default_factory=list)
    link_hooks: list[LinkHook] = field(default_factory=list)
    #: The residency layer (see :mod:`repro.metadb.store`).  ``None``
    #: selects the in-memory store, which adopts the dicts above as-is;
    #: a lazy store replaces them with demand-faulting views in ``bind``.
    store: ObjectStore | None = None
    _indexes: IndexRegistry = field(init=False, repr=False)
    _bag_observers: dict[OID, Callable[[PropertyChange], None]] = field(
        init=False, repr=False, default_factory=dict
    )
    _txn_log: list[Callable[[], None]] | None = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        self._indexes = IndexRegistry(stale_property=self.stale_property)
        if self.store is None:
            self.store = InMemoryStore()
        self.store.bind(self)

    @property
    def lazy(self) -> bool:
        """True when objects fault in on demand instead of living in core."""
        return self.store.lazy

    def flush(self, registry=None) -> None:
        """Write dirty state back to the store's SQLite file, if it has one."""
        self.store.flush(registry)

    def close(self) -> None:
        """Flush and release the store's backing resources.  Idempotent."""
        self.store.close()

    # ------------------------------------------------------------------
    # sequence / clock
    # ------------------------------------------------------------------

    @property
    def clock(self) -> int:
        """The current logical time (last assigned sequence number)."""
        return self._seq

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    @property
    def indexes(self) -> IndexRegistry:
        """The secondary-index registry (read-only for callers)."""
        return self._indexes

    def stale_set(self) -> frozenset[OID]:
        """The incrementally maintained stale set: latest versions whose
        stale property (``uptodate`` by default) equals ``False``.

        Under a lazy store this is the union of the resident stale set
        and a SQL pushdown over the non-resident shards — still
        O(result), never a full load.
        """
        if self.lazy:
            return frozenset(self._indexes.stale_full())
        return frozenset(self._indexes.stale)

    def on_stale_change(self, listener: Callable[[OID, bool], None]) -> None:
        """Register *listener(oid, is_stale)* on stale-set transitions.

        The listener fires synchronously from whichever mutation
        re-bucketed the OID — including mid-wave property flips — so the
        network layer can push ``STALE`` / ``FRESH`` notifications
        without polling.
        """
        self._indexes.on_stale_change(listener)

    def remove_stale_listener(
        self, listener: Callable[[OID, bool], None]
    ) -> None:
        self._indexes.remove_stale_listener(listener)

    def _index_object(self, obj: MetaObject) -> None:
        versions = self._lineages[obj.oid.lineage]
        self._indexes.object_added(obj, versions[-1])
        self._subscribe_object(obj)

    def _subscribe_object(self, obj: MetaObject) -> None:
        oid = obj.oid
        mark_dirty = self.store.dirty.prop

        def on_change(change: PropertyChange, _obj: MetaObject = obj) -> None:
            if self._txn_log is not None:
                self._txn_log.append(self._property_undo(_obj, change))
            self._indexes.property_changed(_obj, change)
            mark_dirty(oid, change)

        obj.properties.subscribe(on_change)
        self._bag_observers[oid] = on_change

    def _index_faulted(self, obj: MetaObject, lineage_latest: int) -> None:
        """Index an object the store faulted in from disk.

        Quiet: faulting is a residency change, not a logical one, so
        stale listeners must not fire (module invariant 3 of
        :mod:`repro.metadb.store`).
        """
        self._indexes.object_added(obj, lineage_latest, quiet=True)
        self._subscribe_object(obj)

    def _evict_shard(self, objs: list[MetaObject]) -> None:
        """Un-index an evicted shard — quietly, for the same reason."""
        for obj in objs:
            observer = self._bag_observers.pop(obj.oid, None)
            if observer is not None:
                obj.properties.unsubscribe(observer)
        self._indexes.shard_evicted(objs)

    def touch(self, oid: OID) -> None:
        """Mark *oid* dirty for write-back.

        Property mutations flow through the bag observers automatically;
        this is the escape hatch for direct attribute writes (workspace
        check-out state) that bypass the property channel.
        """
        self.store.dirty.object(oid)

    def _unindex_object(self, obj: MetaObject) -> None:
        observer = self._bag_observers.pop(obj.oid, None)
        if observer is not None:
            obj.properties.unsubscribe(observer)
        versions = self._lineages.get(obj.oid.lineage)
        new_latest = None
        if versions:
            new_latest = self._objects[obj.oid.with_version(versions[-1])]
        self._indexes.object_removed(obj, new_latest)

    def _property_undo(
        self, obj: MetaObject, change: PropertyChange
    ) -> Callable[[], None]:
        def undo() -> None:
            if change.old is None:
                if change.name in obj.properties:
                    obj.properties.delete(change.name)
            else:
                obj.properties.set(change.name, change.old)

        return undo

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["MetaDatabase"]:
        """Group mutations; roll them all back if the block raises.

        Rollback replays inverse operations through the normal mutators,
        so every secondary index stays consistent.  The logical clock and
        link-id counter are *not* rewound (they are monotonic by design).
        Transactions do not nest.
        """
        if self._txn_log is not None:
            raise TransactionError("transactions do not nest")
        self._txn_log = []
        try:
            yield self
        except BaseException:
            log = self._txn_log
            self._txn_log = None  # undo operations must not log themselves
            for undo in reversed(log):
                undo()
            raise
        finally:
            self._txn_log = None

    def _log_undo(self, undo: Callable[[], None]) -> None:
        if self._txn_log is not None:
            self._txn_log.append(undo)

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------

    def create_object(
        self,
        oid: OID | str,
        properties: dict[str, object] | None = None,
        *,
        fire_hooks: bool = True,
    ) -> MetaObject:
        """Create the meta-data object for *oid*.

        Raises :class:`DuplicateOIDError` if the OID already exists.
        Creation hooks run after the object is fully indexed, so hook code
        (blueprint templates) sees a consistent database.
        """
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        if oid in self._objects:
            raise DuplicateOIDError(oid)
        obj = MetaObject(oid=oid, created_seq=self._tick())
        if properties:
            obj.properties.update(properties)
        self._objects[oid] = obj
        self.store.dirty.object(oid)
        versions = self._lineages.setdefault(oid.lineage, [])
        # keep the lineage list sorted; check-ins normally append
        if versions and versions[-1] > oid.version:
            versions.append(oid.version)
            versions.sort()
        else:
            versions.append(oid.version)
        self._index_object(obj)
        self._log_undo(lambda: self.remove_object(oid))
        if fire_hooks:
            for hook in list(self.object_hooks):
                hook(obj)
        return obj

    def get(self, oid: OID | str) -> MetaObject:
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownOIDError(oid) from None

    def find(self, oid: OID | str) -> MetaObject | None:
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        return self._objects.get(oid)

    def __contains__(self, oid: OID) -> bool:
        return oid in self._objects

    def remove_object(self, oid: OID) -> None:
        """Delete an object and every link incident to it."""
        if oid not in self._objects:
            raise UnknownOIDError(oid)
        for link_id in list(self._outgoing.get(oid, ())) + list(
            self._incoming.get(oid, ())
        ):
            if link_id in self._links:
                self.remove_link(link_id)
        obj = self._objects[oid]
        del self._objects[oid]
        self.store.dirty.object(oid)
        versions = self._lineages.get(oid.lineage)
        if versions is not None:
            versions.remove(oid.version)
            if not versions:
                del self._lineages[oid.lineage]
        self._unindex_object(obj)
        self._log_undo(lambda: self._restore_object(obj))

    def _restore_object(self, obj: MetaObject) -> None:
        """Re-insert a removed object instance (transaction rollback)."""
        oid = obj.oid
        if oid in self._objects:
            raise DuplicateOIDError(oid)
        self._objects[oid] = obj
        self.store.dirty.object(oid)
        versions = self._lineages.setdefault(oid.lineage, [])
        versions.append(oid.version)
        versions.sort()
        self._index_object(obj)

    def objects(self) -> Iterator[MetaObject]:
        return iter(self._objects.values())

    def oids(self) -> Iterator[OID]:
        return iter(self._objects.keys())

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def link_count(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------
    # lineages / versions
    # ------------------------------------------------------------------

    def versions_of(self, block: str, view: str) -> list[int]:
        """All version numbers of (block, view), ascending."""
        return list(self._lineages.get((block, view), ()))

    def latest_version(self, block: str, view: str) -> MetaObject | None:
        """The highest-numbered version of (block, view), if any."""
        if self.lazy:
            # Route through the lineage map so a non-resident shard
            # faults in; the resident latest index only covers the window.
            versions = self._lineages.get((block, view))
            if not versions:
                return None
            return self._objects[OID(block, view, versions[-1])]
        latest = self._indexes.latest.get((block, view))
        if latest is None:
            return None
        return self._objects[latest]

    def previous_version(self, oid: OID) -> MetaObject | None:
        """The newest version of *oid*'s lineage older than *oid*."""
        versions = self._lineages.get(oid.lineage, ())
        older = [v for v in versions if v < oid.version]
        if not older:
            return None
        return self._objects[oid.with_version(older[-1])]

    def lineages(self) -> Iterator[tuple[str, str]]:
        return iter(self._lineages.keys())

    def blocks_of_view(self, view: str) -> list[str]:
        """All block names that have at least one version in *view*."""
        resident = {oid.block for oid in self._indexes.by_view.get(view, ())}
        if self.lazy:
            resident |= self._indexes.pushdown.blocks_of_view(view)
        return sorted(resident)

    def views_of_block(self, block: str) -> list[str]:
        """All view types that block has at least one version in."""
        resident = {oid.view for oid in self._indexes.by_block.get(block, ())}
        if self.lazy:
            resident |= self._indexes.pushdown.views_of_block(block)
        return sorted(resident)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------

    def add_link(
        self,
        source: OID | str,
        dest: OID | str,
        link_class: LinkClass = LinkClass.DERIVE,
        *,
        propagates: Iterable[str] = (),
        link_type: str | None = None,
        move: bool = False,
        fire_hooks: bool = True,
    ) -> Link:
        """Create a link from *source* to *dest*.

        Both endpoints must exist.  An exact duplicate (same endpoints and
        class) raises :class:`DuplicateLinkError` — the paper's templates
        never create parallel identical links, and catching duplicates
        early has caught several flow-definition mistakes in practice.
        """
        source = OID.parse(source) if isinstance(source, str) else source
        dest = OID.parse(dest) if isinstance(dest, str) else dest
        if source not in self._objects:
            raise UnknownOIDError(source)
        if dest not in self._objects:
            raise UnknownOIDError(dest)
        for link_id in self._outgoing.get(source, ()):
            existing = self._links[link_id]
            if existing.dest == dest and existing.link_class is link_class:
                raise DuplicateLinkError(
                    f"link {source} -> {dest} ({link_class}) already exists"
                )
        link = Link(
            link_id=self._next_link_id,
            source=source,
            dest=dest,
            link_class=link_class,
            propagates=set(propagates),
            link_type=link_type,
            move=move,
        )
        self._next_link_id += 1
        self._tick()
        self._links[link.link_id] = link
        self.store.dirty.link(link.link_id)
        self._outgoing.setdefault(source, set()).add(link.link_id)
        self._incoming.setdefault(dest, set()).add(link.link_id)
        self._indexes.link_touched(source, dest)
        self._log_undo(lambda: self.remove_link(link.link_id))
        if fire_hooks:
            for hook in list(self.link_hooks):
                hook(link)
        return link

    def get_link(self, link_id: int) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise UnknownLinkError(link_id) from None

    def remove_link(self, link_id: int) -> None:
        link = self.get_link(link_id)
        self._outgoing.get(link.source, set()).discard(link_id)
        self._incoming.get(link.dest, set()).discard(link_id)
        del self._links[link_id]
        self.store.dirty.unlink(link_id)
        self._indexes.link_touched(link.source, link.dest)
        self._log_undo(lambda: self._restore_link(link))

    def _restore_link(self, link: Link) -> None:
        """Re-insert a removed link instance (transaction rollback)."""
        self._links[link.link_id] = link
        self.store.dirty.link(link.link_id)
        self._outgoing.setdefault(link.source, set()).add(link.link_id)
        self._incoming.setdefault(link.dest, set()).add(link.link_id)
        self._indexes.link_touched(link.source, link.dest)

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def links_of(self, oid: OID) -> list[Link]:
        """Every link incident to *oid* (outgoing then incoming)."""
        out_ids = sorted(self._outgoing.get(oid, ()))
        in_ids = sorted(self._incoming.get(oid, ()))
        return [self._links[i] for i in out_ids] + [self._links[i] for i in in_ids]

    def outgoing(self, oid: OID) -> list[Link]:
        return [self._links[i] for i in sorted(self._outgoing.get(oid, ()))]

    def incoming(self, oid: OID) -> list[Link]:
        return [self._links[i] for i in sorted(self._incoming.get(oid, ()))]

    def neighbours(self, oid: OID, direction: Direction) -> list[tuple[Link, OID]]:
        """(link, other-end) pairs reachable one hop *direction*-ward.

        The hottest lookup of the propagation engine: answered from the
        adjacency cache, which link mutations invalidate per endpoint.
        """
        cached = self._indexes.adjacency(oid, direction)
        if cached is None:
            pairs = []
            for link in self.links_of(oid):
                other = link.endpoint_toward(direction, oid)
                if other is not None:
                    pairs.append((link, other))
            cached = self._indexes.cache_adjacency(oid, direction, pairs)
        return list(cached)

    def retarget_link(
        self, link_id: int, *, source: OID | None = None, dest: OID | None = None
    ) -> Link:
        """Re-attach one endpoint of a link (the `move` mechanics).

        Used when a new version of an OID is created and the blueprint
        declared the link with ``move``: the link "is automatically
        shifted from the old version to the new version" (section 3.4).
        """
        link = self.get_link(link_id)
        new_source = source if source is not None else link.source
        new_dest = dest if dest is not None else link.dest
        if new_source not in self._objects:
            raise UnknownOIDError(new_source)
        if new_dest not in self._objects:
            raise UnknownOIDError(new_dest)
        old_source, old_dest = link.source, link.dest
        self._outgoing.get(link.source, set()).discard(link_id)
        self._incoming.get(link.dest, set()).discard(link_id)
        link.source = new_source
        link.dest = new_dest
        self.store.dirty.link(link_id)
        self._outgoing.setdefault(new_source, set()).add(link_id)
        self._incoming.setdefault(new_dest, set()).add(link_id)
        self._indexes.link_touched(old_source, old_dest, new_source, new_dest)
        self._log_undo(
            lambda: self.retarget_link(link_id, source=old_source, dest=old_dest)
        )
        return link

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def on_object_created(self, hook: ObjectHook) -> None:
        """Register *hook* to run after every object creation."""
        self.object_hooks.append(hook)

    def on_link_created(self, hook: LinkHook) -> None:
        """Register *hook* to run after every link creation."""
        self.link_hooks.append(hook)

    def clear_hooks(self) -> None:
        self.object_hooks.clear()
        self.link_hooks.clear()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Structural counters for reports and sanity checks."""
        return {
            "objects": len(self._objects),
            "links": len(self._links),
            "lineages": len(self._lineages),
            "use_links": sum(
                1 for l in self._links.values() if l.link_class is LinkClass.USE
            ),
            "derive_links": sum(
                1 for l in self._links.values() if l.link_class is LinkClass.DERIVE
            ),
            "stale": len(self._indexes.stale),
            "clock": self._seq,
        }

    def check_integrity(self) -> list[str]:
        """Return a list of integrity violations (empty when healthy)."""
        problems: list[str] = []
        for link_id, link in self._links.items():
            if link.source not in self._objects:
                problems.append(f"link {link_id} has dangling source {link.source}")
            if link.dest not in self._objects:
                problems.append(f"link {link_id} has dangling dest {link.dest}")
            if link_id not in self._outgoing.get(link.source, set()):
                problems.append(f"link {link_id} missing from outgoing index")
            if link_id not in self._incoming.get(link.dest, set()):
                problems.append(f"link {link_id} missing from incoming index")
        for oid, ids in self._outgoing.items():
            for link_id in ids:
                if link_id not in self._links:
                    problems.append(f"outgoing index of {oid} has stale id {link_id}")
        for oid, ids in self._incoming.items():
            for link_id in ids:
                if link_id not in self._links:
                    problems.append(f"incoming index of {oid} has stale id {link_id}")
        for (block, view), versions in self._lineages.items():
            if sorted(versions) != versions:
                problems.append(f"lineage {block}.{view} versions out of order")
            for version in versions:
                if OID(block, view, version) not in self._objects:
                    problems.append(
                        f"lineage {block}.{view} lists missing version {version}"
                    )
        problems.extend(self._indexes.check_against(self._objects, self._lineages))
        return problems
