"""Three-way store equivalence: eager-JSON vs eager-SQLite vs lazy-SQLite.

Extends the PR-2 indexed-vs-scan harness one level down: the *same*
randomized mutation/query script runs against a database loaded eagerly
from JSON, eagerly from SQLite, and lazily from SQLite, and all three
must produce identical query results, stale sets, and clean
``check_integrity()`` — plus byte-identical ``select(force_scan=True)``
output, which bypasses every index and pushdown.

Link ids are deliberately *not* compared across backends: the JSON
loader compacts ids while both SQLite loaders preserve disk ids (so
write-back and pushdown stay addressable); equivalence is over the
link *structure* (endpoints, class, propagate sets).  The write-back
test compares SQLite files with each other, ids included.
"""

import json
import random

import pytest

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.persistence import database_to_dict, load_database, save_database
from repro.metadb.query import Query, stale_objects
from repro.metadb.workspace import Workspace

VIEWS = ("rtl", "gate", "layout")
OWNERS = ("ana", "bob", "cho")


def seeded_db(rng: random.Random, n_blocks: int = 18) -> MetaDatabase:
    db = MetaDatabase(name="equiv")
    for index in range(n_blocks):
        block = f"b{index}"
        for view in VIEWS:
            for version in range(1, rng.randrange(2, 4)):
                db.create_object(
                    OID(block, view, version),
                    {
                        "uptodate": rng.random() < 0.5,
                        "owner": rng.choice(OWNERS),
                        "score": rng.randrange(4),
                    },
                )
    oids = list(db.oids())
    for _ in range(n_blocks):
        source, dest = rng.sample(oids, 2)
        try:
            db.add_link(source, dest, LinkClass.DERIVE, propagates=("outofdate",))
        except Exception:
            pass  # duplicate pair: skip
    return db


def mutate(db: MetaDatabase, rng: random.Random) -> None:
    """One deterministic mutation script (same rng seed → same script)."""
    oids = sorted(db.oids())
    for oid in oids:
        roll = rng.random()
        if roll < 0.25:
            db.get(oid).set("uptodate", not db.get(oid).get("uptodate"))
        elif roll < 0.35:
            db.get(oid).set("owner", rng.choice(OWNERS))
        elif roll < 0.42:
            db.get(oid).set("score", rng.randrange(6))
        elif roll < 0.47 and db.find(oid) is not None:
            db.remove_object(oid)
    survivors = sorted(db.oids())
    for _ in range(5):
        source, dest = rng.sample(survivors, 2)
        try:
            db.add_link(source, dest, LinkClass.DERIVE)
        except Exception:
            pass
    block = f"n{rng.randrange(100)}"
    db.create_object(OID(block, "rtl", 1), {"uptodate": False, "owner": "new"})


def query_battery(db: MetaDatabase) -> list:
    """Observable behaviour: everything equivalence is judged on."""
    results = []
    queries = [
        Query(db).view("rtl"),
        Query(db).block("b3"),
        Query(db).where_property("uptodate", False),
        Query(db).where_property("uptodate", False).latest_only(),
        Query(db).view("gate").where_property("owner", "bob"),
        Query(db).where_property("score", 2).latest_only(),
        Query(db).where(lambda obj: obj.version >= 2).view("layout"),
    ]
    for query in queries:
        selected = query.select()
        results.append([obj.oid for obj in selected])
        assert [o.oid for o in query.select(force_scan=True)] == [
            o.oid for o in selected
        ]
    results.append([obj.oid for obj in stale_objects(db)])
    results.append(sorted(db.stale_set()))
    results.append(sorted((o.oid, tuple(sorted(o.properties.items()))) for o in db.objects()))
    results.append(
        sorted(
            (l.source, l.dest, l.link_class.value, tuple(sorted(l.propagates)))
            for l in db.links()
        )
    )
    assert db.check_integrity() == []
    return results


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_way_equivalence(seed, tmp_path):
    rng = random.Random(seed)
    base = seeded_db(rng)
    json_path = save_database(base, tmp_path / "db.json")
    sqlite_path = save_database(base, tmp_path / "db.sqlite")

    eager_json, _ = load_database(json_path)
    eager_sqlite, _ = load_database(sqlite_path)
    lazy_sqlite, _ = load_database(sqlite_path, lazy=True)

    reference = None
    for db in (eager_json, eager_sqlite, lazy_sqlite):
        mutate(db, random.Random(seed + 1000))  # identical script each time
        observed = query_battery(db)
        if reference is None:
            reference = observed
        else:
            assert observed == reference


@pytest.mark.parametrize("seed", [0, 1])
def test_lazy_with_eviction_pressure_is_equivalent(seed, tmp_path):
    """A tiny LRU window (constant thrash) must not change any answer."""
    rng = random.Random(seed)
    base = seeded_db(rng)
    path = save_database(base, tmp_path / "db.sqlite")
    eager, _ = load_database(path)
    lazy, _ = load_database(path, lazy=True, cache_lineages=3)
    queries = [
        lambda d: [o.oid for o in stale_objects(d)],
        lambda d: [o.oid for o in Query(d).where_property("owner", "ana").select()],
        lambda d: [o.oid for o in Query(d).view("gate").latest_only().select()],
        lambda d: sorted(d.stale_set()),
    ]
    for _ in range(3):  # repeat: answers must survive evict/refault cycles
        for query in queries:
            assert query(lazy) == query(eager)


def checkpoint_round(db: MetaDatabase, ws: Workspace, rng: random.Random) -> None:
    """One checkpoint interval of mixed mutations (same rng → same script)."""
    for oid in rng.sample(sorted(db.oids()), 12):
        obj = db.find(oid)
        roll = rng.random()
        if obj is None:
            continue
        if roll < 0.25:
            obj.set("uptodate", not obj.get("uptodate"))
        elif roll < 0.4:  # staled and re-checked-in: a net no-op
            obj.set("uptodate", False)
            obj.set("uptodate", True)
        elif roll < 0.55:
            obj.set("owner", rng.choice(OWNERS))
        elif roll < 0.65:
            if "score" in obj.properties:
                obj.properties.delete("score")
        elif roll < 0.8:
            obj.set("note", rng.choice(("x", 0, 1, 2.5, True)))
        elif not oid.block.startswith("w"):  # workspace versions keep files
            db.remove_object(oid)
    for obj in db.objects():  # Python-equal values of another type
        note = obj.get("note")
        if isinstance(note, bool):
            obj.set("note", int(note))
        elif note in (0, 1):
            obj.set("note", bool(note))
    links = sorted(db.links(), key=lambda link: link.link_id)
    for link in rng.sample(links, min(2, len(links))):
        db.remove_link(link.link_id)
    survivors = sorted(db.oids())
    links = sorted(db.links(), key=lambda link: link.link_id)
    if links:
        db.retarget_link(rng.choice(links).link_id, dest=rng.choice(survivors))
    for _ in range(3):
        source, dest = rng.sample(survivors, 2)
        try:
            db.add_link(source, dest, LinkClass.DERIVE, propagates=("outofdate",))
        except Exception:
            pass  # duplicate pair: skip
    # check-out state of an earlier version, then a fresh check-in
    checked_in = [oid for oid in sorted(db.oids()) if oid.block.startswith("w")]
    if checked_in:
        oid = rng.choice(checked_in)
        holder = db.get(oid).checked_out_by
        if holder is None:
            ws.check_out(oid, rng.choice(OWNERS))
        else:
            ws.release(oid, holder)
    ws.check_in(f"w{rng.randrange(3)}", "rtl", "text", properties={"uptodate": False})


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_flush_round_trip_equivalence(seed, tmp_path):
    """Incremental write-back — eager and lazy, checkpoint after
    checkpoint — reloads to exactly what a full rewrite of the same
    mutated database writes to a fresh file."""
    base = seeded_db(random.Random(seed))
    registry = ConfigurationRegistry(base)
    registry.save(Configuration.snapshot(base, "baseline"))
    legs = []
    for leg, lazy in (("eager", False), ("lazy", True), ("reference", False)):
        path = save_database(base, tmp_path / f"{leg}.sqlite", registry)
        db, db_registry = load_database(path, lazy=lazy)
        ws = Workspace(root=tmp_path / f"ws-{leg}", db=db)
        legs.append((leg, db, db_registry, ws, random.Random(seed + 7)))
    inodes = {leg: (tmp_path / f"{leg}.sqlite").stat().st_ino for leg in ("eager", "lazy")}
    for round_no in range(4):
        for leg, db, db_registry, ws, rng in legs:
            checkpoint_round(db, ws, rng)
            if leg == "reference":
                path = tmp_path / f"reference-{round_no}.sqlite"  # full rewrite
            else:
                path = tmp_path / f"{leg}.sqlite"  # incremental write-back
            save_database(db, path, db_registry)
        # JSON text, not dicts: True == 1 in Python, not on disk
        full = load_database(tmp_path / f"reference-{round_no}.sqlite")
        reference = json.dumps(database_to_dict(*full), sort_keys=True)
        for leg in ("eager", "lazy"):
            written = load_database(tmp_path / f"{leg}.sqlite")
            text = json.dumps(database_to_dict(*written), sort_keys=True)
            assert text == reference, (leg, round_no)
            assert (tmp_path / f"{leg}.sqlite").stat().st_ino == inodes[leg]
    legs[1][1].close()
    assert query_battery(load_database(tmp_path / "lazy.sqlite")[0]) == (
        query_battery(legs[0][1])
    )
