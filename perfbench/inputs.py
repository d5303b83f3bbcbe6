"""Seeded inputs for the benchmark, and the in-process twin that checks them.

Everything the server receives is built here before timing starts: the
ASIC database (``flows.asic.build_asic_project``, saved as SQLite), the
blueprint, a policy document and the request stream.  The stream is
replayed into a *twin* (an engine over the same database and blueprint)
while it is generated, so each unit of the stream carries what the
server must end up with after it: stale-set changes and the properties
of a fixed sample of OIDs.  A closed-loop run stops after a prefix of
the stream whose length depends on speed; :meth:`Stream.expected`
rebuilds the twin's state at any prefix from those per-unit records.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.events import EventMessage
from repro.core.policy import PolicyDocument
from repro.flows.asic import (
    ASIC_BLUEPRINT,
    ASIC_VIEW_ORDER,
    SIGNOFF_EVENTS,
    build_asic_project,
)
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.network.protocol import format_query_response, parse_query_response

#: Four always-allow event rules.  Each evaluates a property condition on
#: the target, so every post pays rule matching, condition evaluation and
#: an audit append without any change to which posts apply.
GATE_RULES = [
    ("event:*", "$uptodate == $uptodate", ""),
    ("event:*", "$owner == $owner", ""),
    ("event:ckin", "$uptodate == $uptodate", ""),
    ("event:sta", "$owner == $owner", ""),
]

#: Sign-off results fail this often (the argument then names a failure).
#: Assumed, not measured: the workloads ask only for "seeded sign-off
#: results", and no recorded designer trace gives a failure rate.
SIGNOFF_FAIL_RATE = 0.1
FAILING_ARG = {"good": "bad", "true": "false", "is_equiv": "not_equiv"}

#: One ECO in this many on ``eco_propagation`` is top-level (``soc,rtl``),
#: at a seeded position inside each run of this length: 2.5%, well above
#: 1%, so the p99 of ECO latency sits inside the top-level population
#: instead of flipping between the two, and evenly spread, so every
#: prefix of the stream carries the same share.
TOP_ECO_EVERY = 40

#: Upper bounds on how fast the server can consume each closed-loop
#: stream, used to size it: the twin replays the whole stream before
#: timing, and a run that exhausts it is invalid (reported, exit 3).
#: On a 2-vCPU host eco_propagation has reached ~55 ECOs/s.
SIGNOFF_MAX_POSTS_PER_S = 3000
ECO_MAX_PER_S = 70

# designer_queries traffic.  Every figure below is an unverified
# assumption: no recorded designer trace exists to take them from.  The
# workload is defined only in words, quoted beside each constant.
# Replace them with measured shares once such a trace is available.

#: Open-loop rates (requests per second).  "Fixed rates, each chosen to
#: keep the server well below saturation": the lazy server uses about a
#: third of a core at these rates (``server.cpu_frac``).
READ_RATE = 55.0
WRITE_RATE = 60.0
#: Exact shares of each read (the schedule is shuffled, not sampled, so
#: every run of a given length carries the same number of scans).
#: "Mostly ``query OID`` and ``stale``, some ``status``, rare ``pending``."
READ_MIX = (("query", 0.74), ("stale", 0.20), ("status", 0.04), ("pending", 0.02))
#: The first share of the read schedule carries no ``pending`` (its
#: share goes to ``query``); the rest follows ``READ_MIX``.  The first
#: full scan faults in every lineage and pins it for the rest of the
#: server's life (``metadb.store``: "full scans pin"), so only the
#: stretch before it shows the 1,024-lineage LRU window faulting and
#: evicting.  At these rates about one lineage faults per request, so
#: the stretch must outlast ~1,024 requests (~9 s) to evict at all.
SCAN_FREE_SHARE = 0.75
#: Share of writes that are block ECOs (``ckin`` on ``blkN,rtl``); the
#: rest are sign-off results.  "A framed connection sends sign-off posts
#: and block ECOs."
WRITE_ECO_SHARE = 0.05

#: OIDs whose ``query`` answer is checked against the twin at the end.
SAMPLED_OIDS = 24

VIEW_RANK = {view: rank for rank, view in enumerate(ASIC_VIEW_ORDER)}


@dataclass(frozen=True)
class WorkloadSpec:
    blocks: int
    lazy: bool
    subscriber: bool


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "signoff_pipelined": WorkloadSpec(blocks=200, lazy=False, subscriber=False),
    "eco_propagation": WorkloadSpec(blocks=200, lazy=False, subscriber=True),
    "designer_queries": WorkloadSpec(blocks=2000, lazy=True, subscriber=False),
}


@dataclass
class Unit:
    """One step of the stream: its posts and what the twin saw them do."""

    kind: str  # "signoff" | "eco" | "top_eco"
    posts: list[tuple[str, str, str, str, str]]  # name, oid, dir, arg, user
    stale: list[str] = field(default_factory=list)  # OIDs pushed STALE
    fresh: list[str] = field(default_factory=list)  # OIDs pushed FRESH
    end_stale: list[str] = field(default_factory=list)  # of those, stale at the end
    props: dict[str, dict[str, str]] = field(default_factory=dict)
    due: float = 0.0  # open loop only: seconds after the start

    def to_json(self) -> list:
        return [
            self.kind, self.posts, self.stale, self.fresh, self.end_stale,
            self.props, self.due,
        ]


@dataclass
class Stream:
    workload: str
    seed: int
    units: list[Unit]
    #: (due seconds, line command, expected ``query`` answer or None)
    reads: list[tuple[float, str, dict[str, str] | None]]
    sampled: dict[str, dict[str, str]]  # OID -> answer before any unit
    initial_stale: frozenset[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "units": [unit.to_json() for unit in self.units],
                "reads": self.reads,
                "sampled": self.sampled,
                "initial_stale": sorted(self.initial_stale),
            },
            sort_keys=True,
        )

    def expected(self, prefix: int) -> tuple[set[str], dict[str, dict[str, str]]]:
        """The twin's stale set and sampled answers after *prefix* units."""
        stale = set(self.initial_stale)
        answers = {oid: dict(props) for oid, props in self.sampled.items()}
        for unit in self.units[:prefix]:
            stale.difference_update(unit.stale)
            stale.difference_update(unit.fresh)
            stale.update(unit.end_stale)
            answers.update(unit.props)
        return stale, answers


class Twin:
    """An in-process engine over the same database and blueprint."""

    def __init__(self, db_path: Path) -> None:
        db, _ = load_database(db_path)
        self.db = db
        self.engine = BlueprintEngine(db, Blueprint.from_source(ASIC_BLUEPRINT))
        self._transitions: list[tuple[str, bool]] = []
        db.on_stale_change(
            lambda oid, is_stale: self._transitions.append((oid.wire(), is_stale))
        )

    def answer(self, oid: str) -> dict[str, str]:
        """What ``query OID`` answers, parsed like a client parses it."""
        obj = self.db.find(OID.parse(oid))
        return parse_query_response(format_query_response(obj.properties.as_dict()))

    def run(self, posts: list[tuple]) -> list[tuple[str, bool]]:
        """Run *posts* the way the server does (one wave per post);
        returns the stale-set transitions they caused, in order."""
        self._transitions = []
        for name, oid, direction, arg, user in posts:
            self.engine.post_message(EventMessage(
                name=name, direction=Direction.parse(direction),
                target=OID.parse(oid), arg=arg, user=user,
            ))
            self.engine.run()
        return self._transitions

    def record(
        self, unit: Unit, transitions: list[tuple[str, bool]], sampled: set[str]
    ) -> None:
        """Store what *unit* did: pushes, end state, sampled answers."""
        final: dict[str, bool] = {}
        for oid, is_stale in transitions:
            final[oid] = is_stale
        unit.stale = sorted({oid for oid, is_stale in transitions if is_stale})
        unit.fresh = sorted({oid for oid, is_stale in transitions if not is_stale})
        unit.end_stale = sorted(oid for oid, is_stale in final.items() if is_stale)
        touched = {post[1] for post in unit.posts} | set(final)
        unit.props = {oid: self.answer(oid) for oid in sorted(touched & sampled)}


def flow_order(oids: list[str]) -> list[str]:
    """Sort OIDs the way a flow re-runs them: by view rank, then block."""
    parsed = [OID.parse(oid) for oid in oids]
    parsed.sort(key=lambda o: (VIEW_RANK.get(o.view, 99), o.block))
    return [oid.wire() for oid in parsed]


def database_path(cache: Path, blocks: int) -> Path:
    """The pristine ASIC database for *blocks*, built once per size.

    ``build_asic_project`` takes no randomness, so the file depends on
    the size alone and is shared by every seed.
    """
    path = cache / f"asic-{blocks}.sqlite"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        project = build_asic_project(blocks)
        tmp = cache / f"asic-{blocks}.{os.getpid()}.tmp.sqlite"
        save_database(project.db, tmp)
        os.replace(tmp, path)
    return path


def policy_document() -> dict:
    """The ``--policy`` file: the flow's blueprint plus ``GATE_RULES``."""
    document = PolicyDocument(
        version=1,
        change_class="additive",
        blueprint_source=ASIC_BLUEPRINT,
        rules=tuple(GATE_RULES),
    )
    return document.to_payload()


def write_run_files(run_dir: Path, db_source: Path) -> dict[str, Path]:
    """Lay out one server's files: a fresh copy of the database, the
    blueprint, the policy document and an empty journal directory."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    db = run_dir / "asic.sqlite"
    shutil.copyfile(db_source, db)
    blueprint = run_dir / "flow.bp"
    blueprint.write_text(ASIC_BLUEPRINT)
    policy = run_dir / "policy.json"
    policy.write_text(json.dumps(policy_document(), sort_keys=True))
    # Put the copies on disk now.  Left dirty, they are flushed by the
    # server's first fsync during start-up, and the disk's latency then
    # lands in setup_s (single starts varied 1.1-1.7 s that way).
    for path in (db, blueprint, policy, run_dir):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    journal = run_dir / "journal"
    return {"db": db, "blueprint": blueprint, "policy": policy, "journal": journal}


def _signoff_post(rng: random.Random, blocks: list[str]) -> tuple:
    view, event, passing = SIGNOFF_EVENTS[rng.randrange(len(SIGNOFF_EVENTS))]
    block = blocks[rng.randrange(len(blocks))]
    arg = passing
    if rng.random() < SIGNOFF_FAIL_RATE:
        arg = FAILING_ARG.get(passing, "bad")
    return (event, f"{block},{view},1", "up", arg, "signoff")


def _blocks(n_blocks: int) -> list[str]:
    return ["soc"] + [f"blk{index}" for index in range(n_blocks)]


def _sample(rng: random.Random, blocks: list[str]) -> list[str]:
    """Sampled OIDs: always the top rtl, then random block views."""
    sample = {"soc,rtl,1"}
    while len(sample) < SAMPLED_OIDS:
        block = blocks[rng.randrange(len(blocks))]
        view = ASIC_VIEW_ORDER[rng.randrange(len(ASIC_VIEW_ORDER))]
        sample.add(f"{block},{view},1")
    return sorted(sample)


def _read_schedule(rng: random.Random, n_reads: int) -> list[str]:
    """*n_reads* read kinds in ``READ_MIX``'s exact shares, shuffled."""
    kinds = [kind for kind, share in READ_MIX[1:] for _ in range(round(n_reads * share))]
    kinds += [READ_MIX[0][0]] * (n_reads - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _written_blocks(units: list[Unit]) -> set[str]:
    """Blocks any unit posts to or changes the stale state of."""
    oids = [post[1] for unit in units for post in unit.posts]
    oids += [oid for unit in units for oid in unit.stale + unit.fresh]
    return {oid.split(",")[0] for oid in oids}


def build_stream(
    workload: str, seed: int, seconds: float, db_path: Path, n_blocks: int
) -> Stream:
    """Generate the request stream for one run and replay it into a twin."""
    rng = random.Random(f"{workload}:{seed}")
    blocks = _blocks(n_blocks)
    twin = Twin(db_path)
    sampled_oids = _sample(rng, blocks)
    sampled_set = set(sampled_oids)
    initial = {oid: twin.answer(oid) for oid in sampled_oids}
    initial_stale = frozenset(oid.wire() for oid in twin.db.stale_set())
    units: list[Unit] = []
    reads: list[tuple[float, str, dict[str, str] | None]] = []
    if workload == "signoff_pipelined":
        for _ in range(int(seconds * SIGNOFF_MAX_POSTS_PER_S)):
            unit = Unit("signoff", [_signoff_post(rng, blocks)])
            twin.record(unit, twin.run(unit.posts), sampled_set)
            units.append(unit)
    elif workload == "eco_propagation":
        n_eco = int(seconds * ECO_MAX_PER_S)
        top_at = {
            start + rng.randrange(TOP_ECO_EVERY)
            for start in range(0, n_eco, TOP_ECO_EVERY)
        }
        for index in range(n_eco):
            block = "soc" if index in top_at else blocks[1 + rng.randrange(n_blocks)]
            kind = "top_eco" if block == "soc" else "eco"
            ckin = ("ckin", f"{block},rtl,1", "up", "", "eco")
            changed = list(twin.run([ckin]))
            staled = flow_order([oid for oid, is_stale in changed if is_stale])
            recheck = [("ckin", oid, "up", "", "flow") for oid in staled]
            changed += twin.run(recheck)
            unit = Unit(kind, [ckin] + recheck)
            twin.record(unit, changed, sampled_set)
            units.append(unit)
    elif workload == "designer_queries":
        n_writes = int(seconds * WRITE_RATE)
        for index in range(n_writes):
            if rng.random() < WRITE_ECO_SHARE:
                block = blocks[1 + rng.randrange(n_blocks)]
                unit = Unit("eco", [("ckin", f"{block},rtl,1", "up", "", "eco")])
            else:
                unit = Unit("signoff", [_signoff_post(rng, blocks)])
            unit.due = index / WRITE_RATE
            twin.record(unit, twin.run(unit.posts), sampled_set)
            units.append(unit)
        written = _written_blocks(units)
        all_oids = sorted(obj.oid.wire() for obj in twin.db.objects())
        n_reads = int(seconds * READ_RATE)
        n_head = round(n_reads * SCAN_FREE_SHARE)
        head = [
            "query" if kind == "pending" else kind
            for kind in _read_schedule(rng, n_head)
        ]
        schedule = head + _read_schedule(rng, n_reads - n_head)
        for index, kind in enumerate(schedule):
            line, expect = kind, None
            if kind == "query":
                oid = all_oids[rng.randrange(len(all_oids))]
                line = f"query {oid}"
                if oid.split(",")[0] not in written:
                    # no write ever reaches this block: the answer is fixed
                    expect = twin.answer(oid)
            # half a period in, so the first read does not land with the first write
            reads.append(((index + 0.5) / READ_RATE, line, expect))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Stream(
        workload=workload,
        seed=seed,
        units=units,
        reads=reads,
        sampled=initial,
        initial_stale=initial_stale,
    )
