"""Tests of the benchmark itself: inputs, schema, a smoke run, the check."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.bench import END_TO_END, WORKLOAD_METRICS, measure, run_phase
from perfbench.inputs import (
    WORKLOADS,
    Stream,
    build_stream,
    database_path,
    policy_document,
)
from perfbench.layers import LAYERS
from perfbench.workloads import Samples, check_answers

ROOT = Path(__file__).resolve().parents[1]
TINY = 3  # blocks


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = database_path(tmp_path / "a", TINY)
    second = database_path(tmp_path / "b", TINY)
    assert first.read_bytes() == second.read_bytes()
    assert json.dumps(policy_document()) == json.dumps(policy_document())
    for workload in WORKLOADS:
        one = build_stream(workload, 7, 0.5, first, TINY).to_json()
        two = build_stream(workload, 7, 0.5, second, TINY).to_json()
        other = build_stream(workload, 8, 0.5, first, TINY).to_json()
        assert one == two
        assert one != other


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: row[0] for name, row in LAYERS.items()
    }
    assert set(END_TO_END) <= set(WORKLOAD_METRICS)
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name in [*WORKLOAD_METRICS, *LAYERS]:
        assert f"`{name}`" in readme, name


def test_read_answers_are_checked_after_the_window():
    reads = [
        (0.0, "query blk0,rtl,1", {"uptodate": "true"}),
        (0.1, "query blk1,rtl,1", {"uptodate": "true"}),
        (0.2, "pending", None),
        (0.3, "status", None),
    ]
    stream = Stream("designer_queries", 1, [], reads, {}, frozenset())
    samples = Samples(answers=[
        (0, "OK uptodate=true"),
        (1, "OK uptodate=false"),
        (2, "OK blk0,rtl,1:ckin blk1,sta,1:sta"),
        (3, "OK objects=notanumber"),
    ])
    problems = check_answers(samples, stream)
    assert len(problems) == 2
    assert problems[0].startswith("'query blk1,rtl,1' answered")
    assert problems[1].startswith("'status' answered")
    assert samples.pending_results == [2]


@pytest.mark.slow
def test_tiny_traced_smoke_run(tmp_path):
    record = measure(
        "signoff_pipelined", 1, 1.0, True, blocks=TINY, work=tmp_path,
        cache=tmp_path / "cache",
    )
    assert record["problems"] == []
    assert set(END_TO_END) <= set(record["end_to_end"])
    assert list(record["per_layer"]) == list(LAYERS)
    layers = record["per_layer"]
    assert layers["policy.evals"]["value"] == layers["audit.appends"]["value"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["eco_propagation", "designer_queries"])
def test_tiny_smoke_run(tmp_path, workload):
    record = measure(
        workload, 1, 1.0, False, blocks=TINY, work=tmp_path, cache=tmp_path / "cache"
    )
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0


@pytest.mark.slow
def test_corrupted_twin_fails_the_output_check(tmp_path):
    db = database_path(tmp_path / "cache", TINY)
    stream = build_stream("eco_propagation", 1, 0.5, db, TINY)
    # no post ever reaches a spec view, so these claims stay wrong
    oid = next(oid for oid in sorted(stream.sampled) if ",spec," in oid)
    stream.initial_stale = stream.initial_stale | {oid}
    stream.sampled[oid] = {**stream.sampled[oid], "uptodate": "bogus"}
    phase = run_phase(
        "eco_propagation", 0.5, traced=False, setups=1,
        stream=stream, db=db, work=tmp_path / "work",
    )
    assert any("stale set" in problem for problem in phase.problems)
    assert any(problem.startswith(f"query {oid}") for problem in phase.problems)

