"""Shared helpers for the benchmark/experiment harness.

Each ``test_bench_*`` file regenerates one figure or experiment from
DESIGN.md's index: it drives the system on the experiment's workload,
prints the table the paper-style report needs (run with ``-s`` to see
them), asserts the qualitative *shape* (who wins, how things scale), and
registers a pytest-benchmark measurement for the core operation.

Run everything with::

    pytest benchmarks/ --benchmark-only

Quick mode: setting ``DAMOCLES_BENCH_QUICK=1`` (the CI smoke job) keeps
only the smallest parametrized size of each benchmark, so the harnesses
stay exercised on every push without the full-size timings.

Recording: the wire benchmarks merge their results into the committed
``BENCH_*.json`` files at the repo root only when
``DAMOCLES_BENCH_RECORD=1`` is set (and never in quick mode), so a
plain test run leaves the working tree untouched.  Every record is
stamped with the host fingerprint, the git commit and the quick flag.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.reporting import ExperimentReport

QUICK = os.environ.get("DAMOCLES_BENCH_QUICK") == "1"
RECORD = os.environ.get("DAMOCLES_BENCH_RECORD") == "1"


def _size_key(item) -> tuple | None:
    """Numeric params of a test item (None when unparametrized)."""
    callspec = getattr(item, "callspec", None)
    if callspec is None:
        return None
    numbers = tuple(
        value
        for value in callspec.params.values()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    return numbers or None


def pytest_collection_modifyitems(config, items):
    if not QUICK:
        return
    smallest: dict[tuple, tuple] = {}
    for item in items:
        key = _size_key(item)
        if key is None:
            continue
        group = (item.module.__name__, item.originalname)
        if group not in smallest or key < smallest[group]:
            smallest[group] = key
    kept, deselected = [], []
    for item in items:
        key = _size_key(item)
        group = (item.module.__name__, getattr(item, "originalname", item.name))
        if key is not None and key != smallest.get(group):
            deselected.append(item)
        else:
            kept.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept


@pytest.fixture
def report_printer():
    """Print an experiment report at test end (visible with -s)."""
    reports: list[ExperimentReport] = []

    def add(report: ExperimentReport) -> ExperimentReport:
        reports.append(report)
        return report

    yield add
    for report in reports:
        print()
        print(report.to_text())


@pytest.fixture
def record_bench():
    """``record(path, section, key, value)``: merge one result dict into
    the BENCH JSON file *path* (see the module docstring for when)."""

    def record(path: Path, section: str, key: str, value: dict) -> None:
        if not RECORD or QUICK:
            return  # smoke numbers must not overwrite real measurements
        from perfbench.bench import git_commit, host_fingerprint

        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault(section, {})[key] = {
            **value,
            "recorded_on": {
                "host": host_fingerprint(),
                "git_commit": git_commit(),
                "quick": QUICK,
            },
        }
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return record
