"""Orchestration: inputs, server, timed window, output check, report."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.inputs import WORKLOADS, build_stream, database_path, write_run_files
from perfbench.layers import layer_metrics
from perfbench.server import ROOT, ServerProcess, serve_args, split_cpus, stolen_seconds
from perfbench.workloads import (
    DRIVERS,
    RECHECK_WINDOW,
    WINDOW,
    RunFailed,
    Samples,
    Session,
    check_outputs,
    counters,
)

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
WORK = HERE / ".work"
RESULTS = HERE / "results"

#: Servers started per run to time set-up; the median is reported and
#: the last one serves the load.  Single starts on a shared 2-vCPU host
#: vary by up to 1.5x within a minute (the start-up fsyncs wait on a
#: shared disk), so a run takes the median of nine.
SETUPS = 9

#: A run is invalid (not reported) when the generator, not the server,
#: is the bottleneck: it kept a core this busy, or sent open-loop
#: requests this late.
GEN_CPU_LIMIT = 0.9
GEN_LAG_LIMIT_MS = 10.0

#: The end-to-end metrics every workload reports and BENCHMARK.json
#: gates (its ``end_to_end``): name -> unit.  ``post_p99_ms`` is printed
#: but not gated: on these workloads it is set by the one to six longest
#: checkpoint or scan stalls of a run, and its run-to-run spread exceeds
#: the largest bound a gate may use.
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MiB",
    "post_eps": "posts/s",
}

#: Every end-to-end metric the report prints: name -> (unit, the one
#: workload that carries it, or None for all of them).
WORKLOAD_METRICS = {
    "setup_s": ("s", None),
    "error_frac": ("ratio", None),
    "rss_mb": ("MiB", None),
    "post_eps": ("posts/s", None),
    "post_p99_ms": ("ms", None),
    "eco_p50_ms": ("ms", "eco_propagation"),
    "eco_p99_ms": ("ms", "eco_propagation"),
    "notify_p50_ms": ("ms", "eco_propagation"),
    "notify_p99_ms": ("ms", "eco_propagation"),
    "read_p50_ms": ("ms", "designer_queries"),
    "read_p99_ms": ("ms", "designer_queries"),
    "pending_p50_ms": ("ms", "designer_queries"),
    "write_p99_ms": ("ms", "designer_queries"),
}

#: The figure trace.overhead_frac compares between the untraced and the
#: traced run, per workload, and whether higher is better.
OVERHEAD_BASIS = {
    "signoff_pipelined": ("post_eps", True),
    "eco_propagation": ("eco_p50_ms", False),
    "designer_queries": ("read_p50_ms", False),
}


def p50(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def p99(values: list[float]) -> float | None:
    """Nearest-rank p99, only with at least ten samples beyond it."""
    rank = math.ceil(0.99 * len(values))
    if len(values) - rank < 10:
        return None
    return sorted(values)[rank - 1]


@dataclass
class Phase:
    """One server's life: set-up, the timed window and its check."""

    samples: Samples
    before: dict[str, int]
    after: dict[str, int]
    setup_s: list[float]
    rss_mb: float | None
    server_cpu_s: float
    gen_cpu_s: float
    steal_frac: float  # share of the host's CPU time the hypervisor took
    argv: list[str]
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def run_phase(
    workload: str, seconds: float, *, traced: bool, setups: int,
    stream: inputs.Stream, db: Path, work: Path, server_cpus: set[int] | None = None,
) -> Phase:
    spec = WORKLOADS[workload]
    setup_times: list[float] = []
    trace_path = work / "spans.json" if traced else None
    server = None
    try:
        for attempt in range(setups):
            files = write_run_files(work / f"server{attempt}", db)
            last = attempt == setups - 1
            server = ServerProcess(
                serve_args(files, spec.lazy), trace_path if last else None, server_cpus
            )
            setup_times.append(server.setup_s)
            if not last and server.stop() != 0:
                raise RunFailed("set-up server exited non-zero")
        session = Session(
            server.host, server.port,
            subscriber=spec.subscriber, reader=workload == "designer_queries",
        )
        session.peak_rss = server.peak_rss_mb
        # the subscriber's view starts from the stale set it subscribed to
        session.samples.view = set(stream.initial_stale)
        try:
            before = counters(session)
            # The generator's heap (twin, stream, samples) is large; a
            # cyclic-GC pass over it inside the window would stall the
            # closed loop, so the heap is frozen and collection paused.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                cpu0, gen0, steal0 = server.cpu_seconds(), time.process_time(), stolen_seconds()
                wall0 = time.perf_counter()
                DRIVERS[workload](session, stream, seconds)
                server_cpu = server.cpu_seconds() - cpu0
                steal = (stolen_seconds() - steal0) / (
                    (time.perf_counter() - wall0) * os.cpu_count()
                )
                gen_cpu = time.process_time() - gen0
            finally:
                gc.enable()
                gc.unfreeze()
            if traced and not session.samples.pending_ms:
                # The closed loops send no ``pending``: scan twice after
                # the window (cold, then warm) so the scan layer's
                # per-layer times are measured on every workload.
                for _ in range(2):
                    session.request("pending")
            after = counters(session)
            rss = server.peak_rss_mb()
            if workload == "eco_propagation":
                # at a fixed amount of work (see workloads.RSS_AT_ECOS)
                rss = session.samples.rss_mb
            problems = check_outputs(session, stream, before, after)
        finally:
            session.close()
        code = server.stop()
    except BaseException:
        if server is not None:
            server.kill()
        raise
    if code != 0:
        problems.append(f"damocles serve exited with {code}")
    trace = json.loads(trace_path.read_text()) if traced else None
    return Phase(
        samples=session.samples, before=before, after=after,
        setup_s=setup_times, rss_mb=rss, server_cpu_s=server_cpu,
        gen_cpu_s=gen_cpu, steal_frac=steal, argv=server.argv, problems=problems,
        trace=trace,
    )


def end_to_end(workload: str, phase: Phase) -> dict[str, tuple[float | None, str, int]]:
    """Every end-to-end metric the workload carries: (value, unit, n)."""
    s = phase.samples
    acked = len(s.acks)
    measured = {
        "setup_s": (p50(phase.setup_s), len(phase.setup_s)),
        "error_frac": (s.failed / max(1, s.attempted), s.attempted),
        "rss_mb": (phase.rss_mb, 1),
        # to the last ack: on the open loop, reads still queued behind a
        # scan at the end of the window do not dilute the write rate
        "post_eps": (acked / (s.last_ack - s.started) if acked else 0.0, acked),
        "post_p99_ms": (p99(s.post_ms), len(s.post_ms)),
        "eco_p50_ms": (p50(s.eco_ms), len(s.eco_ms)),
        "eco_p99_ms": (p99(s.eco_ms), len(s.eco_ms)),
        "notify_p50_ms": (p50(s.notify_ms), len(s.notify_ms)),
        "notify_p99_ms": (p99(s.notify_ms), len(s.notify_ms)),
        "read_p50_ms": (p50(s.read_ms), len(s.read_ms)),
        "read_p99_ms": (p99(s.read_ms), len(s.read_ms)),
        "pending_p50_ms": (p50(s.pending_ms), len(s.pending_ms)),
        "write_p99_ms": (p99(s.write_ms), len(s.write_ms)),
    }
    return {
        name: (value, WORKLOAD_METRICS[name][0], n)
        for name, (value, n) in measured.items()
        if WORKLOAD_METRICS[name][1] in (None, workload)
    }


def validity(workload: str, phase: Phase) -> list[str]:
    """Reasons the generator, not the server, bounded this run."""
    reasons = []
    if phase.samples.exhausted:
        reasons.append(
            f"the request stream ran out after {phase.samples.seconds:.1f} s; "
            f"raise inputs.ECO_MAX_PER_S / SIGNOFF_MAX_POSTS_PER_S"
        )
    gen_frac = phase.gen_cpu_s / phase.samples.seconds
    if gen_frac > GEN_CPU_LIMIT:
        reasons.append(f"generator CPU {gen_frac:.2f} of a core > {GEN_CPU_LIMIT}")
    if workload == "designer_queries":
        lag = p99(phase.samples.lag_ms)
        if lag is not None and lag > GEN_LAG_LIMIT_MS:
            reasons.append(f"generator lag p99 {lag:.1f} ms > {GEN_LAG_LIMIT_MS} ms")
    return reasons


def host_loop_ms(steps: int = 200_000, repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    Python right now.  On a shared host it drifts by up to ~1.6x within
    minutes, and closed-loop throughput and set-up time drift with it."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for step in range(steps):
            total += step
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def host_fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(workload: str, seed: int, seconds: float, blocks: int,
               stream: inputs.Stream, phase: Phase) -> dict:
    return {
        "host": host_fingerprint(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": {
            "blocks": blocks,
            "objects": phase.after.get("objects"),
            "units": len(stream.units),
            "units_sent": phase.samples.units_sent,
            "reads": len(stream.reads),
        },
        "rates": {
            "window": WINDOW,
            "recheck_window": RECHECK_WINDOW,
            "read_per_s": inputs.READ_RATE if workload == "designer_queries" else None,
            "write_per_s": inputs.WRITE_RATE if workload == "designer_queries" else None,
            "read_mix": dict(inputs.READ_MIX),
            "top_eco_share": 1 / inputs.TOP_ECO_EVERY,
        },
        "serve_argv": phase.argv,
    }


def fmt(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}"


def measure(
    workload: str, seed: int, seconds: float, trace: bool, *,
    blocks: int | None = None, work: Path = WORK, cache: Path = CACHE,
) -> dict:
    """One benchmark run; returns the result record (see ``main``)."""
    blocks = blocks or WORKLOADS[workload].blocks
    if trace:
        # the untraced and the traced server share the run's time
        seconds = seconds / 2
    db = database_path(cache, blocks)
    stream = build_stream(workload, seed, seconds, db, blocks)
    loop_ms = host_loop_ms()
    phase = dict(stream=stream, db=db)
    with split_cpus() as server_cpus:
        plain = run_phase(
            workload, seconds, traced=False, setups=1 if trace else SETUPS,
            work=work / "plain", server_cpus=server_cpus, **phase,
        )
        traced = None
        if trace:
            traced = run_phase(
                workload, seconds, traced=True, setups=1,
                work=work / "traced", server_cpus=server_cpus, **phase,
            )
    e2e = end_to_end(workload, plain)
    record = {
        "provenance": provenance(workload, seed, seconds, blocks, stream, plain),
        "end_to_end": {
            name: {"value": value, "unit": unit, "samples": n}
            for name, (value, unit, n) in e2e.items()
        },
        "cold_pending_ms": plain.samples.pending_ms[0] if plain.samples.pending_ms else None,
        "host_steal_frac": plain.steal_frac,
        "host_loop_ms": loop_ms,
        "gen_lag_p99_ms": p99(plain.samples.lag_ms),
        "host_oversleep_ms": {
            "p99": p99(plain.samples.oversleep_ms),
            "max": max(plain.samples.oversleep_ms, default=None),
            "samples": len(plain.samples.oversleep_ms),
        },
        "problems": plain.problems,
        "invalid": validity(workload, plain),
        "attempted": plain.samples.attempted,
        "failed": plain.samples.failed,
    }
    if traced is not None:
        basis, higher = OVERHEAD_BASIS[workload]
        untraced_value = e2e[basis][0]
        traced_value = end_to_end(workload, traced)[basis][0]
        if higher:
            overhead = untraced_value / traced_value - 1.0
        else:
            overhead = traced_value / untraced_value - 1.0
        layers, notes = layer_metrics(traced, overhead)
        record["per_layer"] = layers
        record["trace_notes"] = notes
        record["problems"] += traced.problems + notes.pop("problems")
        record["invalid"] += validity(workload, traced)
        record["attempted"] += traced.samples.attempted
        record["failed"] += traced.samples.failed
    return record


def print_report(workload: str, record: dict) -> None:
    prov = record["provenance"]
    print(f"perfbench {workload} seed={prov['seed']} seconds={prov['seconds']} "
          f"blocks={prov['sizes']['blocks']} objects={prov['sizes']['objects']}")
    print(f"host: {prov['host']}  commit: {prov['git_commit']}")
    print(f"serve: {' '.join(prov['serve_argv'][1:])}")
    print(f"{'metric':<18}{'value':>12}  {'unit':<8}{'samples':>8}")
    for name, item in record["end_to_end"].items():
        print(f"{name:<18}{fmt(item['value']):>12}  {item['unit']:<8}{item['samples']:>8}")
    if "per_layer" in record:
        print(f"{'layer metric':<28}{'value':>12}  unit")
        for name, item in record["per_layer"].items():
            print(f"{name:<28}{fmt(item['value']):>12}  {item['unit']}")
        for key, value in record["trace_notes"].items():
            print(f"trace: {key} = {value}")
    print(f"host CPU stolen by the hypervisor during the window: "
          f"{record['host_steal_frac']:.1%}")
    print(f"host speed before set-up: a fixed 200,000-step Python loop took "
          f"{fmt(record['host_loop_ms'])} ms (median of 5)")
    print(f"generator lag p99 (validity, limit {GEN_LAG_LIMIT_MS:g} ms on the open "
          f"loop): {fmt(record['gen_lag_p99_ms'])} ms")
    oversleep = record["host_oversleep_ms"]
    print(f"generator woken late by the host (not counted as its lag): "
          f"p99 {fmt(oversleep['p99'])} ms, max {fmt(oversleep['max'])} ms "
          f"over {oversleep['samples']} sleeps")
    if workload == "designer_queries":
        print(f"first pending (cold full scan, from due time): "
              f"{fmt(record['cold_pending_ms'])} ms")
    for problem in record["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for reason in record["invalid"]:
        print(f"INVALID: {reason}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the server it started (see run_phase)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_report(args.workload, record)
    if record["invalid"]:
        return 3
    if args.trace:
        chosen = record["per_layer"]
    else:
        chosen = {name: record["end_to_end"][name] for name in END_TO_END}
    missing = [name for name, item in chosen.items() if item["value"] is None]
    if missing:
        print(f"perfbench: too few samples for {missing}; raise --seconds",
              file=sys.stderr)
        return 3
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": item["value"], "unit": item["unit"]}
            for name, item in chosen.items()
        },
    }))
    return 0 if correct else 1
