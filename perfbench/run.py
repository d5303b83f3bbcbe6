#!/usr/bin/env python3
"""Run one benchmark workload against a ``damocles serve`` subprocess.

    python3 perfbench/run.py --workload signoff_pipelined --seed 1 \\
        --seconds 30 --trace 0

Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run it from the repository root; it needs ``src/`` beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
