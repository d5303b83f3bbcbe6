"""Out-of-process benchmark of ``damocles serve``.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  See ``perfbench/README.md``.
"""
