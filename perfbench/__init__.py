"""Benchmark for seccache: two workloads, a correctness gate and per-module
spans installed from outside the package.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 45 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `BASELINE.json` holds the
numbers of the commit the benchmark was defined on.
"""
