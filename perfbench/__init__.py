"""The repository benchmark: seeded workloads, end-to-end metrics and an
outside-in per-layer ledger.  Run ``python3 perfbench/run.py --help``."""
