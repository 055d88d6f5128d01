"""The repository benchmark: four workloads, an independent output checker
and per-layer attribution.  Entry point: ``python3 perfbench/run.py``."""
