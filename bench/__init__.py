"""The repository benchmark: four grid workloads driven through public APIs.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
measures one workload and prints one JSON result line; ``python -m
bench`` runs, traces and compares whole sets (see README.md).
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Everything a run leaves behind: caches, spans, result records.
OUT_DIR = BENCH_DIR / "out"
