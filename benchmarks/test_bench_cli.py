"""Benchmark: CLI cold start.

Records ``bench.cli.cold_start_s`` in ``BENCH_obs.json``: the median
wall time of 5 fresh ``python -m repro list`` subprocesses, interpreter
start to exit. Nearly all of it is importing the package, so the gauge
moves with whatever ``import repro`` pulls in. Hard-asserted under
1.2 s: with ``scipy.signal`` imported at module top by the engine it
measured ~1.8 s on 2 cores; imported on first use, ~0.6 s.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import obs

RUNS = 5
COLD_START_BUDGET_S = 1.2
SRC = Path(__file__).resolve().parent.parent / "src"


def _cold_start_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start_s = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        check=True,
        stdout=subprocess.DEVNULL,
        env=env,
    )
    return time.perf_counter() - start_s


def test_bench_cli_cold_start_s(benchmark):
    samples = benchmark.pedantic(
        lambda: [_cold_start_s() for _ in range(RUNS)], rounds=1, iterations=1
    )
    cold_start_s = statistics.median(samples)
    obs.gauge("bench.cli.cold_start_s").set(cold_start_s)
    assert cold_start_s < COLD_START_BUDGET_S
    print(
        f"\ncli: `repro list` cold start {cold_start_s:.2f} s "
        f"(median of {RUNS}; gate {COLD_START_BUDGET_S:.1f} s)"
    )
