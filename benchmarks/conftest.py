"""Benchmark harness configuration.

Each benchmark regenerates one paper table/figure and prints the
reproduced rows (run with ``-s`` to see them inline); the
pytest-benchmark timing table then shows the cost of regenerating each
result.

Every benchmark's timing additionally flows through the
:mod:`repro.obs` metrics registry (histogram ``bench.wall_s`` labelled
by test), and the session **merges** its results into ``BENCH_obs.json``
next to the repo root — the machine-readable perf trajectory that
``repro obs regress`` and future optimisation PRs diff against. Entries
for benchmarks this session did not run survive untouched, and re-run
entries keep a bounded per-benchmark ``history`` (see
:mod:`repro.obs.benchdoc` for the schema).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

# One BLAS/OpenMP thread, as perfbench pins it, set before anything
# imports NumPy (OpenBLAS reads these once, at load). Unpinned, OpenBLAS
# runs two threads on a 2-core box; when another process holds a core
# they stall and the batched MUSIC scan slows from ~0.2 ms to ~7 ms,
# enough to fail the bench.kernel.music_speedup >= 5 gate.
os.environ.update(
    {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    }
)

from repro import obs  # noqa: E402
from repro.obs.benchdoc import load_bench_document, merge_bench_document  # noqa: E402

#: Collected per-test entries for BENCH_obs.json, keyed by pytest nodeid.
_RESULTS: dict[str, dict[str, object]] = {}

BENCH_OBS_FILENAME = "BENCH_obs.json"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start_s = time.perf_counter()
    outcome = yield
    wall_s = time.perf_counter() - start_s
    obs.histogram("bench.wall_s", test=item.name).observe(wall_s)
    obs.counter("bench.tests.run").inc()
    entry: dict[str, object] = {
        "wall_s": wall_s,
        "outcome": "error" if outcome.excinfo is not None else "ok",
    }
    if outcome.excinfo is not None:
        obs.counter("bench.tests.failed").inc()
    # When the pytest-benchmark fixture ran, lift its calibrated stats —
    # they time just the benchmarked callable, not fixture setup.
    benchmark = getattr(item, "funcargs", {}).get("benchmark")
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        entry["mean_s"] = float(stats.mean)
        entry["rounds"] = int(getattr(stats, "rounds", 0) or len(stats.data))
    _RESULTS[item.nodeid] = entry


def _bench_obs_path(session: pytest.Session) -> Path:
    return Path(str(session.config.rootpath)) / BENCH_OBS_FILENAME


def pytest_sessionfinish(session, exitstatus):
    if not _RESULTS:
        return
    path = _bench_obs_path(session)
    document = merge_bench_document(
        load_bench_document(path),
        _RESULTS,
        obs.get_registry().snapshot(),
    )
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def pytest_terminal_summary(terminalreporter):
    if _RESULTS:
        path = _bench_obs_path(terminalreporter._session)
        terminalreporter.write_line(f"obs: per-benchmark timings written to {path}")
