"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at tiny sizes and asserts that:

* every metric ``BENCHMARK.json`` names is reported, with its unit;
* every output check passes;
* per-layer self times plus ``trace.unattributed_s`` sum to ``trace.wall_s``;
* the same seed gives the same output digests in both runs;
* with no program beside it, the benchmark exits non-zero without a result.

Exits 0 when all hold and 1 with the failed assertions otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
SECONDS = 2.0


def _run(workload: str, trace: bool) -> dict:
    result = run.run_workload(workload, SEED, SECONDS, trace, tiny=True)
    spec = run.load_spec()
    line = run.result_line([result], spec, trace, prefix=False)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {e["name"] for e in declared}, line["metrics"].keys()
    for entry in declared:
        reported = line["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"], (entry, reported)
        assert math.isfinite(reported["value"]), (entry, reported)
    assert line["correct"] and line["failed"] == 0, result["problems"]
    assert line["attempted"] >= 1
    return result


def _self_times_sum_to_wall(metrics: dict[str, float]) -> None:
    import layers

    self_s = sum(
        metrics[run.SELF_TIME_NAMES.get(group, f"{group}.self_s")] for group in layers.ENTRY_POINTS
    )
    total = self_s + metrics["trace.unattributed_s"]
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9), (
        total,
        metrics["trace.wall_s"],
    )


def _same_digests(first: dict, second: dict) -> None:
    common = set(first["digests"]) & set(second["digests"])
    assert common, "no op ran in both runs"
    for index in common:
        assert first["digests"][index] == second["digests"][index], index


def _bare_checkout_fails() -> None:
    """Only ``BENCHMARK.json`` and ``perfbench/``: must exit non-zero, print no result."""
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "session", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    if not run.bootstrap():
        print("selftest: no program to measure", file=sys.stderr)
        return 2
    checks = []
    for workload in ("session", "fleet", "corpus"):
        plain = _run(workload, trace=False)
        traced = _run(workload, trace=True)
        checks.append((f"{workload}: self times sum to traced wall",
                       lambda t=traced: _self_times_sum_to_wall(t["metrics"])))
        checks.append((f"{workload}: same seed, same digests",
                       lambda p=plain, t=traced: _same_digests(p, t)))
        print(f"ok {workload}: metrics, units and output checks")
    checks.append(("bare checkout exits non-zero", _bare_checkout_fails))
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"ok {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    print(json.dumps({"selftest": "pass" if not failed else "fail", "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
