"""Benchmark: fleet-scale discrete-event network simulation.

Records the netsim performance trajectory in ``BENCH_obs.json``:

* ``bench.netsim.events_per_s`` — raw event-kernel dispatch rate over
  the 1000-node single-AP scenario (inventory + ARQ transfers at
  link-budget fidelity), the unit the ISSUE's fleet-scale budget is
  written in.
* ``bench.netsim.wall_s`` — end-to-end wall time of that scenario; the
  acceptance bar is well under 120 s, asserted hard here so a perf
  regression cannot silently cross it.
* ``bench.netsim.three_ap_roaming.wall_s`` — wall time of the roaming
  scenario (120 tags, 3 APs, 30 simulated s), the one whose cost is the
  per-tick link evaluation of the whole fleet. Hard-asserted under
  2 s: the batched link layer runs it in ~0.5 s on 2 cores, the
  per-pair loops it replaced in ~6 s. The ROADMAP target is 1 s.
"""

from __future__ import annotations

import time

from repro import obs
from repro.netsim import run_scenario

SCENARIO = "single-ap-1000"
WALL_BUDGET_S = 120.0
ROAMING_SCENARIO = "three-ap-roaming"
ROAMING_WALL_BUDGET_S = 2.0
ROAMING_TARGET_S = 1.0


def test_bench_netsim_events_per_s(benchmark):
    run_scenario(SCENARIO, seed=0)  # absorb warm-up (imports, caches)

    start_s = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_scenario(SCENARIO, seed=0), rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - start_s

    assert result.inventoried == result.n_nodes
    assert result.delivery_ratio > 0.9
    events_per_s = result.events_processed / wall_s
    obs.gauge("bench.netsim.events_per_s").set(events_per_s)
    obs.gauge("bench.netsim.wall_s").set(wall_s)
    # The ISSUE's hard acceptance bar for the 1000-node scenario.
    assert wall_s < WALL_BUDGET_S
    print(
        f"\nnetsim: {SCENARIO} ran {result.events_processed} events in "
        f"{wall_s:.2f} s ({events_per_s:.0f} events/s, "
        f"{result.inventoried} tags inventoried, "
        f"{result.transfers_delivered}/{result.transfers_total} delivered)"
    )


def test_bench_netsim_three_ap_roaming_wall_s(benchmark):
    run_scenario(ROAMING_SCENARIO, seed=0)  # absorb warm-up (imports, caches)

    start_s = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_scenario(ROAMING_SCENARIO, seed=0), rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - start_s

    assert result.handoffs > 0
    obs.gauge("bench.netsim.three_ap_roaming.wall_s").set(wall_s)
    assert wall_s < ROAMING_WALL_BUDGET_S
    print(
        f"\nnetsim: {ROAMING_SCENARIO} ran in {wall_s:.2f} s "
        f"(target {ROAMING_TARGET_S:.1f} s, gate {ROAMING_WALL_BUDGET_S:.1f} s; "
        f"{result.handoffs} handoffs, {result.events_processed} events)"
    )
