"""Scenario execution and the matrix runner.

``run_scenario`` wires one scenario's fleet onto a fresh event kernel,
runs it to completion, and reduces the run to a plain-data
:class:`ScenarioResult` (picklable, so results cross worker boundaries
cheaply). ``run_matrix`` fans a list of scenario names through
:func:`repro.parallel.parallel_map` — each scenario is a pure function
of ``(name, seed)``, so the matrix is byte-identical at any worker
count, and rides an installed :class:`repro.parallel.PersistentPool`
when one is active.

Outputs come in two shapes: a human-readable comparison table
(:func:`render_table`) and a canonical JSON document
(:func:`matrix_document` + :func:`dump_json`) containing only
simulated quantities — no wall-clock — so runs diff byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass

from repro import obs
from repro.parallel import parallel_map, resolve_max_workers
from repro.protocol.inventory import InventoryResult

from repro.netsim.core import NetworkSimulation
from repro.netsim.fleet import FleetAp, InventoryProcess, TransferProcess
from repro.netsim.linkmodel import FleetLinkModel
from repro.netsim.roaming import RoamingController
from repro.netsim.scenarios import (
    ScenarioSpec,
    build_fleet,
    get_scenario,
    scenario_seed,
)
from repro.utils.rng import indexed_rngs

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "run_matrix",
    "render_table",
    "matrix_document",
    "dump_json",
]


@dataclass(frozen=True)
class ScenarioResult:
    """Plain-data outcome of one scenario run."""

    name: str
    version: int
    seed: int
    n_nodes: int
    n_aps: int
    inventoried: int
    rounds: int
    total_slots: int
    slots_per_tag: float
    inventory_s: float
    tags_per_s: float
    transfers_total: int
    transfers_delivered: int
    delivery_ratio: float
    handoffs: int
    events_processed: int
    sim_time_s: float
    trace_events: int
    trace_dropped: int
    trace_digest: str


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run one named scenario to completion on a fresh kernel."""
    spec = get_scenario(name)
    with obs.span("netsim.scenario", scenario=name, seed=seed):
        result = _execute(spec, seed)
    obs.counter("netsim.scenarios.run").inc()
    return result


def _execute(spec: ScenarioSpec, seed: int) -> ScenarioResult:
    derived = scenario_seed(seed, spec.name)
    aps, nodes = build_fleet(spec, seed)
    model = FleetLinkModel()
    sim = NetworkSimulation(trace_capacity=spec.trace_capacity)

    controller: RoamingController | None = None
    interference_fields: dict[str, object] = {}
    if spec.n_aps > 1:
        controller = RoamingController(
            sim,
            model,
            aps,
            nodes,
            interval_s=spec.roam_interval_s,
            hysteresis_db=spec.hysteresis_db,
            horizon_s=spec.horizon_s,
        )
        controller.attach_all()
        controller.start()
        interference_fields = {
            ap.ap_id: controller.interference_for(ap.ap_id) for ap in aps
        }
    else:
        # Single AP serves the whole fleet, in entity-index order — the
        # same order SlottedInventory walks a scene's placements.
        aps[0].members = sorted(nodes)
        for node_id in aps[0].members:
            nodes[node_id].serving_ap = aps[0].ap_id

    inventories: dict[str, InventoryResult] = {}
    transfers: dict[str, TransferProcess] = {}
    inventory_done_s: dict[str, float] = {}

    def _start_ap(ap: FleetAp, ap_index: int) -> None:
        if not ap.members:
            return
        inventory_rng = indexed_rngs(derived, spec.n_nodes + ap_index, 1)[0]
        field = interference_fields.get(ap.ap_id)

        def _on_inventory_done(result: InventoryResult) -> None:
            inventories[ap.ap_id] = result
            inventory_done_s[ap.ap_id] = sim.now_s
            if spec.transfers and result.inventoried:
                process = TransferProcess(
                    sim,
                    model,
                    ap,
                    nodes,
                    result.inventoried,
                    payload_bytes=spec.payload_bytes,
                    max_attempts=spec.max_attempts,
                    interference_dbm=field,
                )
                transfers[ap.ap_id] = process
                process.start()

        InventoryProcess(
            sim,
            model,
            ap,
            nodes,
            inventory_rng,
            max_rounds=spec.max_rounds,
            frame_cap=spec.frame_cap,
            slot_s=spec.slot_s,
            interference_dbm=field,
            on_complete=_on_inventory_done,
        ).start()

    for ap_index, ap in enumerate(aps):
        _start_ap(ap, ap_index)
    sim.run(until_s=spec.horizon_s)

    inventoried = sum(len(r.inventoried) for r in inventories.values())
    rounds = sum(r.n_rounds for r in inventories.values())
    total_slots = sum(r.total_slots for r in inventories.values())
    inventory_s = max(inventory_done_s.values(), default=0.0)
    transfers_total = sum(len(p.results) for p in transfers.values())
    transfers_delivered = sum(p.delivered for p in transfers.values())
    digest = hashlib.sha256(sim.trace.render().encode()).hexdigest()
    return ScenarioResult(
        name=spec.name,
        version=spec.version,
        seed=seed,
        n_nodes=spec.n_nodes,
        n_aps=spec.n_aps,
        inventoried=inventoried,
        rounds=rounds,
        total_slots=total_slots,
        slots_per_tag=(total_slots / inventoried) if inventoried else 0.0,
        inventory_s=inventory_s,
        tags_per_s=(inventoried / inventory_s) if inventory_s > 0 else 0.0,
        transfers_total=transfers_total,
        transfers_delivered=transfers_delivered,
        delivery_ratio=(
            transfers_delivered / transfers_total if transfers_total else 0.0
        ),
        handoffs=controller.handoffs if controller is not None else 0,
        events_processed=sim.events_processed,
        sim_time_s=sim.now_s,
        trace_events=len(sim.trace),
        trace_dropped=sim.trace.dropped,
        trace_digest=digest,
    )


def _scenario_task(seed: int, name: str) -> ScenarioResult:
    """Module-level matrix task so fan-out stays picklable.

    ``functools.partial(_scenario_task, seed)`` crosses the pickle
    boundary, letting the matrix ride an installed
    :class:`~repro.parallel.PersistentPool` instead of forking a
    one-shot pool.
    """
    return run_scenario(name, seed=seed)


def run_matrix(
    names: list[str] | tuple[str, ...],
    seed: int = 0,
    max_workers: int | None = None,
) -> list[ScenarioResult]:
    """Run several scenarios, fanned across workers.

    Each scenario is independent and seeded through
    :func:`~repro.netsim.scenarios.scenario_seed`, so the returned list
    (ordered as ``names``) and the merged obs counters are identical at
    any worker count.
    """
    for name in names:
        get_scenario(name)  # fail fast on typos, before forking
    workers = resolve_max_workers(max_workers)
    with obs.span("netsim.matrix", scenarios=len(names), seed=seed):
        result = parallel_map(
            functools.partial(_scenario_task, seed), list(names), max_workers=workers
        )
    return list(result.values)


def render_table(results: list[ScenarioResult]) -> str:
    """Human-readable comparison table across scenarios."""
    lines = [
        "scenario                 ver  nodes  aps  invent  rounds  "
        "slots/tag   tags/s  deliv  handoff    events",
    ]
    for r in results:
        lines.append(
            f"{r.name:<24} {r.version:3d}  {r.n_nodes:5d}  {r.n_aps:3d}  "
            f"{r.inventoried:6d}  {r.rounds:6d}  {r.slots_per_tag:9.2f}  "
            f"{r.tags_per_s:7.0f}  {r.delivery_ratio:5.0%}  "
            f"{r.handoffs:7d}  {r.events_processed:8d}"
        )
    return "\n".join(lines)


def matrix_document(results: list[ScenarioResult], seed: int) -> dict:
    """Canonical JSON-able document for a matrix run.

    Simulated quantities only — no wall-clock, no hostnames — so two
    runs of the same (names, seed) produce byte-identical dumps.
    """
    return {
        "netsim_matrix_version": 1,
        "seed": seed,
        "scenarios": [asdict(r) for r in results],
    }


def dump_json(document: dict) -> str:
    """Canonical byte-stable JSON encoding."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
