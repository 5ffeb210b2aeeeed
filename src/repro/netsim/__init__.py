"""Fleet-scale discrete-event network simulation.

The figure-level simulator (:mod:`repro.sim`) synthesizes waveforms for
one link at a time; this package answers the *network* questions the
paper's §7 raises — how fast can one AP inventory a thousand tags, what
does SDM buy at fleet scale, how do mobile tags roam across APs — by
driving the existing protocol machinery (slotted inventory, SDM
scheduling, stop-and-wait ARQ) over a deterministic event kernel at
link-budget fidelity.

Entry points: :func:`repro.netsim.runner.run_scenario` for one named
scenario, :func:`repro.netsim.runner.run_matrix` for a comparison
matrix, and the ``repro netsim`` CLI for both. Every run is a pure
function of ``(scenario, seed)``; see ``docs/NETWORK.md``.
"""

from __future__ import annotations

from repro.netsim.core import EventQueue, NetworkSimulation
from repro.netsim.fleet import (
    FleetAp,
    FleetLink,
    FleetNode,
    InventoryProcess,
    TransferProcess,
)
from repro.netsim.linkmodel import FleetLinkModel, LinkArrays, LinkObservation
from repro.netsim.roaming import RoamingController
from repro.netsim.runner import (
    ScenarioResult,
    dump_json,
    matrix_document,
    render_table,
    run_matrix,
    run_scenario,
)
from repro.netsim.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    build_fleet,
    get_scenario,
    scenario_seed,
)

__all__ = [
    "EventQueue",
    "NetworkSimulation",
    "FleetAp",
    "FleetLink",
    "FleetNode",
    "InventoryProcess",
    "TransferProcess",
    "FleetLinkModel",
    "LinkObservation",
    "LinkArrays",
    "RoamingController",
    "ScenarioResult",  # milback: disable=ML014 — public result type
    "run_scenario",
    "run_matrix",
    "render_table",
    "matrix_document",
    "dump_json",
    "SCENARIOS",
    "ScenarioSpec",
    "build_fleet",
    "get_scenario",
    "scenario_seed",
]
