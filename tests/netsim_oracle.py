"""Test oracle for :mod:`repro.netsim`: the per-pair link loops ``observe_many`` replaced.

Roaming ticks, initial attachment and inventory frames evaluate their
links with one :meth:`~repro.netsim.linkmodel.FleetLinkModel.observe_many`
broadcast. The loops here are the code they replaced, one scalar
:meth:`~repro.netsim.linkmodel.FleetLinkModel.observe` call per
(AP, node) pair and in the same order, interleaved with the decisions
exactly as before. :func:`scalar_links` swaps them in on the classes
the scenario runner instantiates, so a whole scenario can be rerun on
the loops and compared with production: the broadcast differs from the
scalar path by ~1e-12 dB, far below every threshold a decision uses,
so the two must agree on every :class:`~repro.netsim.runner.ScenarioResult`
field, trace digest included.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator, TypeVar

from repro.netsim.fleet import (
    MIN_DOWNLINK_SNR_DB,
    MIN_UPLINK_SINR_DB,
    FleetNode,
    InventoryProcess,
)
from repro.netsim.roaming import RoamingController

__all__ = ["ORACLES", "both_paths", "scalar_links"]

T = TypeVar("T")


# --- roaming ----------------------------------------------------------------------


def attach_all_reference(self: RoamingController) -> None:
    for node_id in sorted(self.nodes):
        node = self.nodes[node_id]
        best = _best_ap_reference(self, node)
        node.serving_ap = best
        self.aps[best].members.append(node_id)


def _best_ap_reference(self: RoamingController, node: FleetNode) -> str:
    pose = node.pose_at(self.sim.now_s)
    best_id: str | None = None
    best_rss_dbm = -math.inf
    for ap_id in sorted(self.aps):
        rss_dbm = self.model.observe(self.aps[ap_id].pose, pose).rss_dbm
        if rss_dbm > best_rss_dbm:
            best_rss_dbm = rss_dbm
            best_id = ap_id
    assert best_id is not None
    return best_id


def tick_reference(self: RoamingController) -> None:
    now_s = self.sim.now_s
    for node_id in sorted(self.nodes):
        node = self.nodes[node_id]
        serving = node.serving_ap
        if serving is None:
            continue
        pose = node.pose_at(now_s)
        serving_rss_dbm = self.model.observe(self.aps[serving].pose, pose).rss_dbm
        for ap_id in sorted(self.aps):
            if ap_id == serving:
                continue
            rss_dbm = self.model.observe(self.aps[ap_id].pose, pose).rss_dbm
            if rss_dbm > serving_rss_dbm + self.hysteresis_db:
                self._handoff(node, serving, ap_id, serving_rss_dbm, rss_dbm)
                break
    if self.horizon_s is None or now_s + self.interval_s <= self.horizon_s:
        self.sim.schedule(self.interval_s, self._tick)


# --- inventory --------------------------------------------------------------------


def _reachable_reference(self: InventoryProcess, node_id: str) -> bool:
    node = self.nodes[node_id]
    observation = self.model.observe(self.ap.pose, node.pose_at(self.sim.now_s))
    if observation.downlink_snr_db < MIN_DOWNLINK_SNR_DB:
        return False
    interference: tuple[float, ...] = ()
    if self._interference_dbm is not None:
        interference = self._interference_dbm(
            self.sim.now_s, node.pose_at(self.sim.now_s)
        )
    return self.model.uplink_sinr_db(observation, interference) >= MIN_UPLINK_SINR_DB


def run_frame_reference(self: InventoryProcess) -> None:
    """``InventoryProcess._run_frame`` with the draw and the link check interleaved."""
    if not self.pending or len(self.rounds) >= self.max_rounds:
        self._finish()
        return
    frame_size = self._frame_size
    slots: dict[int, list[str]] = {}
    heard = 0
    for tag in self.pending:
        slot = int(self.rng.integers(0, frame_size))
        if _reachable_reference(self, tag):
            slots.setdefault(slot, []).append(tag)
            heard += 1
    self._resolve_frame(frame_size, slots, heard)


# --- swapping ---------------------------------------------------------------------

#: ``(class, attribute, loop twin)`` for every broadcast call site.
ORACLES: tuple[tuple[type, str, Callable[..., None]], ...] = (
    (RoamingController, "attach_all", attach_all_reference),
    (RoamingController, "_tick", tick_reference),
    (InventoryProcess, "_run_frame", run_frame_reference),
)


@contextlib.contextmanager
def scalar_links() -> Iterator[None]:
    """Run everything inside on the per-pair loops instead of ``observe_many``."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in ORACLES]
    try:
        for owner, name, twin in ORACLES:
            setattr(owner, name, twin)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def both_paths(fn: Callable[[], T]) -> dict[str, T]:
    """``fn()`` on the broadcast link path and on the scalar loops."""
    batched = fn()
    with scalar_links():
        scalar = fn()
    return {"batched": batched, "scalar": scalar}
