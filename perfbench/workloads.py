"""The benchmark's three workloads: seeded inputs, one op, output checks.

Every workload is a closed loop with one client: op ``i`` starts when
op ``i - 1`` has returned. Op ``i`` of a run draws its inputs from
``numpy.random.default_rng([seed, i])`` and nothing else, so a seed
names the same input stream on every machine and at any run length.

Each op returns an :class:`Outcome`: a digest of what the program
produced (compared with ``references.json`` when that holds the op),
the problems the output checks found, the work done in the workload's
unit, and the quality figures the run prints beside the timings.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import datasets
from repro.channel.scene import Scene2D
from repro.datasets import DatasetConfig
from repro.datasets.schema import SCENE_KINDS
from repro.errors import ProtocolError
from repro.netsim import runner
from repro.netsim.scenarios import build_fleet, get_scenario
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator

__all__ = ["Outcome", "WORKLOADS", "Workload", "cpu_count", "op_rng"]

#: Payload size of each session's downlink and uplink exchange.
PAYLOAD_BYTES = 32
#: Single-node scene bounds: inside the FSA scan band and Figs 12-15.
DISTANCE_M = (1.0, 6.0)
AZIMUTH_DEG = (-20.0, 20.0)
ORIENTATION_DEG = (-20.0, 20.0)
FLEET_SCENARIO = "three-ap-roaming"
#: Fault rates of each corpus; with 3 scenes and 3 draws on each of
#: distance, azimuth and orientation this gives 3*3*3*3*4 = 324 rows.
CORPUS_FAULT_RATES = (0.0, 0.05, 0.1, 0.2)
CORPUS_DRAWS_PER_AXIS = 3
CORPUS_ROWS_PER_SHARD = 128
CORPUS_BLOCK_ROWS = 64
#: Tiny corpora have 12 rows; small blocks keep them on the pool.
CORPUS_TINY_BLOCK_ROWS = 4


def op_rng(seed: int, index: int) -> np.random.Generator:
    """The only source of op ``index``'s inputs under ``seed``."""
    return np.random.default_rng([seed, index])


def _digest(*parts: object) -> str:
    text = "|".join(format(p, ".9g") if isinstance(p, float) else str(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one op produced and what its output checks found."""

    digest: str
    problems: list[str] = field(default_factory=list)
    work: float = 0.0
    quality: dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    """A workload's ops plus the context they share within one run."""

    name: str
    unit: str
    tiny: bool = False
    workers: int = 1
    work_dir: Path | None = None
    pool: object = None

    def prepare(self, seed: int) -> None:
        """Build op 0's inputs; the set-up probe stops the clock after this."""
        self.make_input(seed, 0)

    def make_input(self, seed: int, index: int) -> object:
        raise NotImplementedError

    def run(self, inputs: object) -> Outcome:
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """One untimed op on an input no measured op uses."""
        self.run(self.make_input(seed, 2**31))

    def close(self) -> None:
        pass


# --- session: one node, two-way links plus localization ---------------------------------


@dataclass(frozen=True)
class SessionInput:
    distance_m: float
    azimuth_deg: float
    orientation_deg: float
    sim_seed: int
    downlink: bytes
    uplink: bytes


class SessionWorkload(Workload):
    """localize -> node orientation -> 32 B downlink -> 32 B uplink."""

    def make_input(self, seed: int, index: int) -> SessionInput:
        rng = op_rng(seed, index)
        return SessionInput(
            distance_m=float(rng.uniform(*DISTANCE_M)),
            azimuth_deg=float(rng.uniform(*AZIMUTH_DEG)),
            orientation_deg=float(rng.uniform(*ORIENTATION_DEG)),
            sim_seed=int(rng.integers(2**31)),
            downlink=rng.bytes(PAYLOAD_BYTES),
            uplink=rng.bytes(PAYLOAD_BYTES),
        )

    def run(self, inputs: SessionInput) -> Outcome:
        scene = Scene2D.single_node(
            inputs.distance_m, inputs.azimuth_deg, inputs.orientation_deg
        )
        sim = MilBackSimulator(scene, seed=inputs.sim_seed)
        link = MilBackLink(sim)
        fix = link.localize()
        orientation = sim.simulate_node_orientation()
        delivered = []
        for call, payload in (
            (link.send_to_node, inputs.downlink),
            (link.receive_from_node, inputs.uplink),
        ):
            try:
                delivered.append(call(payload).delivered)
            except ProtocolError:
                delivered.append(False)
        estimates = (fix.distance_est_m, fix.angle_est_deg, orientation.orientation_est_deg)
        problems = []
        if not all(math.isfinite(v) for v in estimates):
            problems.append(f"non-finite estimate {estimates}")
        elif not (0.0 < fix.distance_est_m < 30.0 and abs(fix.angle_est_deg) <= 90.0):
            problems.append(f"location fix off the scene: {estimates[:2]}")
        elif abs(orientation.orientation_est_deg) > 90.0:
            problems.append(f"orientation estimate off the scene: {estimates[2]}")
        return Outcome(
            digest=_digest(*estimates, *delivered),
            problems=problems,
            work=1.0,
            quality={
                "range_err_cm": abs(fix.distance_error_m) * 100.0,
                "orient_err_deg": abs(orientation.error_deg),
                "packets": 2.0,
                "delivered": float(sum(delivered)),
            },
        )


# --- fleet: 120 tags, 3 APs, 30 s simulated -----------------------------------------------


class FleetWorkload(Workload):
    """``run_scenario("three-ap-roaming", s)`` with ``s`` drawn per op."""

    @property
    def scenario(self) -> str:
        return "five-node-crosscheck" if self.tiny else FLEET_SCENARIO

    def make_input(self, seed: int, index: int) -> int:
        """A scenario seed whose fleet has exactly the nominal share of mobile tags.

        Mobile tags defeat the link cache, so a scenario's cost follows
        its binomial draw of them: 30 to 45 of 120 cost 4.1 to 6.8 s here.
        Holding the count at ``mobile_fraction * n_nodes`` (36) keeps the
        workload's 70/30 static/mobile mix in every op.
        """
        rng = op_rng(seed, index)
        spec = get_scenario(self.scenario)
        target = round(spec.mobile_fraction * spec.n_nodes)
        while True:
            candidate = int(rng.integers(2**31))
            _, nodes = build_fleet(spec, candidate)
            if sum(node.trajectory is not None for node in nodes.values()) == target:
                return candidate

    def warm_up(self, seed: int) -> None:
        runner.run_scenario("five-node-crosscheck", self.make_input(seed, 2**31))

    def run(self, inputs: int) -> Outcome:
        spec = get_scenario(self.scenario)
        result = runner.run_scenario(self.scenario, inputs)
        problems = []
        if not 0 < result.inventoried <= spec.n_nodes:
            problems.append(f"inventoried {result.inventoried} of {spec.n_nodes} tags")
        if not 0 <= result.transfers_delivered <= result.transfers_total:
            problems.append(
                f"delivered {result.transfers_delivered} of {result.transfers_total}"
            )
        if spec.horizon_s is not None and result.sim_time_s != spec.horizon_s:
            problems.append(f"stopped at {result.sim_time_s} s, horizon {spec.horizon_s} s")
        if result.events_processed <= 0 or len(result.trace_digest) != 64:
            problems.append("no events or no trace digest")
        return Outcome(
            digest=_digest(
                result.trace_digest,
                result.inventoried,
                result.transfers_total,
                result.transfers_delivered,
                result.handoffs,
                result.events_processed,
            ),
            problems=problems,
            work=result.sim_time_s,
            quality={
                "packets": float(result.transfers_total),
                "delivered": float(result.transfers_delivered),
            },
        )


# --- corpus: small datasets on one warm pool ------------------------------------------------


class CorpusWorkload(Workload):
    """``generate_dataset`` on the warm pool, then ``validate_corpus``."""

    def make_input(self, seed: int, index: int) -> DatasetConfig:
        rng = op_rng(seed, index)
        draws = 1 if self.tiny else CORPUS_DRAWS_PER_AXIS

        def axis(bounds: tuple[float, float]) -> tuple[float, ...]:
            return tuple(sorted(round(float(v), 2) for v in rng.uniform(*bounds, draws)))

        return DatasetConfig(
            scenes=SCENE_KINDS,
            distances_m=axis(DISTANCE_M),
            azimuths_deg=axis(AZIMUTH_DEG),
            orientations_deg=axis(ORIENTATION_DEG),
            fault_rates=CORPUS_FAULT_RATES,
            seed=int(rng.integers(2**31)),
        )

    def run(self, inputs: DatasetConfig) -> Outcome:
        out_dir = self.work_dir / "corpus"
        shutil.rmtree(out_dir, ignore_errors=True)
        manifest = datasets.generate_dataset(
            inputs,
            out_dir,
            max_workers=self.workers,
            rows_per_shard=CORPUS_ROWS_PER_SHARD,
            block_rows=CORPUS_TINY_BLOCK_ROWS if self.tiny else CORPUS_BLOCK_ROWS,
            pool=self.pool,
        )
        checked = datasets.validate_corpus(out_dir)
        problems = []
        if checked != manifest:
            problems.append("manifest on disk differs from the one returned")
        if not (manifest["complete"] and manifest["rows_written"] == inputs.n_rows):
            problems.append(f"wrote {manifest['rows_written']} of {inputs.n_rows} rows")
        shards = [shard["sha256"] for shard in manifest["shards"]]
        return Outcome(
            digest=_digest(*shards),
            problems=problems,
            work=float(manifest["rows_written"]),
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir / "corpus", ignore_errors=True)


#: Workload name -> (class, unit of ``work_per_s``).
WORKLOADS: dict[str, tuple[type[Workload], str]] = {
    "session": (SessionWorkload, "sessions"),
    "fleet": (FleetWorkload, "simulated s"),
    "corpus": (CorpusWorkload, "rows"),
}


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
