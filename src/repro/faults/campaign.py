"""Resilience campaigns: sweep fault rate, measure degradation.

A campaign runs ``n_trials`` independent end-to-end trials at each
fault rate: one localization fix, one raw downlink and uplink burst
(for BER), and one ARQ-protected transfer over a fresh
:class:`~repro.protocol.arq.ReliableChannel`. Each trial gets *two*
pre-spawned RNG streams — one for the simulation, one for the fault
plan — exactly the :mod:`repro.parallel` discipline, so a seeded
campaign replays bit-for-bit serial or on any worker count.

The output is a set of degradation curves (delivery ratio, mean
attempts, range/AoA error, BER vs fault rate) plus the resilience
invariant the CI chaos-smoke job enforces: below the configured
drop-rate threshold the ARQ layer must deliver *every* transfer within
a bounded mean attempt count (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.channel.scene import Scene2D
from repro.errors import ConfigurationError, FaultInjectionError, MilBackError
from repro.faults.plan import FaultPlan, activate
from repro.faults.spec import FaultSpec
from repro.node.firmware import PayloadDirection
from repro.parallel import parallel_map, resolve_max_workers
from repro.protocol.arq import ReliableChannel, RetryBackoff
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator
from repro.utils.rng import RngLike, spawn_rngs

__all__ = [
    "CampaignConfig",
    "CampaignPoint",
    "CampaignResult",
    "run_campaign",
    "check_resilience",
    "main",
]

#: Number of payload bits in the raw BER probe bursts.
_BER_PROBE_BITS = 256


@dataclass(frozen=True)
class CampaignConfig:
    """One resilience campaign: which faults, swept over which rates.

    ``kinds`` are fault-kind names; at each swept ``rate`` every kind is
    armed as ``FaultSpec(kind, rate, intensity)``. The ARQ invariant
    fields document the resilience contract: at rates at or below
    ``drop_rate_threshold`` the channel must deliver 100% of transfers
    with mean attempts at or below ``mean_attempts_bound``.
    """

    kinds: tuple[str, ...] = ("link_drop",)
    rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    intensity: float = 1.0
    n_trials: int = 5
    distance_m: float = 3.0
    orientation_deg: float = 10.0
    payload: bytes = b"MilBack!"
    bit_rate_bps: float = 10e6
    ack_bit_rate_bps: float = 2e6
    max_attempts: int = 8
    backoff: Optional[RetryBackoff] = None
    timeout_s: Optional[float] = None
    drop_rate_threshold: float = 0.2
    mean_attempts_bound: float = 4.0

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ConfigurationError("campaign needs at least one fault kind")
        if not self.rates:
            raise ConfigurationError("campaign needs at least one rate")
        if self.n_trials < 1:
            raise ConfigurationError("campaign needs at least one trial")
        # Validate kinds/rates/intensity eagerly via FaultSpec.
        for rate in self.rates:
            self.specs_at(rate)

    def specs_at(self, rate: float) -> tuple[FaultSpec, ...]:
        """The fault specs this campaign arms at one swept rate."""
        return tuple(
            FaultSpec(kind, rate=rate, intensity=self.intensity) for kind in self.kinds
        )


@dataclass(frozen=True)
class CampaignPoint:
    """Aggregated outcomes of all trials at one fault rate."""

    rate: float
    n_trials: int
    n_delivered: int
    n_trial_errors: int
    mean_attempts: float
    mean_retries_after_ack_failure: float
    range_error_m: float
    angle_error_deg: float
    downlink_ber: float
    uplink_ber: float
    injected: int

    @property
    def delivery_ratio(self) -> float:
        return self.n_delivered / self.n_trials


@dataclass(frozen=True)
class CampaignResult:
    """A full campaign: config + one point per swept rate."""

    config: CampaignConfig
    points: tuple[CampaignPoint, ...]

    def violations(self) -> list[str]:
        """Resilience-invariant breaches (empty when the contract holds).

        Delivery is compared on trial *counts*, not ratios, so the 100%
        requirement is exact.
        """
        found = []
        for point in self.points:
            if point.rate > self.config.drop_rate_threshold:
                continue
            if point.n_delivered != point.n_trials:
                found.append(
                    f"rate {point.rate:g}: delivered {point.n_delivered}/"
                    f"{point.n_trials} transfers (expected all) below the "
                    f"drop-rate threshold {self.config.drop_rate_threshold:g}"
                )
            if point.mean_attempts > self.config.mean_attempts_bound:
                found.append(
                    f"rate {point.rate:g}: mean attempts "
                    f"{point.mean_attempts:.2f} exceeds the bound "
                    f"{self.config.mean_attempts_bound:g}"
                )
        return found

    def rows(self) -> str:
        """Human-readable degradation table."""
        kinds = "+".join(self.config.kinds)
        lines = [
            f"Fault campaign: {kinds} @ intensity {self.config.intensity:g}, "
            f"{self.config.n_trials} trials/point, d = {self.config.distance_m:g} m",
            f"ARQ: max {self.config.max_attempts} attempts; invariant: 100% "
            f"delivery and <= {self.config.mean_attempts_bound:g} mean attempts "
            f"at rate <= {self.config.drop_rate_threshold:g}",
            "",
            "rate   deliv  attempts  ack-retry  range[m]  angle[deg]  "
            "DL BER   UL BER   injected",
        ]
        for p in self.points:
            lines.append(
                f"{p.rate:5.2f}  {p.delivery_ratio:5.0%}  {p.mean_attempts:8.2f}  "
                f"{p.mean_retries_after_ack_failure:9.2f}  "
                f"{_fmt(p.range_error_m, '8.3f')}  {_fmt(p.angle_error_deg, '10.2f')}  "
                f"{_fmt(p.downlink_ber, '7.4f')}  {_fmt(p.uplink_ber, '7.4f')}  "
                f"{p.injected:8d}"
            )
        return "\n".join(lines)


def _fmt(value: float, spec: str) -> str:
    """Format a float, keeping NaN (no trial produced the metric) visible."""
    if math.isnan(value):
        width = int(spec.split(".")[0])
        return "nan".rjust(width)
    return format(value, spec)


def _run_trial(
    config: CampaignConfig,
    specs: tuple[FaultSpec, ...],
    sim_rng: np.random.Generator,
    fault_rng: np.random.Generator,
) -> tuple[float, ...]:
    """One end-to-end trial under an active fault plan.

    Returns plain floats (delivered, attempts, ack retries, |range err|,
    |angle err|, DL BER, UL BER, error count, injections) so results
    pickle cheaply across the worker boundary.
    """
    scene = Scene2D.single_node(config.distance_m, orientation_deg=config.orientation_deg)
    sim = MilBackSimulator(scene, seed=sim_rng)
    plan = FaultPlan(specs, rng=fault_rng)
    nan = float("nan")
    range_error_m, angle_error_deg = nan, nan
    downlink_ber, uplink_ber = nan, nan
    trial_errors = 0
    with activate(plan):
        try:
            fix = sim.simulate_localization()
            range_error_m = abs(fix.distance_error_m)
            angle_error_deg = abs(fix.angle_error_deg)
        except MilBackError:
            trial_errors += 1
        probe_bits = sim_rng.integers(0, 2, size=_BER_PROBE_BITS)
        try:
            downlink_ber = sim.simulate_downlink(probe_bits).ber
        except MilBackError:
            trial_errors += 1
        try:
            uplink_ber = sim.simulate_uplink(probe_bits).ber
        except MilBackError:
            trial_errors += 1
        channel = ReliableChannel(
            MilBackLink(sim),
            max_attempts=config.max_attempts,
            backoff=config.backoff,
            timeout_s=config.timeout_s,
        )
        try:
            transfer = channel.send_reliable(
                config.payload,
                direction=PayloadDirection.UPLINK,
                bit_rate_bps=config.bit_rate_bps,
                ack_bit_rate_bps=config.ack_bit_rate_bps,
            )
            delivered = 1.0 if transfer.delivered else 0.0
            attempts = float(transfer.attempts)
        except MilBackError:
            # Only failures *outside* the ARQ retry contract land here
            # (e.g. hardware driven out of envelope by an extreme fault).
            trial_errors += 1
            delivered, attempts = 0.0, float(config.max_attempts)
        retries_after_ack = float(channel.stats.retries_after_ack_failure)
    injected = float(sum(plan.injections.values()))
    return (
        delivered,
        attempts,
        retries_after_ack,
        range_error_m,
        angle_error_deg,
        downlink_ber,
        uplink_ber,
        float(trial_errors),
        injected,
    )


def _campaign_task(
    config: CampaignConfig,
    task: tuple[tuple[FaultSpec, ...], np.random.Generator, np.random.Generator],
) -> tuple[float, ...]:
    """Module-level task wrapper so campaigns stay picklable.

    ``functools.partial(_campaign_task, config)`` crosses a pickle
    boundary (the config and specs are frozen dataclasses of plain
    data), which lets campaigns ride an installed
    :class:`~repro.parallel.PersistentPool` instead of forking a
    one-shot pool.
    """
    return _run_trial(config, *task)


def _nanmean(values: Sequence[float]) -> float:
    """Mean ignoring NaNs; NaN when every value is NaN."""
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")


def run_campaign(
    config: CampaignConfig,
    seed: RngLike = 0,
    max_workers: int | None = None,
) -> CampaignResult:
    """Execute the campaign, serial or on a worker pool.

    Every ``(rate, trial)`` pair consumes exactly the two RNG streams a
    serial run would hand it, so the returned points — and the merged
    ``faults.*`` obs counters — are identical at any worker count.
    """
    rngs = spawn_rngs(seed, 2 * len(config.rates) * config.n_trials)
    tasks = []
    for i, rate in enumerate(config.rates):
        specs = config.specs_at(rate)
        for j in range(config.n_trials):
            k = 2 * (i * config.n_trials + j)
            tasks.append((specs, rngs[k], rngs[k + 1]))
    workers = resolve_max_workers(max_workers)
    with obs.span(
        "faults.campaign",
        kinds=",".join(config.kinds),
        points=len(config.rates),
        trials=config.n_trials,
    ):
        result = parallel_map(
            functools.partial(_campaign_task, config), tasks, max_workers=workers
        )
        obs.counter("faults.campaign.points").inc(len(config.rates))
        obs.counter("faults.campaign.trials").inc(len(tasks))
        points = []
        for i, rate in enumerate(config.rates):
            rows = result.values[i * config.n_trials : (i + 1) * config.n_trials]
            delivered = int(round(sum(row[0] for row in rows)))
            point = CampaignPoint(
                rate=float(rate),
                n_trials=config.n_trials,
                n_delivered=delivered,
                n_trial_errors=int(round(sum(row[7] for row in rows))),
                mean_attempts=float(np.mean([row[1] for row in rows])),
                mean_retries_after_ack_failure=float(
                    np.mean([row[2] for row in rows])
                ),
                range_error_m=_nanmean([row[3] for row in rows]),
                angle_error_deg=_nanmean([row[4] for row in rows]),
                downlink_ber=_nanmean([row[5] for row in rows]),
                uplink_ber=_nanmean([row[6] for row in rows]),
                injected=int(round(sum(row[8] for row in rows))),
            )
            obs.counter("faults.campaign.delivered").inc(point.n_delivered)
            points.append(point)
    return CampaignResult(config=config, points=tuple(points))


def check_resilience(result: CampaignResult) -> None:
    """Raise :class:`FaultInjectionError` when the invariant is broken."""
    violations = result.violations()
    if violations:
        obs.counter("faults.campaign.invariant_violations").inc(len(violations))
        raise FaultInjectionError(
            "resilience invariant violated:\n  " + "\n  ".join(violations)
        )


def main(
    kinds: Sequence[str] = ("link_drop",),
    rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    intensity: float = 1.0,
    n_trials: int = 5,
    distance_m: float = 3.0,
    seed: int = 0,
    max_workers: int | None = None,
) -> CampaignResult:
    """Entry point behind ``python -m repro faults``."""
    config = CampaignConfig(
        kinds=tuple(kinds),
        rates=tuple(float(rate) for rate in rates),
        intensity=intensity,
        n_trials=n_trials,
        distance_m=distance_m,
    )
    return run_campaign(config, seed=seed, max_workers=max_workers)
