"""Free-space propagation at mmWave.

The terms the paper's ranges and SNRs rest on: free-space path loss and
delay (composed into the node's link budgets by
:func:`repro.sim.linkbudget.port_gains_db`), and the radar equation for
environmental clutter.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ChannelError

__all__ = [
    "free_space_path_loss_db",
    "propagation_delay_s",
    "propagation_phase_rad",
    "clutter_received_power_dbm",
    "complex_path_gain",
]


def free_space_path_loss_db(distance_m, frequency_hz):
    """One-way free-space path loss 20 log10(4π d f / c) [dB]."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(d <= 0):
        raise ChannelError("distance must be positive")
    if np.any(f <= 0):
        raise ChannelError("frequency must be positive")
    loss = 20.0 * np.log10(4.0 * np.pi * d * f / SPEED_OF_LIGHT)
    return loss if loss.ndim else float(loss)


def propagation_delay_s(distance_m: float) -> float:
    """One-way propagation delay d/c [s]."""
    if distance_m < 0:
        raise ChannelError("distance must be non-negative")
    return distance_m / SPEED_OF_LIGHT


def propagation_phase_rad(distance_m: float, frequency_hz: float) -> float:
    """Carrier phase accumulated over ``distance_m`` (−2π d / λ)."""
    lam = SPEED_OF_LIGHT / frequency_hz
    return -2.0 * math.pi * distance_m / lam


def clutter_received_power_dbm(
    tx_power_dbm: float,
    tx_gain_dbi: float,
    rx_gain_dbi: float,
    distance_m: float,
    frequency_hz: float,
    rcs_dbsm: float,
) -> float:
    """Radar-equation return from an environmental reflector [dBm].

    Pr = Pt Gt Gr λ² σ / ((4π)³ d⁴) — walls and furniture returns that the
    AP's background subtraction must cancel.
    """
    if distance_m <= 0:
        raise ChannelError("distance must be positive")
    lam = SPEED_OF_LIGHT / frequency_hz
    fixed_db = (
        tx_power_dbm
        + tx_gain_dbi
        + rx_gain_dbi
        + 20.0 * math.log10(lam)
        + rcs_dbsm
        - 30.0 * math.log10(4.0 * math.pi)
        - 40.0 * math.log10(distance_m)
    )
    return fixed_db


def complex_path_gain(
    gain_db: float,
    distance_m: float,
    frequency_hz: float,
) -> complex:
    """Amplitude+phase factor for one propagation path.

    ``gain_db`` is the total power gain of the path (antennas − losses −
    path loss); the phase is the carrier phase over the path length.
    """
    amplitude = 10.0 ** (gain_db / 20.0)
    return amplitude * np.exp(1j * propagation_phase_rad(distance_m, frequency_hz))
